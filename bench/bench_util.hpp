// Shared reporting helpers for the experiment-reproduction benches.
//
// Every paper bench gates its claims: each verdict() that prints MISMATCH is
// recorded, and main returns exit_status(), so a broken claim fails the
// process (and the bench's ctest case, label `paper`).
#pragma once

#include <iostream>
#include <string>

namespace bistna::bench {

namespace detail {
inline int mismatches = 0;
} // namespace detail

inline void banner(const std::string& experiment, const std::string& description) {
    std::cout << "================================================================\n"
              << experiment << "\n"
              << description << "\n"
              << "================================================================\n";
}

inline void footnote(const std::string& text) { std::cout << "\n" << text << "\n\n"; }

/// "shape holds" verdict line: |measured - paper| within a stated window.
/// A MISMATCH is recorded for exit_status().
inline void verdict(const std::string& quantity, double paper, double measured,
                    double window) {
    const double delta = measured - paper;
    const bool ok = delta <= window && delta >= -window;
    std::cout << "  " << quantity << ": paper " << paper << ", measured " << measured
              << " (delta " << delta << ", window +/-" << window << ") -> "
              << (ok ? "SHAPE HOLDS" : "MISMATCH") << "\n";
    if (!ok) {
        ++detail::mismatches;
    }
}

/// The bench's exit code: 1 if any verdict printed MISMATCH, else 0.
inline int exit_status() { return detail::mismatches == 0 ? 0 : 1; }

} // namespace bistna::bench
