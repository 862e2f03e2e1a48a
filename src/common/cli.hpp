// Tiny argv helpers shared by the example programs and the shard/service
// executables: "--name=value" flags, nothing more.  Extracted from the
// (formerly duplicated) copies in examples/screening_lot.cpp and
// examples/fault_diagnosis.cpp so every command-line front end parses
// flags the same way.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/error.hpp"

namespace bistna {

/// Parse "--name=value" from argv with strtod; returns fallback when absent.
/// Lenient: a malformed value reads as its longest numeric prefix, or 0.
/// Only lotbench's --seconds and --trace still read it, until the next
/// change to lotbench moves them to the strict parsers below.
inline double flag_value(int argc, char** argv, const char* name, double fallback) {
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
            return std::strtod(argv[i] + prefix.size(), nullptr);
        }
    }
    return fallback;
}

/// Parse a string-valued "--name=value" flag; empty when absent.
inline std::string flag_text(int argc, char** argv, const char* name) {
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
            return std::string(argv[i] + prefix.size());
        }
    }
    return {};
}

/// Parse a string-valued "--name=value" flag with a default: the flag's
/// value when present, `fallback` when the flag is absent entirely.  An
/// explicit empty value ("--listen=") throws configuration_error -- for
/// the flags this exists for (socket paths, file names) an empty string
/// is never a usable value, and silently substituting the default would
/// hide the typo.
inline std::string flag_string(int argc, char** argv, const char* name,
                               const std::string& fallback) {
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
            std::string value(argv[i] + prefix.size());
            if (value.empty()) {
                throw configuration_error(std::string("flag --") + name +
                                          " requires a non-empty value");
            }
            return value;
        }
    }
    return fallback;
}

/// Strictly parse an unsigned-integer "--name=value" flag: the whole value
/// must be decimal digits ("8", not "8x" or "-1" or "0.5"); malformed
/// values throw configuration_error naming the flag instead of being
/// silently read as 0 the way flag_value's strtod would.
inline std::uint64_t flag_u64(int argc, char** argv, const char* name,
                              std::uint64_t fallback) {
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) != 0) {
            continue;
        }
        const char* text = argv[i] + prefix.size();
        if (*text == '\0') {
            throw configuration_error(std::string("flag --") + name +
                                      " requires a value");
        }
        std::uint64_t value = 0;
        for (const char* p = text; *p != '\0'; ++p) {
            const bool digit = *p >= '0' && *p <= '9';
            const std::uint64_t d = digit ? static_cast<std::uint64_t>(*p - '0') : 0;
            if (!digit || value > UINT64_MAX / 10 ||
                (value == UINT64_MAX / 10 && d > UINT64_MAX % 10)) {
                throw configuration_error(std::string("flag --") + name + "=" + text +
                                          ": expected a non-negative integer");
            }
            value = value * 10 + d;
        }
        return value;
    }
    return fallback;
}

/// Strictly parse a non-negative real "--name=value" flag: the whole value
/// must be one finite number >= 0 ("0.03", "1e-2", "0"); "abc", "0.03x",
/// an empty value, "-0.1", "nan", "inf" and an overflowing "1e999" throw
/// configuration_error naming the flag instead of reading as 0 or as a
/// prefix the way flag_value's strtod would.  A value too small for a
/// normal double reads as strtod rounds it ("1e-310" as a subnormal,
/// "1e-400" as 0), and "-0" reads as +0.
inline double flag_double(int argc, char** argv, const char* name, double fallback) {
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) != 0) {
            continue;
        }
        const char* text = argv[i] + prefix.size();
        char* end = nullptr;
        const double value = std::strtod(text, &end);
        const bool parsed = end != text && *end == '\0' &&
                            std::isspace(static_cast<unsigned char>(*text)) == 0;
        // Overflow reads as +/-HUGE_VAL, which the finiteness test refuses.
        if (!parsed || !std::isfinite(value) || !(value >= 0.0)) {
            throw configuration_error(std::string("flag --") + name + "=" + text +
                                      ": expected a finite non-negative number");
        }
        return value + 0.0; // -0.0 + 0.0 is +0.0
    }
    return fallback;
}

/// True when "--name=value" appears in argv at all.
inline bool flag_present(int argc, char** argv, const char* name) {
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
            return true;
        }
    }
    return false;
}

/// True for a bare boolean switch: "--name" exactly, or "--name=value".
inline bool flag_switch(int argc, char** argv, const char* name) {
    const std::string bare = std::string("--") + name;
    for (int i = 1; i < argc; ++i) {
        if (bare == argv[i]) {
            return true;
        }
    }
    return flag_present(argc, argv, name);
}

} // namespace bistna
