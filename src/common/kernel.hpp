// Shared attribute macros for the lane-major hot kernels (extension).
//
// The SoA kernels (sd::modulator_bank, dut::state_space_bank) are compiled
// three times where the toolchain supports it: a baseline build (SSE2,
// 2-double vectors), an AVX2 build (4-double vectors) and an x86-64-v4
// build (AVX-512, 8-double vectors), one picked at load time via ifunc.
// Two forms share that dispatch:
//   * BISTNA_KERNEL_CLONES: one body, cloned per ISA by target_clones and
//     left to the auto-vectorizer (dut::state_space_bank, the noise-tile
//     fill);
//   * BISTNA_KERNEL_BASELINE / _AVX2 / _X86_64_V4: one definition per ISA
//     (GCC function multiversioning), for a kernel written with explicit
//     vectors that instantiates its body at each ISA's own width -- 2, 4
//     and 8 doubles.  sd::modulator_bank does this: its register blocks
//     must match the ISA's vector and register file.
// Every build produces identical IEEE 754 results -- the bit-identity
// contract survives runtime dispatch -- because the kernels are
// straight-line per lane and never reassociated, and because the whole
// build passes -ffp-contract=off (CMakeLists.txt): x86-64-v4 enables FMA,
// and GCC's default -ffp-contract=fast would then fuse a*b+c into one
// rounding.  The baseline and AVX2 targets have no FMA, so the flag changes
// none of their code.
//
// Sanitizer builds fall back to the plain function: target_clones and
// multiversioning emit an ifunc resolver that runs during relocation,
// before the ASan/TSan runtimes initialize (TSan crashes outright at
// startup).  There, a per-ISA kernel compiles once at
// kernel_fallback_doubles, the widest vector the compile target has.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define BISTNA_KERNEL_CLONES \
    __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#define BISTNA_KERNEL_BASELINE __attribute__((target("default")))
#define BISTNA_KERNEL_AVX2 __attribute__((target("avx2")))
#define BISTNA_KERNEL_X86_64_V4 __attribute__((target("arch=x86-64-v4")))
#define BISTNA_HAVE_KERNEL_CLONES 1
#else
#define BISTNA_KERNEL_CLONES
#define BISTNA_HAVE_KERNEL_CLONES 0
#endif

namespace bistna {

/// Doubles per vector of a per-ISA kernel where the clones are compiled
/// out (sanitizers, clang, non-x86): 8 when the compile target has
/// AVX-512F, 4 with AVX2, 2 otherwise.
#if defined(__AVX512F__)
inline constexpr int kernel_fallback_doubles = 8;
#elif defined(__AVX2__)
inline constexpr int kernel_fallback_doubles = 4;
#else
inline constexpr int kernel_fallback_doubles = 2;
#endif

/// The kernel clone this process dispatches to: "x86-64-v4", "avx2" or
/// "baseline", tested in the resolver's priority order, so a log can name
/// the clone its bit-identity checks ran on.  Where the clones are compiled
/// out (sanitizers, clang, non-x86) it names the level the one kernel body
/// is compiled for, as kernel_fallback_doubles does: "x86-64-v4" with
/// AVX-512F, "avx2" with AVX2, "baseline" otherwise.
inline const char* kernel_isa() noexcept {
#if BISTNA_HAVE_KERNEL_CLONES
    if (__builtin_cpu_supports("x86-64-v4")) {
        return "x86-64-v4";
    }
    if (__builtin_cpu_supports("avx2")) {
        return "avx2";
    }
    return "baseline";
#else
    return kernel_fallback_doubles == 8 ? "x86-64-v4"
           : kernel_fallback_doubles == 4 ? "avx2"
                                          : "baseline";
#endif
}

} // namespace bistna
