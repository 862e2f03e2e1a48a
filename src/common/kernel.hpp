// Shared attribute macro for the lane-major hot kernels (extension).
//
// The SoA kernels (sd::modulator_bank, dut::state_space_bank) are compiled
// three times where the toolchain supports it: a baseline clone, an AVX2
// clone (4-double vectors) and an x86-64-v4 clone (AVX-512, 8-double
// vectors), one picked at load time via ifunc.  Every clone produces
// identical IEEE 754 results -- the bit-identity contract survives runtime
// dispatch -- because the kernels are straight-line per lane and never
// reassociated, and because the whole build passes -ffp-contract=off
// (CMakeLists.txt): x86-64-v4 enables FMA, and GCC's default
// -ffp-contract=fast would then fuse a*b+c into one rounding.  The baseline
// and AVX2 targets have no FMA, so the flag changes none of their code.
//
// Sanitizer builds fall back to the plain function: target_clones emits an
// ifunc resolver that runs during relocation, before the ASan/TSan
// runtimes initialize (TSan crashes outright at startup).
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define BISTNA_KERNEL_CLONES \
    __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#define BISTNA_HAVE_KERNEL_CLONES 1
#else
#define BISTNA_KERNEL_CLONES
#define BISTNA_HAVE_KERNEL_CLONES 0
#endif

namespace bistna {

/// The kernel clone this process dispatches to: "x86-64-v4", "avx2" or
/// "baseline", tested in the resolver's priority order.  Always "baseline"
/// where the clones are compiled out (sanitizers, clang, non-x86), so a
/// log can name the clone its bit-identity checks ran on.
inline const char* kernel_isa() noexcept {
#if BISTNA_HAVE_KERNEL_CLONES
    if (__builtin_cpu_supports("x86-64-v4")) {
        return "x86-64-v4";
    }
    if (__builtin_cpu_supports("avx2")) {
        return "avx2";
    }
#endif
    return "baseline";
}

} // namespace bistna
