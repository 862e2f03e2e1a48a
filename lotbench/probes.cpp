#include "probes.hpp"

#include <immintrin.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace lotbench {

namespace {

constexpr std::size_t fma_chains = 8; ///< independent chains: covers FMA latency x ports

/// 8 independent vector FMA chains; 64 flops per iteration.
__attribute__((target("avx2,fma"))) double fma_chains_avx2(std::size_t iterations,
                                                           double seed) {
    __m256d acc[fma_chains];
    for (std::size_t i = 0; i < fma_chains; ++i) {
        acc[i] = _mm256_set1_pd(seed + 0.001 * static_cast<double>(i));
    }
    const __m256d m = _mm256_set1_pd(0.9999999);
    const __m256d c = _mm256_set1_pd(1e-9);
    for (std::size_t n = 0; n < iterations; ++n) {
        for (std::size_t i = 0; i < fma_chains; ++i) {
            acc[i] = _mm256_fmadd_pd(acc[i], m, c);
        }
    }
    double lanes[4];
    double sum = 0.0;
    for (std::size_t i = 0; i < fma_chains; ++i) {
        _mm256_storeu_pd(lanes, acc[i]);
        sum += lanes[0] + lanes[1] + lanes[2] + lanes[3];
    }
    return sum;
}

/// Scalar fallback; 16 flops per iteration.
double fma_chains_scalar(std::size_t iterations, double seed) {
    double acc[fma_chains];
    for (std::size_t i = 0; i < fma_chains; ++i) {
        acc[i] = seed + 0.001 * static_cast<double>(i);
    }
    for (std::size_t n = 0; n < iterations; ++n) {
        for (std::size_t i = 0; i < fma_chains; ++i) {
            acc[i] = std::fma(acc[i], 0.9999999, 1e-9);
        }
    }
    double sum = 0.0;
    for (double v : acc) {
        sum += v;
    }
    return sum;
}

/// Best-of-3 flop rate of `threads` threads each running the chains.
double fma_gflops(std::size_t threads) {
    const bool vector = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    const std::size_t iterations = vector ? 40'000'000 : 80'000'000;
    const double flops_per_iteration = vector ? 2.0 * 4.0 * fma_chains : 2.0 * fma_chains;
    std::vector<double> sinks(threads, 0.0);
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = clock_type::now();
        {
            std::vector<std::jthread> pool;
            for (std::size_t t = 0; t < threads; ++t) {
                pool.emplace_back([&, t] {
                    const double seed = 1.0 + static_cast<double>(t + rep);
                    sinks[t] = vector ? fma_chains_avx2(iterations, seed)
                                      : fma_chains_scalar(iterations, seed);
                });
            }
        }
        const double seconds = seconds_since(t0);
        best = std::max(best, flops_per_iteration * static_cast<double>(iterations) *
                                  static_cast<double>(threads) / seconds / 1e9);
    }
    volatile double keep = sinks.front(); // the chains stay observable
    (void)keep;
    return best;
}

double last_level_cache_bytes() {
    long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (bytes <= 0) {
        bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
    }
    return bytes > 0 ? static_cast<double>(bytes) : 0.0;
}

} // namespace

machine_ceilings measure_ceilings(std::size_t threads, double max_triad_mib) {
    machine_ceilings out;
    out.llc_mib = last_level_cache_bytes() / (1024.0 * 1024.0);
    out.triad_mib = out.llc_mib > 0.0 ? std::min(4.0 * out.llc_mib, max_triad_mib)
                                      : max_triad_mib;

    // STREAM triad a = b + s*c, arrays first-touched by the threads that
    // sweep them; best of 4 passes.
    const auto n = static_cast<std::size_t>(out.triad_mib * 1024.0 * 1024.0 / 24.0);
    const std::unique_ptr<double[]> a(new double[n]);
    const std::unique_ptr<double[]> b(new double[n]);
    const std::unique_ptr<double[]> c(new double[n]);
    const auto for_chunks = [&](auto&& body) {
        std::vector<std::jthread> pool;
        for (std::size_t t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] { body(n * t / threads, n * (t + 1) / threads); });
        }
    };
    for_chunks([&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            a[i] = 0.0;
            b[i] = 1.0;
            c[i] = 2.0;
        }
    });
    double best = 0.0;
    for (int rep = 0; rep < 4; ++rep) {
        const double scalar = 3.0 + rep;
        const auto t0 = clock_type::now();
        for_chunks([&](std::size_t lo, std::size_t hi) {
            double* __restrict pa = a.get();
            const double* __restrict pb = b.get();
            const double* __restrict pc = c.get();
            for (std::size_t i = lo; i < hi; ++i) {
                pa[i] = pb[i] + scalar * pc[i];
            }
        });
        best = std::max(best, 24.0 * static_cast<double>(n) / seconds_since(t0) / 1e9);
    }
    volatile double keep = a[n / 2]; // the stores stay observable
    (void)keep;
    out.triad_gbps = best;

    out.fma_gflops = fma_gflops(threads);
    out.fma_gflops_1core = fma_gflops(1);
    return out;
}

} // namespace lotbench
