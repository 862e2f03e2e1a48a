// In-run machine ceilings: a STREAM-style triad for memory bandwidth and an
// FMA-throughput probe for peak flops, measured in the same invocation as
// the kernels they put in context.
#pragma once

#include <cstddef>

namespace lotbench {

struct machine_ceilings {
    double triad_gbps = 0.0;       ///< all threads, STREAM byte counting (3 x 8 B)
    double triad_mib = 0.0;        ///< total size of the three triad arrays
    double llc_mib = 0.0;          ///< last-level cache size the OS reports
    double fma_gflops = 0.0;       ///< all threads
    double fma_gflops_1core = 0.0; ///< one thread
};

/// Run both probes on `threads` threads.  The triad arrays total four
/// times the reported last-level cache, capped at `max_triad_mib`.
machine_ceilings measure_ceilings(std::size_t threads, double max_triad_mib);


} // namespace lotbench
