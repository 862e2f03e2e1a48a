// Rate conversion: zero-order-hold upsampling.
//
// The paper's Fig. 8b caveat — "these results correspond to the
// continuous-time analysis of a sampled signal" — is reproduced by
// zero-order-hold upsampling: holding each generator sample over `factor`
// fine-grid points exposes the ZOH images a scope would see, while the
// plain sample stream gives the discrete-time view.
#pragma once

#include <cstddef>
#include <vector>

namespace bistna::dsp {

/// Repeat each sample `factor` times (zero-order hold onto a finer grid).
std::vector<double> zoh_upsample(const std::vector<double>& samples, std::size_t factor);

} // namespace bistna::dsp
