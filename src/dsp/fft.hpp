// Radix-2 fast Fourier transform.
//
// Self-contained (no external dependency); used by the spectrum analyzer,
// the oscilloscope baseline (the paper's LeCroy WaveSurfer stand-in) and
// the Fig. 8b generator-spectrum bench.
#pragma once

#include <complex>
#include <vector>

namespace bistna::dsp {

using cplx = std::complex<double>;

/// In-place iterative radix-2 decimation-in-time FFT.
/// data.size() must be a power of two.
void fft_inplace(std::vector<cplx>& data);

/// FFT of a real signal; returns the N/2+1 non-negative-frequency bins.
/// input.size() must be a power of two.
std::vector<cplx> rfft(const std::vector<double>& input);

/// Direct O(N^2) DFT (reference implementation for testing the FFT).
std::vector<cplx> dft_reference(const std::vector<cplx>& input);

} // namespace bistna::dsp
