#include "dsp/fft.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace bistna::dsp {

void fft_inplace(std::vector<cplx>& data) {
    const std::size_t n = data.size();
    BISTNA_EXPECTS(is_power_of_two(n), "FFT length must be a power of two");

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1) {
            j ^= bit;
        }
        j ^= bit;
        if (i < j) {
            std::swap(data[i], data[j]);
        }
    }

    // Danielson-Lanczos butterflies.
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle = -two_pi / static_cast<double>(len);
        const cplx w_len(std::cos(angle), std::sin(angle));
        for (std::size_t block = 0; block < n; block += len) {
            cplx w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                const cplx even = data[block + k];
                const cplx odd = data[block + k + len / 2] * w;
                data[block + k] = even + odd;
                data[block + k + len / 2] = even - odd;
                w *= w_len;
            }
        }
    }
}

std::vector<cplx> rfft(const std::vector<double>& input) {
    std::vector<cplx> buffer(input.begin(), input.end());
    fft_inplace(buffer);
    buffer.resize(input.size() / 2 + 1);
    return buffer;
}

std::vector<cplx> dft_reference(const std::vector<cplx>& input) {
    const std::size_t n = input.size();
    std::vector<cplx> output(n);
    for (std::size_t k = 0; k < n; ++k) {
        cplx acc(0.0, 0.0);
        for (std::size_t t = 0; t < n; ++t) {
            const double angle = -two_pi * static_cast<double>(k) * static_cast<double>(t) /
                                 static_cast<double>(n);
            acc += input[t] * cplx(std::cos(angle), std::sin(angle));
        }
        output[k] = acc;
    }
    return output;
}

} // namespace bistna::dsp
