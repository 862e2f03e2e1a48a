// The lane-kernel clone this process dispatches to.  The test prints it, so
// a test log names the clone the bit-identity suites in the same run
// verified.
#include "common/kernel.hpp"

#include <gtest/gtest.h>

#include <iostream>
#include <string>

namespace {

TEST(KernelDispatch, NamesTheDispatchedClone) {
    const std::string isa = bistna::kernel_isa();
    std::cout << "lane kernels dispatch to the " << isa << " clone\n";
    RecordProperty("kernel_isa", isa);
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    // Sanitizer builds compile the clones out; the one kernel body runs at
    // the compile target's width, and the name says which.
#if defined(__AVX512F__)
    EXPECT_EQ(isa, "x86-64-v4");
#elif defined(__AVX2__)
    EXPECT_EQ(isa, "avx2");
#else
    EXPECT_EQ(isa, "baseline");
#endif
#else
    EXPECT_TRUE(isa == "x86-64-v4" || isa == "avx2" || isa == "baseline") << isa;
#endif
}

} // namespace
