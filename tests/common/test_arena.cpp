// Arena semantics the sweep workers rely on: geometric growth under
// exhaustion, reset() reusing the exact same capacity (same addresses for
// the same allocation sequence), and stable addresses across growth.
#include "common/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace {

using bistna::arena;

TEST(Arena, AllocationsAreCacheLineAlignedAndAccounted) {
    arena scratch(1024);
    const auto a = scratch.allocate<double>(10);
    const auto b = scratch.allocate<std::uint8_t>(3);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % arena::alignment, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % arena::alignment, 0u);
    EXPECT_GE(scratch.used_bytes(), 10 * sizeof(double) + 3);
    EXPECT_GE(scratch.capacity_bytes(), scratch.used_bytes());
}

TEST(Arena, ExhaustionGrowsWithoutInvalidatingPriorAllocations) {
    arena scratch(256);
    // Fill the first block, then force repeated growth; earlier spans must
    // stay dereferenceable with their contents intact.
    std::vector<std::span<double>> spans;
    for (int i = 0; i < 8; ++i) {
        auto span = scratch.allocate<double>(64); // 512 B each > initial block
        for (std::size_t j = 0; j < span.size(); ++j) {
            span[j] = static_cast<double>(i * 1000 + static_cast<int>(j));
        }
        spans.push_back(span);
    }
    EXPECT_GT(scratch.blocks(), 1u);
    for (int i = 0; i < 8; ++i) {
        for (std::size_t j = 0; j < spans[i].size(); ++j) {
            EXPECT_EQ(spans[i][j], static_cast<double>(i * 1000 + static_cast<int>(j)));
        }
    }
    // Growth is geometric: a request far beyond current capacity lands in
    // one new block, not a long chain.
    const std::size_t blocks_before = scratch.blocks();
    (void)scratch.allocate<double>(1 << 16);
    EXPECT_EQ(scratch.blocks(), blocks_before + 1);
}

TEST(Arena, ResetKeepsCapacityAndReplaysTheSameAddresses) {
    arena scratch(512);
    std::vector<double*> first_pass;
    for (int i = 0; i < 6; ++i) {
        first_pass.push_back(scratch.allocate<double>(100).data());
    }
    const std::size_t capacity = scratch.capacity_bytes();
    const std::size_t blocks = scratch.blocks();
    EXPECT_GT(capacity, 0u);

    scratch.reset();
    EXPECT_EQ(scratch.used_bytes(), 0u);
    EXPECT_EQ(scratch.capacity_bytes(), capacity);
    EXPECT_EQ(scratch.blocks(), blocks);

    // The same allocation sequence after reset() reuses the same blocks
    // front to back -- the steady-state worker loop never touches the heap.
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(scratch.allocate<double>(100).data(), first_pass[i]) << "alloc " << i;
    }
    EXPECT_EQ(scratch.capacity_bytes(), capacity);
    EXPECT_EQ(scratch.blocks(), blocks);
}

TEST(Arena, HighWaterTracksPeakAcrossResets) {
    arena scratch(128);
    (void)scratch.allocate<double>(200);
    const std::size_t peak = scratch.high_water_bytes();
    EXPECT_GE(peak, 200 * sizeof(double));
    scratch.reset();
    (void)scratch.allocate<double>(10);
    EXPECT_EQ(scratch.high_water_bytes(), peak);
}

TEST(Arena, ShrinkReleasesEverything) {
    arena scratch(128);
    (void)scratch.allocate<double>(1000);
    scratch.shrink();
    EXPECT_EQ(scratch.capacity_bytes(), 0u);
    EXPECT_EQ(scratch.used_bytes(), 0u);
    EXPECT_EQ(scratch.blocks(), 0u);
    // Still usable after a shrink.
    auto span = scratch.allocate<double>(32);
    EXPECT_EQ(span.size(), 32u);
}

TEST(Arena, BlockCounterTracksGrowthOnly) {
    const std::uint64_t start = arena::total_blocks_mapped();
    arena scratch(256);
    EXPECT_EQ(arena::total_blocks_mapped(), start) << "the first block is mapped lazily";
    (void)scratch.allocate<double>(16);
    (void)scratch.allocate<double>(64); // grows a second block
    EXPECT_EQ(arena::total_blocks_mapped() - start, scratch.blocks());
    const std::uint64_t warmed = arena::total_blocks_mapped();

    // The same sequence after reset() reuses the blocks it already has.
    scratch.reset();
    (void)scratch.allocate<double>(16);
    (void)scratch.allocate<double>(64);
    EXPECT_EQ(arena::total_blocks_mapped(), warmed);
}

TEST(Arena, ZeroedAllocationIsZero) {
    arena scratch;
    (void)scratch.allocate<double>(64); // dirty the block
    scratch.reset();
    const auto zeroed = scratch.allocate_zeroed(64);
    for (double v : zeroed) {
        EXPECT_EQ(v, 0.0);
    }
}

} // namespace
