// Monotonic buffer arena for the render->measure hot path (extension).
//
// A screening lot renders and measures hundreds of thousands of large
// records (tens of kB each), and before this arena every pipeline stage
// churned a fresh std::vector<double> per die per stage -- the allocator
// and the page faults behind it showed up right next to the arithmetic in
// the lot profile.  The arena replaces that churn with bump allocation
// over blocks that are *kept* across reset(): a sweep worker allocates
// whatever a stage of its work item needs, resets between stages, and after
// the first item never allocates again.
//
// Semantics:
//   * allocate<T>(count) bump-allocates count T's (64-byte aligned, so
//     lane-major kernel rows start on cache lines / AVX vectors).
//     Trivially-destructible T only: reset() never runs destructors.
//   * reset() makes the full capacity reusable without releasing it --
//     the same sequence of allocations after a reset lands in the same
//     blocks (test-pinned), so steady-state workers are allocation-free.
//   * Exhaustion grows the arena by appending a block at least as large
//     as the request and >= twice the previous block (geometric, so a
//     worker converges to one block after warm-up); existing allocations
//     are never moved or invalidated by growth.  Blocks are mapped from the
//     kernel, not operator new; total_blocks_mapped() counts them.
//   * Not thread-safe by design: one arena per worker.  shrink() releases
//     everything (for tests and idle trimming).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace bistna {

class arena {
public:
    /// `initial_bytes` sizes the first block, allocated lazily on first use.
    explicit arena(std::size_t initial_bytes = default_initial_bytes);

    arena(const arena&) = delete;
    arena& operator=(const arena&) = delete;
    arena(arena&&) noexcept = default;
    arena& operator=(arena&&) noexcept = default;

    /// Bump-allocate `count` elements of a trivially destructible type,
    /// 64-byte aligned, *uninitialized*.  Valid until reset()/shrink().
    template <typename T>
    std::span<T> allocate(std::size_t count) {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is reclaimed without running destructors");
        static_assert(alignof(T) <= alignment, "over-aligned type");
        void* p = allocate_bytes(count * sizeof(T));
        return {static_cast<T*>(p), count};
    }

    /// allocate<double> + zero fill (accumulator rows).
    std::span<double> allocate_zeroed(std::size_t count);

    /// Reclaim every allocation while *keeping* the capacity: the next
    /// allocation sequence reuses the existing blocks front to back.
    void reset() noexcept;

    /// Release all blocks back to the kernel (capacity drops to zero).
    void shrink() noexcept;

    /// Bytes currently handed out (since construction or the last reset).
    std::size_t used_bytes() const noexcept { return used_; }
    /// Bytes of block capacity owned (survives reset, grows on demand).
    std::size_t capacity_bytes() const noexcept { return capacity_; }
    /// Largest used_bytes() ever observed -- the worker's working set.
    std::size_t high_water_bytes() const noexcept { return high_water_; }
    /// Blocks owned; converges to 1 once the first block fits a whole item.
    std::size_t blocks() const noexcept { return blocks_.size(); }

    /// Blocks every arena in the process has mapped so far.  Flat once each
    /// worker's arena has warmed up, which is how a steady-state loop shows
    /// it never grows (blocks bypass operator new, so an allocation hook
    /// cannot see them).
    static std::uint64_t total_blocks_mapped() noexcept;

    static constexpr std::size_t alignment = 64;
    static constexpr std::size_t default_initial_bytes = std::size_t{1} << 20;

private:
    /// Releases a block's kernel mapping.
    struct unmap {
        std::size_t bytes;
        void operator()(unsigned char* p) const noexcept;
    };

    struct block {
        std::unique_ptr<unsigned char, unmap> storage;
        std::size_t size = 0;    ///< usable bytes (aligned base)
        std::size_t offset = 0;  ///< bump pointer within the block
        unsigned char* base = nullptr;
    };

    void* allocate_bytes(std::size_t bytes);
    block& grow(std::size_t min_bytes);

    std::vector<block> blocks_;
    std::size_t active_ = 0; ///< block the bump pointer lives in
    std::size_t initial_bytes_;
    std::size_t used_ = 0;
    std::size_t capacity_ = 0;
    std::size_t high_water_ = 0;
};

} // namespace bistna
