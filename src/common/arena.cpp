#include "common/arena.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>

#include "common/error.hpp"

namespace bistna {

namespace {
std::atomic<std::uint64_t> g_blocks_mapped{0};
} // namespace

arena::arena(std::size_t initial_bytes)
    : initial_bytes_(std::max<std::size_t>(initial_bytes, alignment)) {}

std::span<double> arena::allocate_zeroed(std::size_t count) {
    auto out = allocate<double>(count);
    std::memset(out.data(), 0, out.size_bytes());
    return out;
}

void arena::reset() noexcept {
    for (block& b : blocks_) {
        b.offset = 0;
    }
    active_ = 0;
    used_ = 0;
}

void arena::shrink() noexcept {
    blocks_.clear();
    active_ = 0;
    used_ = 0;
    capacity_ = 0;
}

void* arena::allocate_bytes(std::size_t bytes) {
    // Zero-size allocations still get a unique, aligned, valid pointer.
    const std::size_t rounded = std::max<std::size_t>(
        alignment, (bytes + alignment - 1) / alignment * alignment);
    BISTNA_EXPECTS(rounded >= bytes, "arena allocation size overflow");

    while (active_ < blocks_.size()) {
        block& b = blocks_[active_];
        if (b.size - b.offset >= rounded) {
            void* p = b.base + b.offset;
            b.offset += rounded;
            used_ += rounded;
            high_water_ = std::max(high_water_, used_);
            return p;
        }
        // This block is (effectively) full; never backtrack into it until
        // the next reset.  Later blocks were sized for earlier overflows,
        // so the scan is O(blocks) worst case and blocks stays tiny.
        ++active_;
    }
    block& b = grow(rounded);
    void* p = b.base + b.offset;
    b.offset += rounded;
    used_ += rounded;
    high_water_ = std::max(high_water_, used_);
    return p;
}

std::uint64_t arena::total_blocks_mapped() noexcept {
    return g_blocks_mapped.load(std::memory_order_relaxed);
}

void arena::unmap::operator()(unsigned char* p) const noexcept {
    ::munmap(p, bytes);
}

arena::block& arena::grow(std::size_t min_bytes) {
    const std::size_t last = blocks_.empty() ? initial_bytes_ : blocks_.back().size * 2;
    const std::size_t size = std::max(min_bytes, last);

    // Blocks are mapped straight from the kernel rather than the heap: pages
    // the workload never touches never become resident, and a released
    // block (a worker thread's arena dying with it) goes back to the kernel
    // at once instead of lingering in the allocator's free lists.
    void* mapped = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                          -1, 0);
    if (mapped == MAP_FAILED) {
        throw std::bad_alloc();
    }
    g_blocks_mapped.fetch_add(1, std::memory_order_relaxed);
    block b;
    b.storage = std::unique_ptr<unsigned char, unmap>(static_cast<unsigned char*>(mapped),
                                                      unmap{size});
    b.base = b.storage.get(); // page-aligned, so cache-line aligned
    b.size = size;
    b.offset = 0;
    capacity_ += size;
    blocks_.push_back(std::move(b));
    active_ = blocks_.size() - 1;
    return blocks_.back();
}

} // namespace bistna
