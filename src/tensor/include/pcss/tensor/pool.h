#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

/// Per-thread size-class buffer pool backing TensorImpl storage.
///
/// Every tensor data/grad buffer is acquired from (and on destruction
/// returned to) the calling thread's free lists, so the attack inner loop
/// reaches a steady state where each step's graph is built entirely from
/// recycled buffers. Pools are strictly thread-local: a buffer is only
/// ever handed out by the thread that holds it, so there is no locking
/// and no cross-thread aliasing; a buffer released on another thread
/// simply joins that thread's pool.
///
/// Size classes are powers of two (min 64 floats). acquire() hands back a
/// buffer whose capacity is at least the requested size with *unspecified*
/// contents; callers that accumulate must use acquire_zeroed().
///
/// Alignment guarantee: every FloatBuffer allocation — fresh or recycled —
/// starts on a 32-byte boundary (one AVX2 lane row). The SIMD kernels use
/// unaligned loads so this is a performance property, not a correctness
/// one, but it is part of the pool contract: release() asserts it in
/// debug builds so a stray unaligned buffer cannot silently enter the
/// free lists.
namespace pcss::tensor {

/// Minimal stateless allocator that over-aligns every allocation to
/// `Alignment` bytes (32 = one AVX2 register). All instances compare
/// equal, so containers can splice buffers freely.
template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  using value_type = T;
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two no smaller than alignof(T)");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Alignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const noexcept {
    return true;
  }
};

/// The pooled tensor storage type: a std::vector whose data() is always
/// 32-byte aligned. TensorImpl::data/grad and BackwardCtx::fbuf use this
/// type; plain std::vector<float> stays the currency for non-pooled data
/// (weights on disk, running stats, JSON payloads).
using FloatBuffer = std::vector<float, AlignedAllocator<float, 32>>;

namespace pool {

/// Counters for the calling thread's pool. `cached_*` describe buffers
/// currently parked in the free lists; the steady-state memory test
/// asserts they stay flat across attack steps.
struct Stats {
  std::uint64_t acquires = 0;  ///< total acquire / acquire_zeroed calls
  std::uint64_t hits = 0;      ///< acquires served from a free list
  std::uint64_t releases = 0;  ///< buffers parked back into a free list
  std::uint64_t discards = 0;  ///< released buffers dropped (class/byte cap)
  std::size_t cached_buffers = 0;
  std::size_t cached_floats = 0;  ///< sum of cached capacities
};

/// Buffer of size n with unspecified contents (fast path: no fill).
/// data() is 32-byte aligned (see the pool contract above).
FloatBuffer acquire(std::size_t n);
/// Buffer of size n, zero-filled (for accumulation targets and grads).
FloatBuffer acquire_zeroed(std::size_t n);
/// Returns a buffer to the calling thread's pool (or frees it when the
/// pool is over its cap or the thread is shutting down). Debug builds
/// assert the buffer meets the 32-byte alignment contract before it can
/// be recycled.
void release(FloatBuffer&& buffer) noexcept;

Stats stats() noexcept;
void reset_stats() noexcept;
/// Frees cached buffers of the calling thread, largest first, until at
/// most `keep_floats` floats stay cached (by default, all of them).
void trim(std::size_t keep_floats = 0) noexcept;

/// Cross-thread view of one pool slot. Each thread's pool registers a
/// slot on first use; when the thread exits, the slot is marked not-live
/// and recycled by the next new pool thread (so the slot count is
/// bounded by peak concurrency, like the obs trace rings). The event
/// counters are *monotonic across slot reuse* — consumers that want
/// per-run numbers (the executor's `.perf.json` tensor_pool block) take
/// before/after deltas per slot index. `cached_floats` is instantaneous
/// and drops to 0 when the owning thread tears down.
struct SlotStats {
  std::uint64_t acquires = 0;
  std::uint64_t hits = 0;
  std::uint64_t releases = 0;
  std::uint64_t discards = 0;
  std::uint64_t cached_floats = 0;
  bool live = false;
};

/// Snapshot of every slot ever registered, in slot order. Safe to call
/// from any thread at any time (counters are relaxed atomics); exact at
/// quiescence, slightly stale while workers are mid-step.
std::vector<SlotStats> slot_stats();

}  // namespace pool

}  // namespace pcss::tensor
