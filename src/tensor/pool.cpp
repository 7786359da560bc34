#include "pcss/tensor/pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

namespace pcss::tensor::pool {

namespace {

// Smallest pooled class: 2^6 = 64 floats. Anything below is cheaper to
// take straight from the allocator's small bins than to track.
constexpr std::size_t kMinClassLog2 = 6;
constexpr std::size_t kNumClasses = 26;  // up to 2^31 floats (8 GiB)
constexpr std::size_t kMaxPerClass = 256;
constexpr std::size_t kMaxCachedFloats = std::size_t{96} * 1024 * 1024;  // 384 MiB

std::size_t class_log2_for_request(std::size_t n) {
  std::size_t log2 = kMinClassLog2;
  while ((std::size_t{1} << log2) < n) ++log2;
  return log2;
}

/// Cross-thread mirror of one pool's counters (see pool.h SlotStats).
/// The owning thread is the only writer; readers use relaxed loads.
/// Event counters are monotonic across slot reuse; cached_floats tracks
/// the live cache and is zeroed when the owner tears down.
struct SlotCounters {
  std::atomic<std::uint64_t> acquires{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> releases{0};
  std::atomic<std::uint64_t> discards{0};
  std::atomic<std::uint64_t> cached_floats{0};
  std::atomic<bool> live{true};
};

// GUARDS: g_slots (slot claim in PoolOwner, enumeration in slot_stats;
// the counters themselves are relaxed atomics and lock-free)
std::mutex g_slots_mutex;
std::vector<std::unique_ptr<SlotCounters>>& slots() {
  static std::vector<std::unique_ptr<SlotCounters>> list;
  return list;
}

SlotCounters* claim_slot() {
  const std::lock_guard<std::mutex> lock(g_slots_mutex);
  auto& list = slots();
  for (auto& slot : list) {
    bool expected = false;
    if (slot->live.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
      return slot.get();
    }
  }
  list.push_back(std::make_unique<SlotCounters>());
  return list.back().get();
}

struct Pool {
  std::vector<FloatBuffer> free_lists[kNumClasses];
  Stats counters;
  SlotCounters* slot = nullptr;

  ~Pool() = default;
};

// The pool lives on the heap behind a plain-pointer TLS slot so that
// release() stays safe during thread/program teardown: after the owner's
// destructor runs the slot reads null and buffers are simply freed.
// (Static-duration tensors -- model fixtures, cached zoo models -- are
// destroyed after thread_local objects; they must not touch a dead pool.)
thread_local Pool* tl_pool = nullptr;

struct PoolOwner {
  Pool* pool;
  PoolOwner() : pool(new Pool) {
    pool->slot = claim_slot();
    tl_pool = pool;
  }
  ~PoolOwner() {
    tl_pool = nullptr;
    // The cached buffers die with the pool: zero the cross-thread gauge
    // before handing the slot back (event counters stay monotonic).
    pool->slot->cached_floats.store(0, std::memory_order_relaxed);
    pool->slot->live.store(false, std::memory_order_release);
    delete pool;
  }
};

Pool* ensure_pool() {
  thread_local PoolOwner owner;
  return tl_pool;
}

}  // namespace

FloatBuffer acquire(std::size_t n) {
  Pool* p = ensure_pool();
  if (p == nullptr) return FloatBuffer(n);
  ++p->counters.acquires;
  p->slot->acquires.fetch_add(1, std::memory_order_relaxed);
  const std::size_t log2 = class_log2_for_request(n);
  if (log2 >= kMinClassLog2 + kNumClasses) {
    // Beyond the largest size class: bypass the pool entirely (release()
    // byte-caps such buffers away anyway).
    return FloatBuffer(n);
  }
  auto& list = p->free_lists[log2 - kMinClassLog2];
  if (!list.empty()) {
    FloatBuffer buf = std::move(list.back());
    list.pop_back();
    ++p->counters.hits;
    --p->counters.cached_buffers;
    p->counters.cached_floats -= buf.capacity();
    p->slot->hits.fetch_add(1, std::memory_order_relaxed);
    p->slot->cached_floats.fetch_sub(buf.capacity(), std::memory_order_relaxed);
    buf.resize(n);  // capacity >= 2^log2 >= n: never reallocates
    assert(reinterpret_cast<std::uintptr_t>(buf.data()) % 32 == 0 &&
           "pool: recycled buffer lost its 32-byte alignment");
    return buf;
  }
  FloatBuffer buf;
  buf.reserve(std::size_t{1} << log2);
  buf.resize(n);
  return buf;
}

FloatBuffer acquire_zeroed(std::size_t n) {
  FloatBuffer buf = acquire(n);
  std::fill(buf.begin(), buf.end(), 0.0f);
  return buf;
}

void release(FloatBuffer&& buffer) noexcept {
  FloatBuffer buf = std::move(buffer);
  Pool* p = tl_pool;  // null before first acquire or after thread teardown
  if (p == nullptr || buf.capacity() < (std::size_t{1} << kMinClassLog2)) return;
  // The allocator over-aligns every allocation; a violation here means a
  // buffer from some other source was handed to the pool.
  assert(reinterpret_cast<std::uintptr_t>(buf.data()) % 32 == 0 &&
         "pool: released buffer violates the 32-byte alignment contract");
  // Class from the *capacity* floor: a buffer cached in class c always has
  // capacity >= 2^c, so acquire() can resize without reallocating.
  std::size_t log2 = kMinClassLog2;
  while ((std::size_t{2} << log2) <= buf.capacity() && log2 + 1 < kMinClassLog2 + kNumClasses) {
    ++log2;
  }
  const std::size_t cls = log2 - kMinClassLog2;
  auto& list = p->free_lists[cls];
  if (list.size() >= kMaxPerClass ||
      p->counters.cached_floats + buf.capacity() > kMaxCachedFloats) {
    ++p->counters.discards;
    p->slot->discards.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ++p->counters.releases;
  ++p->counters.cached_buffers;
  p->counters.cached_floats += buf.capacity();
  p->slot->releases.fetch_add(1, std::memory_order_relaxed);
  p->slot->cached_floats.fetch_add(buf.capacity(), std::memory_order_relaxed);
  list.push_back(std::move(buf));
}

Stats stats() noexcept {
  Pool* p = tl_pool;
  return p ? p->counters : Stats{};
}

void reset_stats() noexcept {
  Pool* p = tl_pool;
  if (p == nullptr) return;
  const std::size_t buffers = p->counters.cached_buffers;
  const std::size_t floats = p->counters.cached_floats;
  p->counters = Stats{};
  p->counters.cached_buffers = buffers;
  p->counters.cached_floats = floats;
}

void trim(std::size_t keep_floats) noexcept {
  Pool* p = tl_pool;
  if (p == nullptr) return;
  for (std::size_t cls = kNumClasses; cls-- > 0;) {
    auto& list = p->free_lists[cls];
    while (!list.empty() && p->counters.cached_floats > keep_floats) {
      const std::size_t floats = list.back().capacity();
      list.pop_back();
      --p->counters.cached_buffers;
      p->counters.cached_floats -= floats;
      p->slot->cached_floats.fetch_sub(floats, std::memory_order_relaxed);
    }
  }
}

std::vector<SlotStats> slot_stats() {
  std::vector<SlotStats> out;
  const std::lock_guard<std::mutex> lock(g_slots_mutex);
  for (const auto& slot : slots()) {
    SlotStats s;
    s.acquires = slot->acquires.load(std::memory_order_relaxed);
    s.hits = slot->hits.load(std::memory_order_relaxed);
    s.releases = slot->releases.load(std::memory_order_relaxed);
    s.discards = slot->discards.load(std::memory_order_relaxed);
    s.cached_floats = slot->cached_floats.load(std::memory_order_relaxed);
    s.live = slot->live.load(std::memory_order_acquire);
    out.push_back(s);
  }
  return out;
}

}  // namespace pcss::tensor::pool
