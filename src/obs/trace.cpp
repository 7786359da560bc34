#include "pcss/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

namespace pcss::obs::trace {

namespace {

/// Per-slot ring capacity. 16384 events x 48 bytes = 768 KiB per slot;
/// slots are bounded by peak thread concurrency (exited threads' slots
/// are recycled), so a traced 8-worker run tops out around 6 MiB.
constexpr std::uint64_t kRingCapacity = 16384;

struct Event {
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  std::int64_t arg_values[2] = {0, 0};
  Label label = 0;
  Label arg_keys[2] = {0, 0};
};

struct ThreadBuffer {
  std::vector<Event> ring;  ///< fixed kRingCapacity once allocated
  /// Total events ever written to this slot; slot index = head % capacity.
  /// Written with release by the owning thread, read with acquire by
  /// stats()/drain (which are documented quiescent-read operations).
  std::atomic<std::uint64_t> head{0};
  std::atomic<bool> in_use{true};

  ThreadBuffer() { ring.resize(kRingCapacity); }
};

// GUARDS: g_buffers (slot claim on first record, slot enumeration in
// stats/clear/drain; ring writes themselves are single-producer and
// lock-free)
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>>& buffers() {
  static std::vector<std::unique_ptr<ThreadBuffer>> bufs;
  return bufs;
}

// GUARDS: g_labels (interning; label_name reads under the same lock)
std::mutex g_labels_mutex;
std::vector<std::string>& labels() {
  static std::vector<std::string> names{std::string()};  // [0] = "none"
  return names;
}

bool env_default_enabled() {
  const char* env = std::getenv("PCSS_TRACE");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_default_enabled()};
  return flag;
}

/// Releases this thread's slot at thread exit so a successor thread can
/// append to the same ring (events are kept — the trace survives worker
/// churn and tid = slot stays bounded by peak concurrency).
struct TlsSlot {
  ThreadBuffer* buffer = nullptr;
  ~TlsSlot() {
    if (buffer != nullptr) buffer->in_use.store(false, std::memory_order_release);
  }
};

ThreadBuffer* claim_slot() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  auto& bufs = buffers();
  for (auto& buf : bufs) {
    bool expected = false;
    if (buf->in_use.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
      return buf.get();
    }
  }
  bufs.push_back(std::make_unique<ThreadBuffer>());
  return bufs.back().get();
}

ThreadBuffer* thread_buffer() {
  thread_local TlsSlot slot;
  if (slot.buffer == nullptr) slot.buffer = claim_slot();
  return slot.buffer;
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
}

struct DrainedEvent {
  Event event;
  std::size_t tid = 0;
};

/// Snapshots every slot's buffered events. Quiescent-read contract: a
/// producer racing this sees its newest events missed, never torn ones
/// (events are published before the head's release store).
std::vector<DrainedEvent> collect() {
  std::vector<DrainedEvent> out;
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  const auto& bufs = buffers();
  for (std::size_t tid = 0; tid < bufs.size(); ++tid) {
    const ThreadBuffer& buf = *bufs[tid];
    const std::uint64_t head = buf.head.load(std::memory_order_acquire);
    const std::uint64_t n = std::min(head, kRingCapacity);
    for (std::uint64_t k = head - n; k < head; ++k) {
      out.push_back({buf.ring[static_cast<std::size_t>(k % kRingCapacity)], tid});
    }
  }
  return out;
}

}  // namespace

bool enabled() noexcept { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}

Label intern(const std::string& name) {
  const std::lock_guard<std::mutex> lock(g_labels_mutex);
  auto& names = labels();
  for (std::size_t i = 1; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<Label>(i);
  }
  names.push_back(name);
  return static_cast<Label>(names.size() - 1);
}

const std::string& label_name(Label label) {
  const std::lock_guard<std::mutex> lock(g_labels_mutex);
  const auto& names = labels();
  return label < names.size() ? names[label] : names[0];
}

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void record_complete(Label label, std::int64_t ts_ns, std::int64_t dur_ns,
                     Label arg_key, std::int64_t arg_value, Label arg2_key,
                     std::int64_t arg2_value) noexcept {
  if (!enabled() || label == 0) return;
  ThreadBuffer* buf = thread_buffer();
  const std::uint64_t head = buf->head.load(std::memory_order_relaxed);
  Event& slot = buf->ring[static_cast<std::size_t>(head % kRingCapacity)];
  slot.ts_ns = ts_ns;
  slot.dur_ns = dur_ns;
  slot.arg_values[0] = arg_value;
  slot.arg_values[1] = arg2_value;
  slot.label = label;
  slot.arg_keys[0] = arg_key;
  slot.arg_keys[1] = arg2_key;
  buf->head.store(head + 1, std::memory_order_release);
}

Stats stats() {
  Stats s;
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& buf : buffers()) {
    const std::uint64_t head = buf->head.load(std::memory_order_acquire);
    s.recorded += head;
    s.buffered += std::min(head, kRingCapacity);
    s.dropped += head > kRingCapacity ? head - kRingCapacity : 0;
    ++s.threads;
  }
  return s;
}

void clear() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (auto& buf : buffers()) buf->head.store(0, std::memory_order_release);
}

std::string drain_chrome_json() {
  std::vector<DrainedEvent> events = collect();
  std::sort(events.begin(), events.end(), [](const DrainedEvent& a, const DrainedEvent& b) {
    if (a.event.ts_ns != b.event.ts_ns) return a.event.ts_ns < b.event.ts_ns;
    return a.tid < b.tid;
  });
  std::int64_t base_ns = 0;
  if (!events.empty()) base_ns = events.front().event.ts_ns;

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char num[64];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i].event;
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\": \"";
    append_json_escaped(out, label_name(e.label));
    out += "\", \"cat\": \"pcss\", \"ph\": \"X\", \"pid\": 1, \"tid\": ";
    std::snprintf(num, sizeof(num), "%zu", events[i].tid);
    out += num;
    out += ", \"ts\": ";
    std::snprintf(num, sizeof(num), "%.3f",
                  static_cast<double>(e.ts_ns - base_ns) / 1000.0);
    out += num;
    out += ", \"dur\": ";
    std::snprintf(num, sizeof(num), "%.3f", static_cast<double>(e.dur_ns) / 1000.0);
    out += num;
    const char* sep = ", \"args\": {\"";
    for (int a = 0; a < 2; ++a) {
      if (e.arg_keys[a] == 0) continue;
      out += sep;
      sep = ", \"";
      append_json_escaped(out, label_name(e.arg_keys[a]));
      out += "\": ";
      std::snprintf(num, sizeof(num), "%lld", static_cast<long long>(e.arg_values[a]));
      out += num;
    }
    if (e.arg_keys[0] != 0 || e.arg_keys[1] != 0) out += "}";
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

bool write_chrome_json(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::string json = drain_chrome_json();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(out);
}

}  // namespace pcss::obs::trace
