#pragma once

#include <cstdint>
#include <string>

/// Low-overhead span tracer (the `pcss::obs` observability substrate).
///
/// Design rules, in priority order:
///
///   1. *Telemetry never touches result documents or cache keys.* Nothing
///      in this namespace feeds a `RunDocument`, a shard payload, or a
///      `run_key` input; lint rule D006 machine-checks that the store's
///      serialization and hashing TUs never even name `pcss::obs`.
///   2. *Near-zero cost when disabled.* `ScopedSpan` on the disabled path
///      is one relaxed atomic load and a branch — no clock read, no
///      allocation, no buffer registration. The runtime flag starts from
///      the `PCSS_TRACE` environment variable and can be flipped with
///      set_enabled() (the `pcss_run --trace out.json` path).
///   3. *obs owns all clocks.* src/core, src/tensor and src/runner stay
///      inside the D002 chrono ban: they call ScopedSpan /
///      metrics::ScopedTimerMs and the timestamps are taken here, in a
///      TU where wall-clock is legal because it can only ever reach
///      telemetry sinks.
///
/// Recording model: each thread owns a fixed-capacity ring of *complete*
/// span events ([ts, ts+dur], Chrome "ph":"X"), claimed from a global
/// slot registry on first use and recycled by slot when the thread
/// exits (a successor thread appends after the dead thread's events, so
/// slot count is bounded by peak concurrency, not thread churn). Writes
/// are single-producer per ring and publish with a release store;
/// drain_chrome_json() is meant to run at quiescence (after worker
/// pools joined) and snapshots every slot.
namespace pcss::obs::trace {

/// Interned label id. 0 is reserved for "none"; real labels start at 1.
using Label = std::uint32_t;

/// Whether spans are being recorded. Initialized on first query from
/// `PCSS_TRACE` (set and not "0" => enabled).
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Interns `name`, returning a stable id for the process lifetime.
/// Intended for one-time initialization (`static const Label k = ...`);
/// interning an already-known name returns the existing id.
Label intern(const std::string& name);
/// Name of an interned label ("" for 0 or out-of-range ids).
const std::string& label_name(Label label);

/// Monotonic nanoseconds (steady clock). The only clock the traced
/// layers ever see — and only as opaque pre-taken timestamps.
std::int64_t now_ns() noexcept;

/// Records one complete span on the calling thread's ring, with up to two
/// key=value annotations. A key of 0 means "no annotation"; otherwise the
/// pair lands in the Chrome event's "args" object (e.g. cache_hit=1 on
/// runner.shard spans).
void record_complete(Label label, std::int64_t ts_ns, std::int64_t dur_ns,
                     Label arg_key = 0, std::int64_t arg_value = 0, Label arg2_key = 0,
                     std::int64_t arg2_value = 0) noexcept;

struct Stats {
  std::uint64_t recorded = 0;  ///< events recorded since the last clear()
  std::uint64_t buffered = 0;  ///< events currently held in rings
  std::uint64_t dropped = 0;   ///< events overwritten by ring wrap
  std::size_t threads = 0;     ///< ring slots ever allocated (0 until the
                               ///< first *enabled* record — the disabled
                               ///< path allocates nothing)
};
Stats stats();

/// Forgets all recorded events (ring storage is kept for reuse).
void clear();

/// Serializes every buffered event as Chrome trace-event JSON
/// (chrome://tracing and Perfetto both load it): one "X" event per
/// span, tid = ring slot, timestamps normalized to the earliest event
/// and expressed in microseconds. Call at quiescence.
std::string drain_chrome_json();
/// drain_chrome_json() to a file; false (with intact buffers) on I/O error.
bool write_chrome_json(const std::string& path);

/// RAII span. Construction on the disabled path costs one relaxed load;
/// no state is touched until destruction finds the span active.
class ScopedSpan {
 public:
  explicit ScopedSpan(Label label) noexcept
      : label_(enabled() ? label : 0), start_(label_ != 0 ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (label_ != 0) {
      record_complete(label_, start_, now_ns() - start_, keys_[0], values_[0], keys_[1],
                      values_[1]);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a key=value annotation to the span's end event. A span
  /// holds two keys; a key it already holds gets the new value, and a
  /// third key is dropped.
  void arg(Label key, std::int64_t value) noexcept {
    if (label_ == 0) return;
    for (int i = 0; i < 2; ++i) {
      if (keys_[i] == 0 || keys_[i] == key) {
        keys_[i] = key;
        values_[i] = value;
        return;
      }
    }
  }

 private:
  Label label_;
  std::int64_t start_;
  Label keys_[2] = {0, 0};
  std::int64_t values_[2] = {0, 0};
};

}  // namespace pcss::obs::trace
