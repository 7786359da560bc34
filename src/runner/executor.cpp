#include "pcss/runner/executor.h"

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>

#include "pcss/core/attack_engine.h"
#include "pcss/core/defense_grid.h"
#include "pcss/core/worker_pool.h"
#include "pcss/obs/metrics.h"
#include "pcss/obs/trace.h"
#include "pcss/runner/hash.h"
#include "pcss/runner/lease.h"
#include "pcss/runner/perf.h"
#include "pcss/tensor/pool.h"
#include "pcss/tensor/simd.h"

namespace pcss::runner {

using pcss::core::AttackConfig;
using pcss::core::AttackEngine;
using pcss::core::AttackResult;
using pcss::core::BestAvgWorst;
using pcss::core::CaseRecord;
using pcss::core::ExecPolicy;
using pcss::core::SegMetrics;
using pcss::core::SharedDeltaResult;

namespace obs = pcss::obs;

namespace {

/// Upper edges (ms) for the shard wall-time histogram: a shard runs a
/// whole attack batch, so the buckets stretch well past the sub-second
/// latency defaults.
const std::vector<double>& shard_ms_buckets() {
  static const std::vector<double> buckets{1.0,    5.0,     10.0,    25.0,   50.0,
                                           100.0,  250.0,   500.0,   1000.0, 2500.0,
                                           5000.0, 10000.0, 30000.0, 60000.0};
  return buckets;
}

/// Telemetry plumbing for the shard loops: the runner.shard span, registry
/// metrics and the RunOptions::on_progress callback. Observation only — it
/// reads loop state and copies of counters; nothing here can reach
/// document bytes. Runs on the executor thread only.
class ShardTelemetry {
 public:
  ShardTelemetry(const RunOptions& options, const WallTimer& timer, int planned_total)
      : options_(options), timer_(timer), planned_total_(planned_total) {}

  /// Call after every shard (cached or computed), with the time span of
  /// its work on the obs::trace clock — for a computed shard, from its
  /// first cloud's start to its last cloud's end — and the running
  /// outcome counters. Computed shards may overlap one another: their
  /// clouds run on the worker pool, while the span is recorded here, on
  /// the executor thread, so worker threads keep strictly nested spans.
  void finish_shard(bool from_cache, std::int64_t start_ns, std::int64_t end_ns,
                    const RunOutcome& out) {
    static const obs::trace::Label kShardSpan = obs::trace::intern("runner.shard");
    static const obs::trace::Label kCacheArg = obs::trace::intern("cache_hit");
    obs::trace::record_complete(kShardSpan, start_ns, end_ns - start_ns, kCacheArg,
                                from_cache ? 1 : 0);
    if (from_cache) {
      cached_.add(1);
    } else {
      computed_.add(1);
      shard_ms_.observe(static_cast<double>(end_ns - start_ns) / 1e6);
      live_start_ns_ = live_count_ == 0 ? start_ns : std::min(live_start_ns_, start_ns);
      ++live_count_;
    }
    ++done_;
    if (!options_.on_progress) return;
    ShardProgress progress;
    progress.shards_done = done_;
    progress.shards_total = planned_total_;
    progress.shards_from_cache = out.shards_from_cache;
    progress.attack_steps = out.attack_steps;
    progress.wall_seconds = timer_.seconds();
    const int remaining = planned_total_ > done_ ? planned_total_ - done_ : 0;
    if (live_count_ > 0) {
      progress.eta_seconds = shard_eta_seconds(
          static_cast<double>(obs::trace::now_ns() - live_start_ns_) / 1e9, live_count_,
          remaining);
    }
    options_.on_progress(progress);
  }

 private:
  const RunOptions& options_;
  const WallTimer& timer_;
  int planned_total_;
  int done_ = 0;
  int live_count_ = 0;
  std::int64_t live_start_ns_ = 0;  ///< earliest start of a finished live shard
  obs::metrics::Counter& computed_ = obs::metrics::counter("runner.shards.computed");
  obs::metrics::Counter& cached_ = obs::metrics::counter("runner.shards.cached");
  obs::metrics::Histogram& shard_ms_ =
      obs::metrics::histogram("runner.shard_ms", shard_ms_buckets());
};

VariantKind variant_kind_from_string(const std::string& kind) {
  if (kind == "per_cloud") return VariantKind::kPerCloud;
  if (kind == "noise_baseline") return VariantKind::kNoiseBaseline;
  if (kind == "shared_delta") return VariantKind::kSharedDelta;
  throw std::runtime_error("RunDocument: unknown variant kind '" + kind + "'");
}

Json record_to_json(const CaseRecord& record) {
  Json j = Json::object();
  j.set("distance", record.distance);
  j.set("accuracy", record.accuracy);
  j.set("aiou", record.aiou);
  return j;
}

CaseRecord record_from_json(const Json& j) {
  return {j.at("distance").number(), j.at("accuracy").number(), j.at("aiou").number()};
}

Json row_to_json(const CaseRow& row) {
  Json j = record_to_json(row.record);
  j.set("l2_color", row.l2_color);
  j.set("steps", row.steps);
  return j;
}

CaseRow row_from_json(const Json& j) {
  CaseRow row;
  row.record = record_from_json(j);
  row.l2_color = j.at("l2_color").number();
  row.steps = static_cast<long long>(j.at("steps").number());
  return row;
}

Json doubles_to_json(const std::vector<double>& values) {
  Json arr = Json::array();
  for (double v : values) arr.push(v);
  return arr;
}

std::vector<double> doubles_from_json(const Json& arr) {
  std::vector<double> out;
  out.reserve(arr.size());
  for (const Json& v : arr.items()) out.push_back(v.number());
  return out;
}

/// Everything one shard computes, in storable form. Per-cloud kinds fill
/// `rows`; the shared-delta kind fills the remaining fields.
struct ShardData {
  std::vector<CaseRow> rows;
  std::vector<double> accuracy_before, accuracy_after;
  double delta_l2 = 0.0;
  int steps_used = 0;
};

Json shard_to_json(const ShardData& shard, VariantKind kind) {
  Json j = Json::object();
  if (kind == VariantKind::kSharedDelta) {
    j.set("accuracy_before", doubles_to_json(shard.accuracy_before));
    j.set("accuracy_after", doubles_to_json(shard.accuracy_after));
    j.set("delta_l2", shard.delta_l2);
    j.set("steps_used", shard.steps_used);
  } else {
    Json cases = Json::array();
    for (const CaseRow& row : shard.rows) cases.push(row_to_json(row));
    j.set("cases", std::move(cases));
  }
  return j;
}

ShardData shard_from_json(const Json& j, VariantKind kind) {
  ShardData shard;
  if (kind == VariantKind::kSharedDelta) {
    shard.accuracy_before = doubles_from_json(j.at("accuracy_before"));
    shard.accuracy_after = doubles_from_json(j.at("accuracy_after"));
    shard.delta_l2 = j.at("delta_l2").number();
    shard.steps_used = static_cast<int>(j.at("steps_used").number());
  } else {
    for (const Json& row : j.at("cases").items()) shard.rows.push_back(row_from_json(row));
  }
  return shard;
}

/// Store keys of the two shard families. The multi-process contract is
/// "same key = same bytes", so each key is built in exactly one place.
std::string table_shard_key(const std::string& key, std::size_t mi, std::size_t vi,
                            std::size_t offset, std::size_t count) {
  return "shards/" + key + "-m" + std::to_string(mi) + "-v" + std::to_string(vi) + "-o" +
         std::to_string(offset) + "-n" + std::to_string(count) + ".json";
}

std::string grid_shard_key(const std::string& key, std::size_t offset, std::size_t count) {
  return "shards/" + key + "-grid-o" + std::to_string(offset) + "-n" +
         std::to_string(count) + ".json";
}

/// One attacked cloud's document row.
CaseRow attack_row(const SegmentationModel& model, const AttackConfig& config, bool use_l0,
                   const PointCloud& cloud, const AttackResult& result) {
  const SegMetrics m =
      pcss::core::evaluate_segmentation(result.predictions, cloud.labels, model.num_classes());
  CaseRow row;
  row.record = {pcss::core::case_distance(config, use_l0, result), m.accuracy, m.aiou};
  row.l2_color = result.l2_color;
  row.steps = result.steps_used;
  return row;
}

/// One noise-baseline row: cloud g perturbed by random noise at the
/// calibration variant's L2 for the same cloud.
CaseRow noise_row(SegmentationModel& model, const AttackVariant& variant,
                  const AttackConfig& config, bool use_l0, const PointCloud& cloud,
                  std::size_t g, double calibration_l2) {
  const AttackResult noise = pcss::core::random_noise_baseline(
      model, cloud, calibration_l2, variant.noise_seed_base + g);
  const SegMetrics m =
      pcss::core::evaluate_segmentation(noise.predictions, cloud.labels, model.num_classes());
  CaseRow row;
  // Same distance selection as the attack rows (the noise perturbs
  // the color field), so an L0 spec never mixes metrics in a column.
  row.record = {pcss::core::case_distance(config, use_l0, noise), m.accuracy, m.aiou};
  row.l2_color = noise.l2_color;
  row.steps = 0;
  return row;
}

// ---------------------------------------------------------------------------
// Defense-grid shards
// ---------------------------------------------------------------------------

/// A grid shard's stored payload: per-attack traces and per-cell case
/// rows for the shard's clouds, in the spec's enumeration order (which
/// the cache key pins, so order is identity). Labels are not stored.
Json grid_shard_to_json(const pcss::core::DefenseGridResult& shard) {
  Json j = Json::object();
  Json attacks = Json::array();
  for (const auto& trace : shard.attacks) {
    Json a = Json::object();
    a.set("l2_color", doubles_to_json(trace.l2_color));
    Json steps = Json::array();
    for (long long s : trace.steps) steps.push(s);
    a.set("steps", std::move(steps));
    attacks.push(std::move(a));
  }
  j.set("attacks", std::move(attacks));
  Json cells = Json::array();
  for (const auto& cell : shard.cells) {
    Json cases = Json::array();
    for (const pcss::core::GridCase& row : cell.cases) {
      Json c = Json::object();
      c.set("accuracy", row.accuracy);
      c.set("aiou", row.aiou);
      c.set("points_kept", static_cast<long long>(row.points_kept));
      cases.push(std::move(c));
    }
    cells.push(std::move(cases));
  }
  j.set("cells", std::move(cells));
  return j;
}

pcss::core::DefenseGridResult grid_shard_from_json(const Json& j, std::size_t attack_count,
                                                   std::size_t cell_count) {
  pcss::core::DefenseGridResult shard;
  const Json& attacks = j.at("attacks");
  const Json& cells = j.at("cells");
  // A shard written for a different spec shape is unusable; failing here
  // sends the caller down the recompute path.
  if (attacks.size() != attack_count || cells.size() != cell_count) {
    throw std::runtime_error("grid shard: column count mismatch");
  }
  for (const Json& a : attacks.items()) {
    pcss::core::GridAttackTrace trace;
    trace.l2_color = doubles_from_json(a.at("l2_color"));
    for (const Json& s : a.at("steps").items()) {
      trace.steps.push_back(static_cast<long long>(s.number()));
    }
    shard.attacks.push_back(std::move(trace));
  }
  for (const Json& cell : cells.items()) {
    pcss::core::GridCell rows;
    for (const Json& c : cell.items()) {
      rows.cases.push_back({c.at("accuracy").number(), c.at("aiou").number(),
                            static_cast<std::int64_t>(c.at("points_kept").number())});
    }
    shard.cells.push_back(std::move(rows));
  }
  return shard;
}

/// Attack steps a grid shard executed.
long long grid_steps(const pcss::core::DefenseGridResult& shard) {
  long long steps = 0;
  for (const auto& trace : shard.attacks) {
    for (long long s : trace.steps) steps += s;
  }
  return steps;
}

ShardData compute_shared_shard(SegmentationModel& model, const AttackConfig& config,
                               std::span<const PointCloud> clouds,
                               const ExecPolicy& policy) {
  AttackEngine engine(model, config);
  const SharedDeltaResult result = engine.run_shared(clouds, policy);
  ShardData shard;
  shard.accuracy_before = result.accuracy_before;
  shard.accuracy_after = result.accuracy_after;
  shard.steps_used = result.steps_used;
  double sum_sq = 0.0;
  for (float d : result.color_delta) sum_sq += static_cast<double>(d) * d;
  shard.delta_l2 = std::sqrt(sum_sq);
  return shard;
}

/// Everything a defense-grid shard computation needs beyond the clouds:
/// materialized models and the attack/defense/victim enumerations, in
/// the spec's order (which the cache key pins, so order is identity).
struct GridSetup {
  std::shared_ptr<SegmentationModel> source;
  std::vector<std::shared_ptr<SegmentationModel>> victim_models;  ///< keeps victims alive
  std::vector<pcss::core::GridVictim> victims;
  std::vector<pcss::core::GridAttack> attacks;
  std::vector<pcss::core::GridDefense> defenses;

  std::size_t cell_count() const {
    return attacks.size() * defenses.size() * victims.size();
  }
};

/// Validates a kDefenseGrid spec and materializes its grid.
GridSetup make_grid_setup(const ExperimentSpec& spec, ModelProvider& provider,
                          const RunOptions& options) {
  if (spec.models.size() != 1) {
    throw std::invalid_argument("run_spec: defense-grid spec '" + spec.name +
                                "' needs exactly one source model");
  }
  if (spec.victims.empty() || spec.defenses.empty()) {
    throw std::invalid_argument("run_spec: defense-grid spec '" + spec.name +
                                "' needs victims and defenses");
  }
  for (const AttackVariant& variant : spec.variants) {
    if (variant.kind != VariantKind::kPerCloud) {
      throw std::invalid_argument("run_spec: defense-grid spec '" + spec.name +
                                  "' supports per_cloud attack variants only");
    }
  }
  GridSetup setup;
  setup.source = provider.model(spec.models[0]);
  for (ModelId id : spec.victims) {
    setup.victim_models.push_back(provider.model(id));
    setup.victims.push_back({to_string(id), setup.victim_models.back().get()});
  }
  if (spec.grid_include_clean) setup.attacks.push_back({"clean", true, {}});
  for (const AttackVariant& variant : spec.variants) {
    setup.attacks.push_back({variant.label, false, scaled_config(variant, options.scale)});
  }
  for (const DefensePipelineSpec& defense : spec.defenses) {
    setup.defenses.push_back({defense.label, build_pipeline(defense)});
  }
  return setup;
}

/// Planned shard count for the whole run, computed up front so progress
/// lines can show "done/total" and an ETA before the loops start.
int planned_shard_count(const ExperimentSpec& spec, std::size_t cloud_count,
                        int shard_size) {
  const int per_variant = static_cast<int>(
      (cloud_count + static_cast<std::size_t>(shard_size) - 1) /
      static_cast<std::size_t>(shard_size));
  if (spec.kind == SpecKind::kDefenseGrid) return per_variant;
  int per_model = 0;
  for (const AttackVariant& variant : spec.variants) {
    per_model += variant.kind == VariantKind::kSharedDelta ? 1 : per_variant;
  }
  return per_model * static_cast<int>(spec.models.size());
}

// ---------------------------------------------------------------------------
// The shard executor: one worker pool, claims through a gate
// ---------------------------------------------------------------------------

/// Decides which live shards an executor computes, and when. The executor
/// asks claim() before it queues a live shard's jobs and calls stored()
/// once it has stored the shard. This base class is run_spec's gate: it
/// claims everything, so every live shard is queued at the start (a noise
/// shard once its calibration shard is done). run_spec_worker's LeaseGate
/// claims shards by lease, on demand.
class ShardGate {
 public:
  enum class Claim {
    kCompute,  ///< queue the shard's jobs now
    kStored,   ///< another process stored it meanwhile: replay it
    kLater,    ///< not now; the next scan asks again
  };

  ShardGate() = default;
  ShardGate(const ShardGate&) = delete;
  ShardGate& operator=(const ShardGate&) = delete;
  virtual ~ShardGate() = default;

  /// Whether this executor runs the clean-accuracy jobs and assembles the
  /// document (a worker leaves both to the merge pass).
  virtual bool assembles() const { return true; }

  /// The shard index, out of `shards`, at which every scan starts.
  virtual std::size_t origin(std::size_t /*shards*/) const { return 0; }

  /// Asked before live shard `key` is queued; `unfinished_jobs` are the
  /// claimed jobs still queued or running.
  virtual Claim claim(const std::string& /*key*/, std::size_t /*unfinished_jobs*/) {
    return Claim::kCompute;
  }

  /// Told after shard `key` is stored.
  virtual void stored(const std::string& /*key*/) {}

  /// Called when no job is in flight but some live shard is unclaimed;
  /// returns when another scan may claim it. run_spec claims everything it
  /// can queue, so reaching this is a scheduling bug there.
  virtual void wait() { throw std::logic_error("run_spec: a live shard was never queued"); }
};

/// A finished job, handed from a worker to the executor thread.
struct JobDone {
  std::size_t shard = 0;
  std::int64_t start_ns = 0, end_ns = 0;  ///< obs::trace clock
  std::exception_ptr error;
};

/// Worker -> executor hand-off of finished jobs, first in first out.
class JobDoneQueue {
 public:
  void push(JobDone done) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(done));
    }
    cv_.notify_one();
  }
  JobDone pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !queue_.empty(); });
    JobDone done = std::move(queue_.front());
    queue_.pop_front();
    return done;
  }

 private:
  // GUARDS: queue_ (finished jobs not yet collected by the executor)
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<JobDone> queue_;
};

/// The executor side of run_spec and run_spec_worker, shared by every spec
/// kind. Shards are the cache, claim, progress and cancel unit; jobs on the
/// call's one WorkerPool are the scheduling unit. A job writes its result
/// by index into its shard, which was sized before the job was queued.
/// This thread replays stored shards, offers live ones to the gate, queues
/// the claimed ones, collects finished jobs, and stores each shard as soon
/// as its last job lands, then reports progress and polls cancel.
///
/// Declare it after everything its jobs reference: a cancel or a failed
/// job unwinds through its destructor, which drops queued jobs and waits
/// for running ones while what they use is still alive.
class ShardJobs {
 public:
  /// Tag for a job that belongs to no shard (a clean-accuracy pass).
  static constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

  /// `keys[si]` is shard si's store key; `parse(si, json)` fills shard si
  /// from its stored bytes and throws when they are unreadable.
  ShardJobs(const std::string& spec_name, ResultStore& store, const RunOptions& options,
            ShardGate& gate, ShardTelemetry& telemetry, RunOutcome& out,
            std::vector<std::string> keys, std::function<void(std::size_t, const Json&)> parse)
      : spec_name_(spec_name),
        store_(store),
        options_(options),
        gate_(gate),
        telemetry_(telemetry),
        out_(out),
        keys_(std::move(keys)),
        parse_(std::move(parse)),
        done_(keys_.size(), 0),
        clocks_(keys_.size()) {}

  bool done(std::size_t si) const { return done_[si] != 0; }

  void poll_cancel() const {
    if (options_.cancel && options_.cancel()) throw RunCancelled(spec_name_);
  }

  /// Replays every shard the store holds, unless RunOptions::force.
  void replay_all() {
    poll_cancel();
    if (options_.force) return;
    for (std::size_t si = 0; si < keys_.size(); ++si) replay(si);
  }

  /// Asks the gate for live shard si; true when this executor computes it
  /// now. A shard another process stored meanwhile is replayed instead
  /// (and computed after all when its bytes do not parse).
  bool claim(std::size_t si) {
    switch (gate_.claim(keys_[si], in_flight_)) {
      case ShardGate::Claim::kCompute:
        return true;
      case ShardGate::Claim::kStored:
        return !replay(si);
      case ShardGate::Claim::kLater:
        break;
    }
    return false;
  }

  /// Stores computed shard si and counts its attack steps; [start_ns,
  /// end_ns] is its work, from its first job's start to its last job's end.
  void finish(std::size_t si, const std::string& bytes, long long steps,
              std::int64_t start_ns, std::int64_t end_ns) {
    store_.put(keys_[si], bytes);
    done_[si] = 1;
    out_.attack_steps += steps;
    gate_.stored(keys_[si]);
    telemetry_.finish_shard(/*from_cache=*/false, start_ns, end_ns, out_);
    poll_cancel();
  }

  /// Starts the pool for at most `jobs` jobs: RunOptions::num_threads
  /// workers, never more than there are jobs.
  void start(std::size_t jobs) {
    pool_.emplace(static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(pcss::core::resolve_threads(options_.num_threads)), jobs)));
  }

  /// Queues `work` as one job of shard `shard` (or kNoShard).
  void submit(std::size_t shard, std::function<void()> work) {
    if (shard != kNoShard) ++clocks_[shard].pending;
    ++in_flight_;
    pool_->submit([this, shard, work = std::move(work)] {
      JobDone done;
      done.shard = shard;
      done.start_ns = obs::trace::now_ns();
      try {
        work();
      } catch (...) {
        done.error = std::current_exception();
      }
      done.end_ns = obs::trace::now_ns();
      finished_.push(std::move(done));
    });
  }

  /// Runs every shard not yet done and rethrows the first failed job. A
  /// scan walks the unclaimed shards from the gate's origin and queues,
  /// through `queue(si)`, each one that is ready (`ready(si)`: the shards
  /// it reads are done) and that the gate claims. Scans run at the start,
  /// after every collected job and after every gate wait. When a shard's
  /// last job lands, the scan runs before `on_shard_done(si, start_ns,
  /// end_ns)` stores the shard, so its dependents are queued first.
  void run(const std::function<bool(std::size_t)>& ready,
           const std::function<void(std::size_t)>& queue,
           const std::function<void(std::size_t, std::int64_t, std::int64_t)>& on_shard_done) {
    std::vector<std::size_t> unclaimed;
    const std::size_t origin = gate_.origin(keys_.size());
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      const std::size_t si = (origin + i) % keys_.size();
      if (!done(si)) unclaimed.push_back(si);
    }
    const auto scan = [&] {
      // A replayed shard may make others ready, so scan again after one.
      for (bool replayed = true; replayed;) {
        replayed = false;
        for (auto it = unclaimed.begin(); it != unclaimed.end();) {
          if (!ready(*it)) {
            ++it;
          } else if (claim(*it)) {
            queue(*it);
            it = unclaimed.erase(it);
          } else if (done(*it)) {
            replayed = true;
            it = unclaimed.erase(it);
          } else {
            ++it;
          }
        }
      }
    };
    // Telemetry only: the executor's blocked time, so a trace tells it
    // apart from the executor's own work (pcss_trace does not count it busy).
    static const obs::trace::Label kWaitSpan = obs::trace::intern("runner.wait");
    scan();
    while (in_flight_ > 0 || !unclaimed.empty()) {
      if (in_flight_ == 0) {
        gate_.wait();
        poll_cancel();
        scan();
        continue;
      }
      JobDone done = [&] {
        const obs::trace::ScopedSpan wait(kWaitSpan);
        return finished_.pop();
      }();
      --in_flight_;
      if (done.error) std::rethrow_exception(done.error);
      bool shard_done = false;
      if (done.shard != kNoShard) {
        Clock& clock = clocks_[done.shard];
        clock.start_ns = std::min(clock.start_ns, done.start_ns);
        clock.end_ns = std::max(clock.end_ns, done.end_ns);
        shard_done = --clock.pending == 0;
        if (shard_done) done_[done.shard] = 1;
      }
      scan();
      if (shard_done) {
        on_shard_done(done.shard, clocks_[done.shard].start_ns, clocks_[done.shard].end_ns);
      }
    }
  }

 private:
  struct Clock {
    std::size_t pending = 0;  ///< jobs queued or running
    std::int64_t start_ns = std::numeric_limits<std::int64_t>::max();
    std::int64_t end_ns = 0;
  };

  /// Replays shard si from the store; returns whether it did.
  bool replay(std::size_t si) {
    const std::int64_t start_ns = obs::trace::now_ns();
    const auto cached = store_.get(keys_[si]);
    if (!cached) return false;
    try {
      parse_(si, Json::parse(*cached));
    } catch (const std::exception&) {
      return false;
    }
    done_[si] = 1;
    ++out_.shards_from_cache;
    telemetry_.finish_shard(/*from_cache=*/true, start_ns, obs::trace::now_ns(), out_);
    poll_cancel();
    return true;
  }

  const std::string& spec_name_;
  ResultStore& store_;
  const RunOptions& options_;
  ShardGate& gate_;
  ShardTelemetry& telemetry_;
  RunOutcome& out_;
  std::vector<std::string> keys_;
  std::function<void(std::size_t, const Json&)> parse_;
  std::vector<char> done_;     ///< per shard: stored, replayed or its jobs all landed
  std::vector<Clock> clocks_;  ///< per shard
  std::size_t in_flight_ = 0;  ///< jobs queued or running
  JobDoneQueue finished_;
  std::optional<pcss::core::WorkerPool> pool_;  ///< last: destroyed first
};

/// Executes (or replays) a kDefenseGrid spec into `doc`/`out`. One
/// (attack column, cloud) pair is one job on the call's pool:
/// core::DefenseGrid::run_job attacks cloud g on stream seed + g, applies
/// every defense with defense_cell_seed at global g and lets every victim
/// predict, so documents and shard files are invariant under any
/// partitioning, thread count and completion order.
void execute_defense_grid(const ExperimentSpec& spec, ModelProvider& provider,
                          ResultStore& store, const RunOptions& options,
                          const std::string& key, std::span<const PointCloud> clouds,
                          int shard_size, ShardGate& gate, RunDocument& doc, RunOutcome& out,
                          ShardTelemetry& telemetry) {
  const GridSetup setup = make_grid_setup(spec, provider, options);
  const pcss::core::DefenseGrid grid(*setup.source, setup.victims, setup.attacks,
                                     setup.defenses, spec.defense_seed);

  struct GridShard {
    std::size_t offset = 0, count = 0;
    pcss::core::DefenseGridResult data;
  };
  std::vector<GridShard> shards;
  std::vector<std::string> keys;
  for (std::size_t offset = 0; offset < clouds.size();
       offset += static_cast<std::size_t>(shard_size)) {
    const std::size_t count =
        std::min(static_cast<std::size_t>(shard_size), clouds.size() - offset);
    shards.push_back({offset, count, {}});
    keys.push_back(grid_shard_key(key, offset, count));
  }
  out.shards_total = static_cast<int>(shards.size());

  ShardJobs jobs(spec.name, store, options, gate, telemetry, out, std::move(keys),
                 [&](std::size_t si, const Json& j) {
                   shards[si].data =
                       grid_shard_from_json(j, setup.attacks.size(), setup.cell_count());
                 });
  jobs.replay_all();
  std::size_t live_jobs = 0;
  for (std::size_t si = 0; si < shards.size(); ++si) {
    if (!jobs.done(si)) live_jobs += grid.attack_count() * shards[si].count;
  }
  jobs.start(live_jobs);
  jobs.run([](std::size_t) { return true; },
           [&](std::size_t si) {
             shards[si].data = grid.blank_result(shards[si].count);
             for (std::size_t ai = 0; ai < grid.attack_count(); ++ai) {
               for (std::size_t i = 0; i < shards[si].count; ++i) {
                 jobs.submit(si, [&, si, ai, i] {
                   GridShard& shard = shards[si];
                   const std::size_t g = shard.offset + i;
                   grid.run_job(ai, clouds[g], g, options.plan, shard.data, i);
                 });
               }
             }
           },
           [&](std::size_t si, std::int64_t start_ns, std::int64_t end_ns) {
             const GridShard& shard = shards[si];
             jobs.finish(si, grid_shard_to_json(shard.data).dump() + "\n",
                         grid_steps(shard.data), start_ns, end_ns);
           });
  if (!gate.assembles()) return;

  doc.source_model = to_string(spec.models[0]);
  doc.defense_seed = spec.defense_seed;
  const pcss::core::DefenseGridResult labels = grid.blank_result(0);
  for (const pcss::core::GridAttackTrace& trace : labels.attacks) {
    doc.grid_attacks.emplace_back().label = trace.label;
  }
  for (const pcss::core::GridCell& cell : labels.cells) {
    GridCellResult& result = doc.grid.emplace_back();
    result.attack = cell.attack;
    result.defense = cell.defense;
    result.victim = cell.victim;
  }
  for (const GridShard& shard : shards) {
    for (std::size_t ai = 0; ai < shard.data.attacks.size(); ++ai) {
      const pcss::core::GridAttackTrace& trace = shard.data.attacks[ai];
      doc.grid_attacks[ai].l2_color.insert(doc.grid_attacks[ai].l2_color.end(),
                                           trace.l2_color.begin(), trace.l2_color.end());
      doc.grid_attacks[ai].steps.insert(doc.grid_attacks[ai].steps.end(),
                                        trace.steps.begin(), trace.steps.end());
    }
    for (std::size_t ci = 0; ci < shard.data.cells.size(); ++ci) {
      for (const pcss::core::GridCase& c : shard.data.cells[ci].cases) {
        doc.grid[ci].cases.push_back(
            {c.accuracy, c.aiou, static_cast<long long>(c.points_kept)});
      }
    }
  }

  for (GridAttackResult& trace : doc.grid_attacks) {
    for (double l2 : trace.l2_color) trace.mean_l2_color += l2;
    if (!trace.l2_color.empty()) {
      trace.mean_l2_color /= static_cast<double>(trace.l2_color.size());
    }
    for (long long s : trace.steps) trace.total_steps += s;
  }
  for (GridCellResult& cell : doc.grid) {
    for (const GridCaseRow& row : cell.cases) {
      cell.mean_accuracy += row.accuracy;
      cell.mean_aiou += row.aiou;
      cell.mean_points_kept += static_cast<double>(row.points_kept);
    }
    if (!cell.cases.empty()) {
      const auto n = static_cast<double>(cell.cases.size());
      cell.mean_accuracy /= n;
      cell.mean_aiou /= n;
      cell.mean_points_kept /= n;
    }
  }
}

// ---------------------------------------------------------------------------
// Attack-table execution
// ---------------------------------------------------------------------------

/// One cache unit of an attack-table spec: the clouds [offset,
/// offset+count) of one (model, variant), or a whole shared-delta variant.
struct TableShard {
  std::size_t mi = 0, vi = 0, offset = 0, count = 0;
  ShardData data;
};

/// Index of the variant a noise baseline calibrates from: the first earlier
/// per-cloud or noise variant with that label.
std::size_t calibration_source(const ExperimentSpec& spec, std::size_t vi) {
  const AttackVariant& variant = spec.variants[vi];
  for (std::size_t i = 0; i < vi; ++i) {
    if (spec.variants[i].kind != VariantKind::kSharedDelta &&
        spec.variants[i].label == variant.calibrate_from) {
      return i;
    }
  }
  throw std::invalid_argument("run_spec: variant '" + variant.label + "' calibrates from '" +
                              variant.calibrate_from +
                              "', which is not an earlier variant of spec '" + spec.name +
                              "'");
}

/// Executes (or replays) a kAttackTable spec into `doc`/`out`.
///
/// Every claimed uncached cloud of every (model, variant) is one job on the
/// call's pool, calling AttackEngine::run(cloud, seed + g) — the RNG stream
/// run_batch would give it — so the pool never waits at a shard barrier.
/// Each model's clean accuracy is one more job, so this thread never
/// predicts. A noise shard's clouds are queued once its calibration shard
/// is done; a shared-delta variant stays one indivisible unit, run before
/// the queue starts (or, when a worker claims it later, as one job). Rows
/// land by index, so documents and shard files are byte-identical for any
/// thread count, shard size, completion order and worker count.
void execute_attack_table(const ExperimentSpec& spec, ModelProvider& provider,
                          ResultStore& store, const RunOptions& options,
                          const std::string& key, const std::vector<PointCloud>& clouds,
                          int shard_size, ShardGate& gate, RunDocument& doc, RunOutcome& out,
                          ShardTelemetry& telemetry) {
  const std::size_t variant_count = spec.variants.size();
  std::vector<std::shared_ptr<SegmentationModel>> models;
  for (ModelId id : spec.models) models.push_back(provider.model(id));
  std::vector<AttackConfig> configs;
  std::vector<std::size_t> calibration(variant_count, 0);
  for (std::size_t vi = 0; vi < variant_count; ++vi) {
    configs.push_back(scaled_config(spec.variants[vi], options.scale));
    if (spec.variants[vi].kind == VariantKind::kNoiseBaseline) {
      calibration[vi] = calibration_source(spec, vi);
    }
  }

  // The shard plan, model-major then variant then offset. first_shard
  // indexes a (model, variant)'s first shard; its partition is the same
  // for every per-cloud variant, so a noise shard reads exactly one
  // calibration shard: the same window of its source variant.
  std::vector<TableShard> shards;
  std::vector<std::string> keys;
  std::vector<std::size_t> first_shard(spec.models.size() * variant_count, 0);
  for (std::size_t mi = 0; mi < spec.models.size(); ++mi) {
    for (std::size_t vi = 0; vi < variant_count; ++vi) {
      first_shard[mi * variant_count + vi] = shards.size();
      const std::size_t stride = spec.variants[vi].kind == VariantKind::kSharedDelta
                                     ? clouds.size()
                                     : static_cast<std::size_t>(shard_size);
      for (std::size_t offset = 0; offset < clouds.size(); offset += stride) {
        const std::size_t count = std::min(stride, clouds.size() - offset);
        shards.push_back({mi, vi, offset, count, {}});
        keys.push_back(table_shard_key(key, mi, vi, offset, count));
      }
    }
  }
  out.shards_total = static_cast<int>(shards.size());
  const auto kind = [&](std::size_t si) { return spec.variants[shards[si].vi].kind; };
  const auto calibration_shard = [&](std::size_t si) {
    const TableShard& shard = shards[si];
    return first_shard[shard.mi * variant_count + calibration[shard.vi]] +
           shard.offset / static_cast<std::size_t>(shard_size);
  };

  // One engine per (model, per-cloud variant), built on first use and
  // shared by that variant's jobs (AttackEngine::run is const).
  std::vector<std::unique_ptr<AttackEngine>> engines(first_shard.size());
  const ExecPolicy job_policy{1, options.plan, {}};
  doc.models.resize(spec.models.size());  // before any job writes a section

  ShardJobs jobs(spec.name, store, options, gate, telemetry, out, std::move(keys),
                 [&](std::size_t si, const Json& j) {
                   shards[si].data = shard_from_json(j, kind(si));
                 });
  const auto finish = [&](std::size_t si, std::int64_t start_ns, std::int64_t end_ns) {
    const TableShard& shard = shards[si];
    long long steps = 0;
    if (kind(si) == VariantKind::kSharedDelta) {
      steps = static_cast<long long>(shard.data.steps_used) *
              static_cast<long long>(shard.count);
    } else {
      for (const CaseRow& row : shard.data.rows) steps += row.steps;
    }
    jobs.finish(si, shard_to_json(shard.data, kind(si)).dump() + "\n", steps, start_ns,
                end_ns);
  };
  const auto compute_shared = [&](std::size_t si) {
    shards[si].data = compute_shared_shard(*models[shards[si].mi], configs[shards[si].vi],
                                           clouds, {options.num_threads, options.plan, {}});
  };

  jobs.replay_all();

  // Every claimed shared-delta variant runs while the queue is still idle,
  // on run_shared's own per-round pool.
  for (std::size_t si = 0; si < shards.size(); ++si) {
    if (jobs.done(si) || kind(si) != VariantKind::kSharedDelta || !jobs.claim(si)) continue;
    const std::int64_t start_ns = obs::trace::now_ns();
    compute_shared(si);
    finish(si, start_ns, obs::trace::now_ns());
  }

  std::size_t live_jobs = gate.assembles() ? spec.models.size() : 0;  // clean accuracy
  for (std::size_t si = 0; si < shards.size(); ++si) {
    if (!jobs.done(si)) live_jobs += shards[si].count;
  }
  jobs.start(live_jobs);
  if (gate.assembles()) {
    for (std::size_t mi = 0; mi < spec.models.size(); ++mi) {
      doc.models[mi].model = to_string(spec.models[mi]);
      jobs.submit(ShardJobs::kNoShard, [&, mi] {
        const SegMetrics clean = pcss::core::clean_metrics(*models[mi], clouds);
        doc.models[mi].clean_accuracy = clean.accuracy;
        doc.models[mi].clean_aiou = clean.aiou;
      });
    }
  }

  const auto queue_shard = [&](std::size_t si) {
    TableShard& shard = shards[si];
    if (kind(si) == VariantKind::kSharedDelta) {  // claimed by a worker after the start
      jobs.submit(si, [&compute_shared, si] { compute_shared(si); });
      return;
    }
    const AttackEngine* engine = nullptr;
    const TableShard* source = nullptr;
    if (kind(si) == VariantKind::kPerCloud) {
      auto& slot = engines[shard.mi * variant_count + shard.vi];
      if (!slot) slot = std::make_unique<AttackEngine>(*models[shard.mi], configs[shard.vi]);
      engine = slot.get();
    } else {
      source = &shards[calibration_shard(si)];
    }
    shard.data.rows.resize(shard.count);
    for (std::size_t i = 0; i < shard.count; ++i) {
      jobs.submit(si, [&, si, i, engine, source] {
        TableShard& job = shards[si];
        const std::size_t g = job.offset + i;
        SegmentationModel& model = *models[job.mi];
        const AttackConfig& config = configs[job.vi];
        job.data.rows[i] =
            engine != nullptr
                ? attack_row(model, config, spec.use_l0_distance, clouds[g],
                             engine->run(clouds[g], config.seed + g, job_policy))
                : noise_row(model, spec.variants[job.vi], config, spec.use_l0_distance,
                            clouds[g], g, source->data.rows[i].l2_color);
      });
    }
  };
  jobs.run(
      [&](std::size_t si) {
        return kind(si) != VariantKind::kNoiseBaseline || jobs.done(calibration_shard(si));
      },
      queue_shard, finish);
  if (!gate.assembles()) return;

  // Assemble the document in spec order.
  for (std::size_t mi = 0; mi < spec.models.size(); ++mi) {
    for (std::size_t vi = 0; vi < variant_count; ++vi) {
      VariantResult vr;
      vr.label = spec.variants[vi].label;
      vr.kind = spec.variants[vi].kind;
      for (std::size_t si = first_shard[mi * variant_count + vi];
           si < shards.size() && shards[si].mi == mi && shards[si].vi == vi; ++si) {
        ShardData& data = shards[si].data;
        if (vr.kind == VariantKind::kSharedDelta) {
          vr.accuracy_before = std::move(data.accuracy_before);
          vr.accuracy_after = std::move(data.accuracy_after);
          vr.shared_delta_l2 = data.delta_l2;
          vr.shared_steps = data.steps_used;
        } else {
          vr.cases.insert(vr.cases.end(), data.rows.begin(), data.rows.end());
        }
      }
      if (vr.kind != VariantKind::kSharedDelta) {
        std::vector<CaseRecord> records;
        records.reserve(vr.cases.size());
        for (const CaseRow& row : vr.cases) {
          records.push_back(row.record);
          vr.total_steps += row.steps;
        }
        vr.aggregate = pcss::core::aggregate_cases(records);
      }
      doc.models[mi].variants.push_back(std::move(vr));
    }
  }
}

/// What run_spec and run_spec_worker share: loads the spec's clouds, fills
/// the document header, freezes every model the spec touches for the whole
/// call and executes the spec's shard plan, with `gate` deciding which live
/// shards this process computes.
RunDocument execute_spec(const ExperimentSpec& spec, ModelProvider& provider,
                         ResultStore& store, const RunOptions& options,
                         const std::string& key, ShardGate& gate, const WallTimer& timer,
                         RunOutcome& out) {
  const int shard_size = std::max(1, options.shard_size);
  const std::vector<PointCloud> clouds =
      provider.scenes(spec.dataset, options.scale.scenes, spec.scene_seed);

  RunDocument doc;
  doc.spec = spec.name;
  doc.key = key;
  doc.kind = to_string(spec.kind);
  doc.scale = options.scale;
  doc.dataset = to_string(spec.dataset);
  doc.scene_seed = spec.scene_seed;
  doc.scene_count = static_cast<int>(clouds.size());
  doc.use_l0_distance = spec.use_l0_distance;

  ShardTelemetry telemetry(options, timer,
                           planned_shard_count(spec, clouds.size(), shard_size));

  // Every model the spec touches is frozen once for the whole call, so the
  // per-call freezes of the engine calls running concurrently on it find
  // nothing to write (ScopedParamFreeze counts guards per model).
  std::vector<std::shared_ptr<SegmentationModel>> held;
  std::deque<pcss::core::ScopedParamFreeze> frozen;
  for (const std::vector<ModelId>* ids : {&spec.models, &spec.victims}) {
    for (ModelId id : *ids) {
      held.push_back(provider.model(id));
      frozen.emplace_back(*held.back());
    }
  }

  if (spec.kind == SpecKind::kDefenseGrid) {
    execute_defense_grid(spec, provider, store, options, key,
                         std::span<const PointCloud>(clouds), shard_size, gate, doc, out,
                         telemetry);
  }

  if (spec.kind == SpecKind::kAttackTable) {
    execute_attack_table(spec, provider, store, options, key, clouds, shard_size, gate, doc,
                         out, telemetry);
  }
  return doc;
}

/// run_spec_worker's gate. It claims a shard by lease only while the pool
/// runs short of work, so that claimed but unfinished jobs stay at or above
/// the pool's thread count; it puts a shard, then releases its lease, and
/// renews every lease it still holds at each shard boundary.
class LeaseGate final : public ShardGate {
 public:
  LeaseGate(ResultStore& store, const WorkerConfig& config, const std::string& spec_name,
            WorkerOutcome& out)
      : store_(store),
        leases_(store.root() + "/leases", config.worker_id, config.lease_ttl_ns),
        // Chaos salt = (worker, spec): each worker replays its own decision
        // stream, and a two-spec run does not reuse the first spec's stream.
        chaos_(ChaosMonkey::from_env(config.worker_id + "|" + spec_name)),
        origin_hash_(Fnv64().update(config.worker_id).value()),
        threads_(static_cast<std::size_t>(pcss::core::resolve_threads(config.run.num_threads))),
        ttl_ns_(config.lease_ttl_ns),
        cancel_(config.run.cancel),
        out_(out) {}

  /// Releases what is still held when a cancel or a failure unwinds.
  ~LeaseGate() override {
    for (const auto& entry : held_) leases_.release(entry.second.lease);
  }

  bool assembles() const override { return false; }

  /// Worker-specific scan origin: all workers sweep the same plan, so a
  /// per-worker rotation spreads first claims across the plan instead of
  /// stacking every worker onto shard 0's lease.
  std::size_t origin(std::size_t shards) const override {
    return shards == 0 ? 0 : static_cast<std::size_t>(origin_hash_ % shards);
  }

  Claim claim(const std::string& key, std::size_t unfinished_jobs) override {
    if (unfinished_jobs >= threads_) return Claim::kLater;
    if (store_.contains(key)) return stored_elsewhere();
    if (leaseless_) return Claim::kCompute;
    const std::string lease = key.substr(key.find_last_of('/') + 1) + ".lease";
    const LeaseManager::Acquire acquired = leases_.try_acquire(lease);
    if (acquired == LeaseManager::Acquire::kBusy) return Claim::kLater;
    // Another worker may have put the shard and released its lease since
    // the probe above.
    if (store_.contains(key)) {
      leases_.release(lease);
      return stored_elsewhere();
    }
    held_[key] = {lease, acquired == LeaseManager::Acquire::kStolen};
    // Chaos crash point A: die holding the lease with the shard missing —
    // the worst crash a steal must recover from.
    chaos_.maybe_kill();
    return Claim::kCompute;
  }

  void stored(const std::string& key) override {
    ++out_.shards_computed;
    last_progress_ns_ = obs::trace::now_ns();
    const auto it = held_.find(key);
    if (it != held_.end()) {
      leases_.release(it->second.lease);
      if (it->second.stolen) {
        ++out_.shards_stolen;
        stolen_counter_.add(1);
      }
      held_.erase(it);
    }
    // Chaos crash point B: die at the completed-shard boundary — the
    // shard landed atomically, so a restarted run resumes past it.
    chaos_.maybe_kill();
    for (const auto& entry : held_) leases_.renew(entry.second.lease);
  }

  /// Every unclaimed shard is busy-leased elsewhere: wait for the holders'
  /// puts to surface, or for their leases to go stale (the next scan
  /// steals those). Every shard this worker claimed is stored by now, so
  /// no lease is held while waiting and nobody ever waits on a waiter.
  void wait() override {
    ++out_.passes;
    if (obs::trace::now_ns() - last_progress_ns_ > ttl_ns_ + 5LL * 1000 * 1000 * 1000) {
      // A full TTL plus margin with zero progress: stale leases should
      // have been stolen long ago, so leasing itself is broken (e.g. an
      // unwritable lease directory). Correctness never depended on the
      // leases: claim the stragglers without one, at worst duplicating
      // byte-identical work.
      leaseless_ = true;
      return;
    }
    timespec ts{0, 100L * 1000 * 1000};  // 100 ms between scans
    while (::nanosleep(&ts, &ts) == -1 && errno == EINTR) {
      if (cancel_ && cancel_()) return;
    }
  }

 private:
  struct Held {
    std::string lease;
    bool stolen = false;
  };

  Claim stored_elsewhere() {
    last_progress_ns_ = obs::trace::now_ns();
    return Claim::kStored;
  }

  ResultStore& store_;
  LeaseManager leases_;
  ChaosMonkey chaos_;
  std::uint64_t origin_hash_;
  std::size_t threads_;
  std::int64_t ttl_ns_;
  const std::function<bool()>& cancel_;
  WorkerOutcome& out_;
  std::map<std::string, Held> held_;  ///< by shard key
  bool leaseless_ = false;
  std::int64_t last_progress_ns_ = obs::trace::now_ns();
  obs::metrics::Counter& stolen_counter_ = obs::metrics::counter("runner.shards.stolen");
};

}  // namespace

double shard_eta_seconds(double live_seconds, int live_shards_done, int shards_remaining) {
  if (live_shards_done <= 0 || shards_remaining <= 0) return 0.0;
  return live_seconds / static_cast<double>(live_shards_done) *
         static_cast<double>(shards_remaining);
}

Json document_to_json(const RunDocument& doc) {
  Json j = Json::object();
  j.set("spec", doc.spec);
  j.set("key", doc.key);
  // Attack-table documents keep their pre-grid byte layout (and their
  // unchanged cache keys keep naming byte-identical documents): the
  // kind tag is only written for non-default kinds, and parsing treats
  // its absence as attack_table.
  if (doc.kind != "attack_table") j.set("kind", doc.kind);
  Json scale = Json::object();
  scale.set("scenes", doc.scale.scenes);
  scale.set("hiding_scenes", doc.scale.hiding_scenes);
  scale.set("pgd_steps", doc.scale.pgd_steps);
  scale.set("cw_steps", doc.scale.cw_steps);
  scale.set("eps_color", static_cast<double>(doc.scale.eps_color));
  scale.set("eps_coord", static_cast<double>(doc.scale.eps_coord));
  j.set("scale", std::move(scale));
  j.set("dataset", doc.dataset);
  // As a string: a 64-bit seed does not survive a round-trip through a
  // JSON double (2^53 mantissa), and the document must record the seed
  // the run actually used.
  j.set("scene_seed", std::to_string(doc.scene_seed));
  j.set("scene_count", doc.scene_count);
  j.set("l0_distance", doc.use_l0_distance);
  Json models = Json::array();
  for (const ModelSection& section : doc.models) {
    Json m = Json::object();
    m.set("model", section.model);
    m.set("clean_accuracy", section.clean_accuracy);
    m.set("clean_aiou", section.clean_aiou);
    Json variants = Json::array();
    for (const VariantResult& vr : section.variants) {
      Json v = Json::object();
      v.set("label", vr.label);
      v.set("kind", to_string(vr.kind));
      if (vr.kind == VariantKind::kSharedDelta) {
        v.set("accuracy_before", doubles_to_json(vr.accuracy_before));
        v.set("accuracy_after", doubles_to_json(vr.accuracy_after));
        v.set("delta_l2", vr.shared_delta_l2);
        v.set("steps_used", vr.shared_steps);
      } else {
        Json cases = Json::array();
        for (const CaseRow& row : vr.cases) cases.push(row_to_json(row));
        v.set("cases", std::move(cases));
        Json agg = Json::object();
        agg.set("best", record_to_json(vr.aggregate.best));
        agg.set("avg", record_to_json(vr.aggregate.avg));
        agg.set("worst", record_to_json(vr.aggregate.worst));
        v.set("aggregate", std::move(agg));
        v.set("total_steps", vr.total_steps);
      }
      variants.push(std::move(v));
    }
    m.set("variants", std::move(variants));
    models.push(std::move(m));
  }
  j.set("models", std::move(models));
  if (doc.kind == "defense_grid") {
    j.set("source_model", doc.source_model);
    j.set("defense_seed", std::to_string(doc.defense_seed));  // 64-bit: see scene_seed
    Json attacks = Json::array();
    for (const GridAttackResult& trace : doc.grid_attacks) {
      Json a = Json::object();
      a.set("label", trace.label);
      a.set("l2_color", doubles_to_json(trace.l2_color));
      Json steps = Json::array();
      for (long long s : trace.steps) steps.push(s);
      a.set("steps", std::move(steps));
      a.set("mean_l2_color", trace.mean_l2_color);
      a.set("total_steps", trace.total_steps);
      attacks.push(std::move(a));
    }
    j.set("grid_attacks", std::move(attacks));
    Json grid = Json::array();
    for (const GridCellResult& cell : doc.grid) {
      Json c = Json::object();
      c.set("attack", cell.attack);
      c.set("defense", cell.defense);
      c.set("victim", cell.victim);
      Json cases = Json::array();
      for (const GridCaseRow& row : cell.cases) {
        Json r = Json::object();
        r.set("accuracy", row.accuracy);
        r.set("aiou", row.aiou);
        r.set("points_kept", row.points_kept);
        cases.push(std::move(r));
      }
      c.set("cases", std::move(cases));
      c.set("mean_accuracy", cell.mean_accuracy);
      c.set("mean_aiou", cell.mean_aiou);
      c.set("mean_points_kept", cell.mean_points_kept);
      grid.push(std::move(c));
    }
    j.set("grid", std::move(grid));
  }
  return j;
}

RunDocument document_from_json(const Json& j) {
  RunDocument doc;
  doc.spec = j.at("spec").str();
  doc.key = j.at("key").str();
  // Documents written before the grid kind existed carry no "kind";
  // they are all attack tables.
  if (const Json* kind = j.find("kind")) doc.kind = kind->str();
  const Json& scale = j.at("scale");
  doc.scale.scenes = static_cast<int>(scale.at("scenes").number());
  doc.scale.hiding_scenes = static_cast<int>(scale.at("hiding_scenes").number());
  doc.scale.pgd_steps = static_cast<int>(scale.at("pgd_steps").number());
  doc.scale.cw_steps = static_cast<int>(scale.at("cw_steps").number());
  doc.scale.eps_color = static_cast<float>(scale.at("eps_color").number());
  doc.scale.eps_coord = static_cast<float>(scale.at("eps_coord").number());
  doc.dataset = j.at("dataset").str();
  doc.scene_seed = std::stoull(j.at("scene_seed").str());
  doc.scene_count = static_cast<int>(j.at("scene_count").number());
  doc.use_l0_distance = j.at("l0_distance").boolean();
  for (const Json& m : j.at("models").items()) {
    ModelSection section;
    section.model = m.at("model").str();
    section.clean_accuracy = m.at("clean_accuracy").number();
    section.clean_aiou = m.at("clean_aiou").number();
    for (const Json& v : m.at("variants").items()) {
      VariantResult vr;
      vr.label = v.at("label").str();
      vr.kind = variant_kind_from_string(v.at("kind").str());
      if (vr.kind == VariantKind::kSharedDelta) {
        vr.accuracy_before = doubles_from_json(v.at("accuracy_before"));
        vr.accuracy_after = doubles_from_json(v.at("accuracy_after"));
        vr.shared_delta_l2 = v.at("delta_l2").number();
        vr.shared_steps = static_cast<int>(v.at("steps_used").number());
      } else {
        for (const Json& row : v.at("cases").items()) vr.cases.push_back(row_from_json(row));
        const Json& agg = v.at("aggregate");
        vr.aggregate.best = record_from_json(agg.at("best"));
        vr.aggregate.avg = record_from_json(agg.at("avg"));
        vr.aggregate.worst = record_from_json(agg.at("worst"));
        vr.total_steps = static_cast<long long>(v.at("total_steps").number());
      }
      section.variants.push_back(std::move(vr));
    }
    doc.models.push_back(std::move(section));
  }
  if (doc.kind == "defense_grid") {
    doc.source_model = j.at("source_model").str();
    doc.defense_seed = std::stoull(j.at("defense_seed").str());
    for (const Json& a : j.at("grid_attacks").items()) {
      GridAttackResult trace;
      trace.label = a.at("label").str();
      trace.l2_color = doubles_from_json(a.at("l2_color"));
      for (const Json& s : a.at("steps").items()) {
        trace.steps.push_back(static_cast<long long>(s.number()));
      }
      trace.mean_l2_color = a.at("mean_l2_color").number();
      trace.total_steps = static_cast<long long>(a.at("total_steps").number());
      doc.grid_attacks.push_back(std::move(trace));
    }
    for (const Json& c : j.at("grid").items()) {
      GridCellResult cell;
      cell.attack = c.at("attack").str();
      cell.defense = c.at("defense").str();
      cell.victim = c.at("victim").str();
      for (const Json& r : c.at("cases").items()) {
        cell.cases.push_back({r.at("accuracy").number(), r.at("aiou").number(),
                              static_cast<long long>(r.at("points_kept").number())});
      }
      cell.mean_accuracy = c.at("mean_accuracy").number();
      cell.mean_aiou = c.at("mean_aiou").number();
      cell.mean_points_kept = c.at("mean_points_kept").number();
      doc.grid.push_back(std::move(cell));
    }
  }
  return doc;
}

RunOutcome run_spec(const ExperimentSpec& spec, ModelProvider& provider,
                    ResultStore& store, const RunOptions& options) {
  WallTimer timer;
  // Telemetry only: the root span plus a per-slot pool baseline so the
  // sidecar can report per-run pool deltas across every worker thread.
  static const obs::trace::Label kRunSpan = obs::trace::intern("runner.run_spec");
  obs::trace::ScopedSpan run_span(kRunSpan);
  const std::vector<pcss::tensor::pool::SlotStats> slots_before =
      pcss::tensor::pool::slot_stats();
  const std::string key = run_key(spec, options.scale, provider);
  const std::string doc_key = key + ".json";

  RunOutcome out;
  out.path = store.path_for(doc_key);

  if (!options.force) {
    if (auto cached = store.get(doc_key)) {
      // A document that no longer parses (hand-edited, or written by a
      // different format revision) is a miss, not a fatal error: fall
      // through and recompute under the same key.
      try {
        out.document = document_from_json(Json::parse(*cached));
        out.json = std::move(*cached);
        out.cache_hit = true;
        out.wall_seconds = timer.seconds();
        return out;
      } catch (const std::exception&) {  // parse or field errors (incl. stoull)
        out.document = RunDocument{};
        out.json.clear();
      }
    }
  }

  ShardGate claim_all;
  out.document = execute_spec(spec, provider, store, options, key, claim_all, timer, out);
  out.json = document_to_json(out.document).dump() + "\n";
  store.put(doc_key, out.json);
  out.wall_seconds = timer.seconds();

  Json perf = Json::object();
  // Which kernel table executed. The document bytes are ISA-independent
  // (see the simd.h determinism contract); the sidecar records the path
  // for perf-trail forensics only.
  perf.set("simd_isa", std::string(pcss::tensor::simd::active_name()));
  perf.set("wall_seconds", out.wall_seconds);
  perf.set("attack_steps", out.attack_steps);
  perf.set("steps_per_second",
           out.wall_seconds > 0.0 ? static_cast<double>(out.attack_steps) / out.wall_seconds
                                  : 0.0);
  perf.set("shards_total", out.shards_total);
  perf.set("shards_from_cache", out.shards_from_cache);
  perf.set("num_threads", options.num_threads);
  perf.set("shard_size", std::max(1, options.shard_size));
  perf.set("fast", options.fast);
  perf.set("plan", options.plan);
  // Tensor buffer-pool telemetry, aggregated over every pool slot (one
  // per thread that ever touched the pool; exited workers' slots persist
  // with monotonic counters, so per-run numbers are before/after deltas
  // per slot). Unlike the pre-obs sidecar, the block is always present —
  // multi-threaded runs report the sum of acquires and the min/mean of
  // the per-thread hit rates instead of omitting the section.
  const std::vector<pcss::tensor::pool::SlotStats> slots_after =
      pcss::tensor::pool::slot_stats();
  std::uint64_t pool_acquires = 0, pool_hits = 0, pool_cached_floats = 0;
  double rate_min = 0.0, rate_sum = 0.0;
  int active_slots = 0;
  for (std::size_t i = 0; i < slots_after.size(); ++i) {
    const std::uint64_t acquires_0 = i < slots_before.size() ? slots_before[i].acquires : 0;
    const std::uint64_t hits_0 = i < slots_before.size() ? slots_before[i].hits : 0;
    const std::uint64_t d_acquires = slots_after[i].acquires - acquires_0;
    const std::uint64_t d_hits = slots_after[i].hits - hits_0;
    pool_cached_floats += slots_after[i].cached_floats;
    if (d_acquires == 0) continue;
    const double rate = static_cast<double>(d_hits) / static_cast<double>(d_acquires);
    rate_min = active_slots == 0 ? rate : std::min(rate_min, rate);
    rate_sum += rate;
    ++active_slots;
    pool_acquires += d_acquires;
    pool_hits += d_hits;
  }
  Json pool = Json::object();
  pool.set("acquires", static_cast<double>(pool_acquires));
  pool.set("hit_rate", pool_acquires > 0
                           ? static_cast<double>(pool_hits) /
                                 static_cast<double>(pool_acquires)
                           : 0.0);
  pool.set("hit_rate_min", active_slots > 0 ? rate_min : 0.0);
  pool.set("hit_rate_mean",
           active_slots > 0 ? rate_sum / static_cast<double>(active_slots) : 0.0);
  pool.set("threads", active_slots);
  pool.set("cached_mb", static_cast<double>(pool_cached_floats) * 4.0 / 1048576.0);
  perf.set("tensor_pool", std::move(pool));
  // Queryable metrics, folded in wholesale: the registry serializes
  // itself (deterministic name-sorted layout) and the runner re-parses
  // it, so sidecar readers see one consistent JSON document.
  obs::metrics::gauge("store.hits").set(static_cast<double>(store.hits()));
  obs::metrics::gauge("store.misses").set(static_cast<double>(store.misses()));
  perf.set("metrics", Json::parse(obs::metrics::snapshot_json()));
  store.put(key + ".perf.json", perf.dump() + "\n");
  return out;
}

WorkerOutcome run_spec_worker(const ExperimentSpec& spec, ModelProvider& provider,
                              ResultStore& store, const WorkerConfig& config) {
  if (config.run.force) {
    throw std::invalid_argument(
        "run_spec_worker: force is not a worker option; erase the spec's document and "
        "shard files before starting the workers");
  }
  WorkerOutcome out;
  const std::string key = run_key(spec, config.run.scale, provider);
  if (store.contains(key + ".json")) {
    out.doc_cached = true;  // assembled document exists: nothing to claim
    return out;
  }
  out.passes = 1;
  const WallTimer timer;
  LeaseGate gate(store, config, spec.name, out);
  RunOutcome run;
  try {
    execute_spec(spec, provider, store, config.run, key, gate, timer, run);
  } catch (const RunCancelled&) {
    out.cancelled = true;  // the gate releases the leases it holds
  }
  out.attack_steps = run.attack_steps;
  return out;
}

const VariantResult& find_variant(const ModelSection& section, const std::string& label) {
  for (const VariantResult& vr : section.variants) {
    if (vr.label == label) return vr;
  }
  throw std::out_of_range("find_variant: no variant labelled '" + label + "' in model '" +
                          section.model + "'");
}

void print_grid_matrix(const RunDocument& doc) {
  for (const GridAttackResult& trace : doc.grid_attacks) {
    std::printf("  [%s]  mean L2=%.2f  %lld attack steps\n", trace.label.c_str(),
                trace.mean_l2_color, trace.total_steps);
    for (const GridCellResult& cell : doc.grid) {
      if (cell.attack != trace.label) continue;
      std::printf("    %-16s x %-18s Acc=%6.2f%%  aIoU=%6.2f%%  kept=%7.1f\n",
                  cell.defense.c_str(), cell.victim.c_str(), 100.0 * cell.mean_accuracy,
                  100.0 * cell.mean_aiou, cell.mean_points_kept);
    }
  }
}

const GridCellResult& find_cell(const RunDocument& doc, const std::string& attack,
                                const std::string& defense, const std::string& victim) {
  for (const GridCellResult& cell : doc.grid) {
    if (cell.attack == attack && cell.defense == defense && cell.victim == victim) {
      return cell;
    }
  }
  throw std::out_of_range("find_cell: no cell (" + attack + ", " + defense + ", " + victim +
                          ") in document '" + doc.spec + "'");
}

}  // namespace pcss::runner
