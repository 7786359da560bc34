#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "pcss/core/experiment.h"
#include "pcss/runner/experiment_spec.h"
#include "pcss/runner/json.h"
#include "pcss/runner/result_store.h"
#include "pcss/runner/scale.h"

namespace pcss::runner {

/// Progress of one run_spec invocation, reported after every finished
/// shard. Pure telemetry: the callback sees wall-clock numbers but can
/// never influence the result document (RunOptions documents why).
struct ShardProgress {
  int shards_done = 0;
  int shards_total = 0;        ///< planned shards for the whole run
  int shards_from_cache = 0;   ///< of shards_done, how many replayed
  long long attack_steps = 0;  ///< optimization steps executed live so far
  double wall_seconds = 0.0;   ///< elapsed since run_spec started
  double eta_seconds = 0.0;    ///< shard_eta_seconds over the live shards; 0
                               ///< until the first live shard finishes
};

/// Remaining-time estimate from live throughput: `live_seconds` of wall
/// time (from the first live shard's start) finished `live_shards_done`
/// shards, so the `shards_remaining` others take that long per shard done.
/// Shards run concurrently, so this is not remaining x mean shard wall
/// time, which would count every overlapping shard's time in full.
/// Returns 0 when no live shard has finished or nothing remains.
double shard_eta_seconds(double live_seconds, int live_shards_done, int shards_remaining);

/// Knobs for one run_spec invocation. None of them may change the
/// numbers: `scale` is part of the cache key, and thread count / shard
/// size only repartition work whose per-cloud RNG stream stays
/// `config.seed + global cloud index` (so any partitioning reproduces
/// bit-identical documents — tested in tests/runner_test.cpp).
/// `on_progress` is observation only — it runs on the executor thread
/// between shards and receives copies of telemetry counters, so no
/// callback can perturb document bytes (tested: tracing/progress on vs.
/// off yields byte-identical documents).
struct RunOptions {
  Scale scale = active_scale();
  bool fast = fast_mode();  ///< informational; recorded in the .perf.json sidecar
  bool force = false;       ///< recompute, ignoring document and shard caches
  int num_threads = 0;      ///< workers per run_spec call; 0 = hardware
  int shard_size = 4;       ///< clouds per cached shard (min 1)

  /// Compiled-plan capture/replay inside the attack loop (plan.h).
  /// Replays are byte-identical to eager steps, so this is pure execution
  /// policy like num_threads: it never enters cache keys and toggling it
  /// yields the same document bytes with zero plan captures and replays
  /// (tested in tests/runner_test.cpp, for table, shared-delta and grid
  /// specs).
  bool plan = true;

  std::function<void(const ShardProgress&)> on_progress{};  ///< may be empty

  /// Graceful-cancel poll, checked at shard boundaries only (mid-shard
  /// state never hits the store, so cancelling between shards is always
  /// resumable). When it returns true, run_spec throws RunCancelled and
  /// run_spec_worker stops claiming and returns with `cancelled` set.
  /// Like on_progress, it can observe but never perturb document bytes.
  std::function<bool()> cancel{};  ///< may be empty (= never cancel)
};

/// `options` with its scale set to scale_for(options.fast). Every entry
/// point (pcss_run, pcss_serve) builds its RunOptions through this, so the
/// fast flag and the sizing it names cannot drift apart:
///   scaled_options({.fast = fast, .num_threads = threads})
inline RunOptions scaled_options(RunOptions options) {
  options.scale = scale_for(options.fast);
  return options;
}

/// Thrown by run_spec when RunOptions::cancel fires: every finished
/// shard is already cached, so rerunning the same command resumes where
/// the cancelled run stopped.
class RunCancelled : public std::runtime_error {
 public:
  explicit RunCancelled(const std::string& spec)
      : std::runtime_error("run of spec '" + spec +
                           "' cancelled at a shard boundary; finished shards are "
                           "cached — resumable: rerun to continue") {}
};

/// One cloud's numbers inside a variant.
struct CaseRow {
  pcss::core::CaseRecord record;  ///< distance (per spec metric), accuracy, aIoU
  double l2_color = 0.0;          ///< always kept: calibrates noise baselines
  long long steps = 0;
};

struct VariantResult {
  std::string label;
  VariantKind kind = VariantKind::kPerCloud;

  // kPerCloud / kNoiseBaseline:
  std::vector<CaseRow> cases;  ///< cloud order; empty for kSharedDelta
  pcss::core::BestAvgWorst aggregate{};
  long long total_steps = 0;

  // kSharedDelta:
  std::vector<double> accuracy_before;
  std::vector<double> accuracy_after;
  double shared_delta_l2 = 0.0;
  int shared_steps = 0;
};

struct ModelSection {
  std::string model;
  double clean_accuracy = 0.0;
  double clean_aiou = 0.0;
  std::vector<VariantResult> variants;
};

/// One cloud of one defense-grid cell (kDefenseGrid documents).
struct GridCaseRow {
  double accuracy = 0.0;
  double aiou = 0.0;
  long long points_kept = 0;
};

/// One (attack x defense x victim) cell with its per-cloud rows and the
/// mean column the report prints.
struct GridCellResult {
  std::string attack;
  std::string defense;
  std::string victim;
  std::vector<GridCaseRow> cases;  ///< cloud order
  double mean_accuracy = 0.0;
  double mean_aiou = 0.0;
  double mean_points_kept = 0.0;
};

/// Attack-side bookkeeping of one grid attack column.
struct GridAttackResult {
  std::string label;
  std::vector<double> l2_color;   ///< per cloud
  std::vector<long long> steps;   ///< per cloud
  double mean_l2_color = 0.0;
  long long total_steps = 0;
};

/// The content of one stored result document. Everything in here is a
/// pure function of the cache key's inputs (spec, scale, seeds,
/// weights): wall-clock lives in the .perf.json sidecar and the
/// fast/full *flag* is not recorded (the Scale fields capture the
/// sizing), so one key always names byte-identical document bytes.
struct RunDocument {
  std::string spec;
  std::string key;
  std::string kind = "attack_table";  ///< to_string(SpecKind)
  Scale scale;
  std::string dataset;
  std::uint64_t scene_seed = 0;
  int scene_count = 0;
  bool use_l0_distance = false;
  std::vector<ModelSection> models;  ///< kAttackTable documents

  // kDefenseGrid documents:
  std::string source_model;
  std::uint64_t defense_seed = 0;
  std::vector<GridAttackResult> grid_attacks;  ///< attack-column order
  std::vector<GridCellResult> grid;  ///< attack-major, then defense, then victim
};

struct RunOutcome {
  RunDocument document;
  std::string json;        ///< exact stored document bytes
  std::string path;        ///< absolute-ish store path of the document
  bool cache_hit = false;  ///< full-document hit: nothing was executed
  int shards_total = 0;
  int shards_from_cache = 0;
  long long attack_steps = 0;  ///< optimization steps executed live this call
  double wall_seconds = 0.0;
};

Json document_to_json(const RunDocument& doc);
RunDocument document_from_json(const Json& json);

/// Label lookup for report formatting; throws std::out_of_range naming
/// the label so a reordered or renamed spec fails loudly, never by
/// printing the wrong column.
const VariantResult& find_variant(const ModelSection& section, const std::string& label);

/// Same contract for defense-grid documents: cell lookup by the three
/// labels, throwing std::out_of_range with all of them on a miss.
const GridCellResult& find_cell(const RunDocument& doc, const std::string& attack,
                                const std::string& defense, const std::string& victim);

/// Prints a grid document's matrix to stdout, one block per attack
/// column. Shared by the pcss_run CLI and bench_defense_grid so the
/// report format cannot drift between entry points.
void print_grid_matrix(const RunDocument& doc);

/// Runs (or replays) one spec:
///
///   1. key = hash(spec, scaled configs, scale, scene seed, weights);
///   2. document cache hit and !force -> parse and return, zero work;
///   3. otherwise partition every (model, variant) into shards of
///      `shard_size` clouds, replay the shards the store already holds
///      (an interrupted run resumes where it stopped), and compute the
///      rest. Attack tables queue every uncached cloud as one job on a
///      single pool of `num_threads` workers (AttackEngine::run with
///      seed + g); a noise baseline's clouds join the queue once their
///      calibration shard is done, and a shared-delta variant runs as one
///      unit before the queue starts. Defense grids queue one job per
///      (attack column, cloud) on the same pool, which attacks the cloud
///      and then scores its defended cells. Each shard is stored as soon
///      as its last job finishes: shards are the cache, progress and
///      cancel unit, not the scheduling unit;
///   4. assemble, aggregate, and atomically store "<key>.json" plus a
///      "<key>.perf.json" sidecar (wall-clock, steps/s, shard counts).
///
/// Determinism: cloud `g`'s RNG stream is `seed + g` under every
/// partitioning and schedule, and each cloud's row lands at its index —
/// hence the stored document and shard files are byte-identical for any
/// (shard_size, num_threads, resume point) combination.
RunOutcome run_spec(const ExperimentSpec& spec, ModelProvider& provider,
                    ResultStore& store, const RunOptions& options = {});

/// One worker process's view of a multi-process run (pcss_run
/// --workers). Every worker of a run shares the store; worker_id must
/// be unique among them (it names the lease owner and salts the chaos
/// stream).
struct WorkerConfig {
  RunOptions run;
  std::string worker_id = "worker";
  /// Staleness deadline for lease stealing. A worker renews every lease
  /// it holds at each of its shard boundaries, not during a job, so this
  /// must comfortably exceed the longest gap between two boundaries: one
  /// shard's compute time when it runs alone.
  std::int64_t lease_ttl_ns = 300LL * 1000 * 1000 * 1000;
};

struct WorkerOutcome {
  int shards_computed = 0;
  int shards_stolen = 0;  ///< of shards_computed, claimed via a stale lease
  int passes = 0;         ///< 1, plus one per wait for shards busy elsewhere
  long long attack_steps = 0;
  bool cancelled = false;
  bool doc_cached = false;  ///< the assembled document already existed
};

/// The claim/compute half of a multi-process run. Executes the spec's
/// shard plan through the same executor as run_spec, on a pool of
/// `run.num_threads` workers, but claims each missing shard by lease
/// instead of computing it outright. It claims on demand: whenever the
/// claimed but unfinished jobs drop below the thread count, the next scan
/// (from a worker-specific origin) claims more. A noise shard is claimed
/// once its calibration shard is stored or finished here. Each finished
/// shard is put, then its lease released, and every lease still held is
/// renewed. kBusy leases are skipped — another worker owns that shard —
/// and stale leases (dead or straggling owner) are stolen. When every
/// unclaimed shard is busy elsewhere, the worker waits 100 ms and scans
/// again, so it returns only when the plan is complete (or cancelled).
/// Clean accuracy and the document are left to the merge pass.
///
/// Correctness never depends on the leases: a stolen or duplicated
/// shard recomputes the same bytes (the seed-offset invariant run_spec
/// documents), so the subsequent merge — run_spec over the now-warm
/// store — is byte-identical to a single-process run by construction.
/// Throws std::invalid_argument when `run.force` is set: a forced
/// multi-process run erases the spec's document and shards before it
/// starts its workers.
WorkerOutcome run_spec_worker(const ExperimentSpec& spec, ModelProvider& provider,
                              ResultStore& store, const WorkerConfig& config);

}  // namespace pcss::runner
