#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pcss/core/metrics.h"
#include "pcss/models/model.h"
#include "pcss/tensor/rng.h"

namespace pcss::core {

using pcss::models::PointCloud;
using pcss::models::SegmentationModel;
using pcss::tensor::Rng;

// ---------------------------------------------------------------------------
// Defense pipeline (paper §V-F, symmetric to the AttackEngine strategies)
//
// A defense is a chain of DefenseStage transforms applied to the input
// cloud before segmentation, plus optional post-prediction smoothing.
// Stages carry an explicit surviving-index map so chained point-dropping
// defenses never lose the defended-point <-> ground-truth alignment, and
// a stable describe() string so pipelines hash into the runner's
// content-addressed result keys.
// ---------------------------------------------------------------------------

/// Which kNN implementation a neighbor-based stage uses. kAuto follows
/// the knn_self dispatch (grid at >= 1024 points); the explicit backends
/// exist for the brute-vs-grid equivalence tests and tie-sensitive
/// callers.
enum class KnnBackend { kAuto, kBrute, kGrid };

/// Result of one stage (or a whole pipeline): the defended cloud plus
/// the surviving-index map. kept[i] names the index *in the input cloud*
/// of defended point i, so metrics can always be scored against the
/// correctly permuted original ground truth, no matter how many stages
/// dropped or reordered points in between.
struct DefenseOutcome {
  PointCloud cloud;
  std::vector<std::int64_t> kept;
};

/// One composable defense transform: cloud -> cloud with an index map.
///
/// Contract: apply() returns kept.size() == cloud.size() with every
/// index in [0, input.size()) and no duplicates (DefensePipeline
/// validates sizes/ranges). Stages that never drop points return the
/// identity map. Stages must be deterministic functions of (input, rng
/// draws): all randomness flows through the explicit Rng so batched and
/// sharded evaluations can reproduce any draw from a seed.
class DefenseStage {
 public:
  virtual ~DefenseStage() = default;

  virtual const char* name() const = 0;

  /// Stable "name(param=value,...)" string. Hashed into ResultStore keys
  /// (any param change must change it) and shown in reports.
  virtual std::string describe() const = 0;

  /// Whether apply() consumes RNG draws (SRS). Deterministic stages must
  /// not touch the Rng.
  virtual bool stochastic() const { return false; }

  virtual DefenseOutcome apply(const PointCloud& cloud, Rng& rng) const = 0;

  /// Post-prediction hook (kNN label voting): rewrites `predictions`
  /// for the defended cloud in place. Input-transform stages keep the
  /// identity. Not differentiable — DefendedModel's adaptive forward
  /// sees only the input transform; smoothing applies at eval time.
  virtual void smooth_predictions(const PointCloud& defended,
                                  std::vector<int>& predictions) const {
    (void)defended;
    (void)predictions;
  }
};

/// Ordered chain of stages sharing one RNG stream. Copyable (stages are
/// shared immutable objects); an empty pipeline is the identity defense.
class DefensePipeline {
 public:
  DefensePipeline() = default;
  explicit DefensePipeline(std::vector<std::shared_ptr<const DefenseStage>> stages)
      : stages_(std::move(stages)) {}

  /// Appends a stage; returns *this for chaining.
  DefensePipeline& add(std::shared_ptr<const DefenseStage> stage);

  bool empty() const { return stages_.empty(); }
  std::size_t size() const { return stages_.size(); }
  const std::vector<std::shared_ptr<const DefenseStage>>& stages() const { return stages_; }
  bool stochastic() const;

  /// "none" for the empty pipeline, else stage describes joined by '|'.
  std::string describe() const;

  /// Applies the stages in order, composing the surviving-index maps so
  /// the final `kept` refers to the *original* input cloud. Throws
  /// std::runtime_error naming the stage on a malformed outcome (size
  /// mismatch or out-of-range index).
  DefenseOutcome apply(const PointCloud& cloud, Rng& rng) const;

  /// Runs every stage's post-prediction smoothing, in stage order.
  void smooth_predictions(const PointCloud& defended, std::vector<int>& predictions) const;

 private:
  std::vector<std::shared_ptr<const DefenseStage>> stages_;
};

// -- Built-in stages ---------------------------------------------------------

/// Simple Random Sampling (paper §V-F): drops `remove_count` uniformly
/// chosen points. Throws on apply when remove_count is negative or >=
/// the cloud size.
std::shared_ptr<const DefenseStage> make_srs_stage(std::int64_t remove_count);

/// SRS sized relative to the cloud: drops floor(n * remove_fraction)
/// points (the paper's "~1%" setting). remove_fraction in [0, 1).
std::shared_ptr<const DefenseStage> make_srs_fraction_stage(float remove_fraction);

/// Revised Statistical Outlier Removal (paper §V-F): neighbors are the
/// true k-nearest under d^2 = d_pos^2 + color_weight * d_color^2
/// (knn_self_combined, grid-accelerated at >= 1024 points); points whose
/// mean neighbor distance exceeds mean + stddev_mult * sigma are dropped.
std::shared_ptr<const DefenseStage> make_sor_stage(int k, float stddev_mult = 1.0f,
                                                   float color_weight = 1.0f,
                                                   KnnBackend backend = KnnBackend::kAuto);

/// Voxel-grid thinning: keeps one point per occupied voxel of the given
/// edge length (a geometric smoothing defense for outdoor-scale clouds).
std::shared_ptr<const DefenseStage> make_voxel_stage(float voxel);

/// Color quantization (feature squeezing): rounds every channel to one
/// of `levels` uniform levels in [0, 1]. Drops no points; adaptive
/// attacks differentiate through it with a straight-through estimate
/// (the quantization residual enters DefendedModel as a constant).
std::shared_ptr<const DefenseStage> make_color_quantize_stage(int levels);

/// kNN label voting: replaces each defended point's *prediction* by the
/// majority vote among itself and its k nearest neighbors (positional
/// kNN; ties resolve to the smallest label). Identity on the cloud.
std::shared_ptr<const DefenseStage> make_knn_label_vote_stage(int k);

// -- Evaluation --------------------------------------------------------------

/// Everything one defended prediction produces: the defended cloud with
/// its surviving-index map, the (smoothed) predictions, and metrics
/// scored against the ORIGINAL ground truth permuted through the map —
/// never against labels a stage may have carried or clobbered.
struct DefenseReport {
  DefenseOutcome outcome;
  std::vector<int> predictions;
  SegMetrics metrics;
};

/// Applies `pipeline` to `cloud`, predicts with `model`, smooths, and
/// scores. With the empty pipeline this is a plain (transfer) evaluation.
/// DefenseGrid::run_job scores each of its cells the same way, sharing
/// one pipeline draw across the victims.
DefenseReport run_defended(SegmentationModel& model, const DefensePipeline& pipeline,
                           const PointCloud& cloud, int num_classes, Rng& rng);

// -- Deterministic stream derivation -----------------------------------------

/// FNV-1a 64-bit over raw bytes (seeded variant for chaining). Exposed
/// because defense RNG streams are derived from content hashes: the
/// draw for a given (seed, input) pair is a pure function, so any
/// thread count, shard partitioning, or resume point reproduces it.
std::uint64_t fnv64_bytes(const void* data, std::size_t size,
                          std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Stream seed for one grid cell: mixes the experiment's defense seed,
/// the attack and defense labels, and the global cloud index, so every
/// (attack x defense x cloud) cell draws an independent deterministic
/// stream that does not depend on sharding, threading, or the victim.
std::uint64_t defense_cell_seed(std::uint64_t defense_seed, const std::string& attack_label,
                                const std::string& defense_describe,
                                std::uint64_t cloud_index);

}  // namespace pcss::core
