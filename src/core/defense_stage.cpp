#include "pcss/core/defense_stage.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <stdexcept>

#include "pcss/pointcloud/knn.h"
#include "pcss/pointcloud/sampling.h"

namespace pcss::core {

namespace {

std::string num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::vector<std::int64_t> identity_map(std::int64_t n) {
  std::vector<std::int64_t> kept(static_cast<size_t>(n));
  std::iota(kept.begin(), kept.end(), std::int64_t{0});
  return kept;
}

// ---------------------------------------------------------------------------
// SRS
// ---------------------------------------------------------------------------

class SrsStage final : public DefenseStage {
 public:
  SrsStage(std::int64_t remove_count, float remove_fraction)
      : remove_count_(remove_count), remove_fraction_(remove_fraction) {}

  const char* name() const override { return "srs"; }

  std::string describe() const override {
    if (remove_fraction_ >= 0.0f) return "srs(fraction=" + num(remove_fraction_) + ")";
    return "srs(remove=" + std::to_string(remove_count_) + ")";
  }

  bool stochastic() const override { return true; }

  DefenseOutcome apply(const PointCloud& cloud, Rng& rng) const override {
    const std::int64_t n = cloud.size();
    const std::int64_t remove =
        remove_fraction_ >= 0.0f
            ? static_cast<std::int64_t>(static_cast<double>(n) * remove_fraction_)
            : remove_count_;
    if (remove < 0 || remove >= n) {
      throw std::invalid_argument("srs stage: remove_count out of range");
    }
    if (remove == 0) return {cloud, identity_map(n)};
    auto keep = pcss::pointcloud::random_sample(n, n - remove, rng);
    std::sort(keep.begin(), keep.end());  // preserve original point order
    return {cloud.subset(keep), std::move(keep)};
  }

 private:
  std::int64_t remove_count_;
  float remove_fraction_;  ///< < 0 means "use the absolute count"
};

// ---------------------------------------------------------------------------
// Revised SOR (combined position+color metric)
// ---------------------------------------------------------------------------

class SorStage final : public DefenseStage {
 public:
  SorStage(int k, float stddev_mult, float color_weight, KnnBackend backend)
      : k_(k), stddev_mult_(stddev_mult), color_weight_(color_weight), backend_(backend) {
    if (k <= 0) throw std::invalid_argument("sor stage: k must be positive");
    if (color_weight < 0.0f) {
      throw std::invalid_argument("sor stage: color_weight must be >= 0");
    }
  }

  const char* name() const override { return "sor"; }

  std::string describe() const override {
    // The backend never changes the defended output (grid == brute up to
    // distance ties), so it stays out of the cache-key string.
    return "sor(k=" + std::to_string(k_) + ",mult=" + num(stddev_mult_) +
           ",cw=" + num(color_weight_) + ")";
  }

  DefenseOutcome apply(const PointCloud& cloud, Rng& /*rng*/) const override {
    const std::int64_t n = cloud.size();
    if (n <= k_) return {cloud, identity_map(n)};

    const std::vector<std::int64_t> idx = neighbors(cloud);
    std::vector<float> mean_d(static_cast<size_t>(n), 0.0f);
    for (std::int64_t i = 0; i < n; ++i) {
      float acc = 0.0f;
      for (int j = 0; j < k_; ++j) {
        const auto nb = static_cast<size_t>(idx[i * k_ + j]);
        const float d2 = pcss::pointcloud::squared_distance(
                             cloud.positions[static_cast<size_t>(i)], cloud.positions[nb]) +
                         color_weight_ *
                             pcss::pointcloud::squared_distance(
                                 cloud.colors[static_cast<size_t>(i)], cloud.colors[nb]);
        acc += std::sqrt(d2);
      }
      mean_d[static_cast<size_t>(i)] = acc / static_cast<float>(k_);
    }

    double mean = 0.0;
    for (float d : mean_d) mean += d;
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (float d : mean_d) var += (d - mean) * (d - mean);
    var /= static_cast<double>(n);
    const double threshold = mean + static_cast<double>(stddev_mult_) * std::sqrt(var);

    std::vector<std::int64_t> keep;
    for (std::int64_t i = 0; i < n; ++i) {
      if (mean_d[static_cast<size_t>(i)] <= threshold) keep.push_back(i);
    }
    if (keep.empty()) return {cloud, identity_map(n)};  // refuse to drop everything
    return {cloud.subset(keep), std::move(keep)};
  }

 private:
  std::vector<std::int64_t> neighbors(const PointCloud& cloud) const {
    switch (backend_) {
      case KnnBackend::kBrute:
        return pcss::pointcloud::knn_self_combined_brute(cloud.positions, cloud.colors,
                                                         color_weight_, k_);
      case KnnBackend::kGrid:
        return pcss::pointcloud::knn_self_combined_grid(cloud.positions, cloud.colors,
                                                        color_weight_, k_);
      case KnnBackend::kAuto:
        break;
    }
    return pcss::pointcloud::knn_self_combined(cloud.positions, cloud.colors, color_weight_,
                                               k_);
  }

  int k_;
  float stddev_mult_;
  float color_weight_;
  KnnBackend backend_;
};

// ---------------------------------------------------------------------------
// Voxel thinning
// ---------------------------------------------------------------------------

class VoxelStage final : public DefenseStage {
 public:
  explicit VoxelStage(float voxel) : voxel_(voxel) {
    if (voxel <= 0.0f) throw std::invalid_argument("voxel stage: edge must be positive");
  }

  const char* name() const override { return "voxel"; }
  std::string describe() const override { return "voxel(edge=" + num(voxel_) + ")"; }

  DefenseOutcome apply(const PointCloud& cloud, Rng& /*rng*/) const override {
    if (cloud.empty()) return {cloud, {}};
    auto keep = pcss::pointcloud::voxel_downsample(cloud.positions, voxel_);
    return {cloud.subset(keep), std::move(keep)};
  }

 private:
  float voxel_;
};

// ---------------------------------------------------------------------------
// Color quantization (feature squeezing)
// ---------------------------------------------------------------------------

class ColorQuantizeStage final : public DefenseStage {
 public:
  explicit ColorQuantizeStage(int levels) : levels_(levels) {
    if (levels < 2) throw std::invalid_argument("quantize stage: needs >= 2 levels");
  }

  const char* name() const override { return "quantize"; }
  std::string describe() const override {
    return "quantize(levels=" + std::to_string(levels_) + ")";
  }

  DefenseOutcome apply(const PointCloud& cloud, Rng& /*rng*/) const override {
    DefenseOutcome out{cloud, identity_map(cloud.size())};
    const float steps = static_cast<float>(levels_ - 1);
    for (auto& c : out.cloud.colors) {
      for (int a = 0; a < 3; ++a) c[a] = std::round(c[a] * steps) / steps;
    }
    return out;
  }

 private:
  int levels_;
};

// ---------------------------------------------------------------------------
// kNN label voting (prediction smoothing)
// ---------------------------------------------------------------------------

class KnnLabelVoteStage final : public DefenseStage {
 public:
  explicit KnnLabelVoteStage(int k) : k_(k) {
    if (k <= 0) throw std::invalid_argument("knn_vote stage: k must be positive");
  }

  const char* name() const override { return "knn_vote"; }
  std::string describe() const override { return "knn_vote(k=" + std::to_string(k_) + ")"; }

  DefenseOutcome apply(const PointCloud& cloud, Rng& /*rng*/) const override {
    return {cloud, identity_map(cloud.size())};
  }

  void smooth_predictions(const PointCloud& defended,
                          std::vector<int>& predictions) const override {
    const std::int64_t n = defended.size();
    if (n <= 1 || static_cast<std::int64_t>(predictions.size()) != n) return;
    const int k = static_cast<int>(std::min<std::int64_t>(k_, n - 1));
    const auto idx =
        pcss::pointcloud::knn_self(defended.positions, k, /*include_self=*/false);
    // Votes read the unsmoothed snapshot so the result does not depend
    // on point order.
    const std::vector<int> before = predictions;
    std::map<int, int> votes;
    for (std::int64_t i = 0; i < n; ++i) {
      votes.clear();
      ++votes[before[static_cast<size_t>(i)]];
      for (int j = 0; j < k; ++j) {
        ++votes[before[static_cast<size_t>(idx[i * k + j])]];
      }
      int winner = before[static_cast<size_t>(i)];
      int best = -1;
      for (const auto& [label, count] : votes) {  // ascending label: ties -> smallest
        if (count > best) {
          best = count;
          winner = label;
        }
      }
      predictions[static_cast<size_t>(i)] = winner;
    }
  }

 private:
  int k_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

std::shared_ptr<const DefenseStage> make_srs_stage(std::int64_t remove_count) {
  return std::make_shared<SrsStage>(remove_count, -1.0f);
}

std::shared_ptr<const DefenseStage> make_srs_fraction_stage(float remove_fraction) {
  if (remove_fraction < 0.0f || remove_fraction >= 1.0f) {
    throw std::invalid_argument("srs stage: remove_fraction must be in [0, 1)");
  }
  return std::make_shared<SrsStage>(0, remove_fraction);
}

std::shared_ptr<const DefenseStage> make_sor_stage(int k, float stddev_mult,
                                                   float color_weight, KnnBackend backend) {
  return std::make_shared<SorStage>(k, stddev_mult, color_weight, backend);
}

std::shared_ptr<const DefenseStage> make_voxel_stage(float voxel) {
  return std::make_shared<VoxelStage>(voxel);
}

std::shared_ptr<const DefenseStage> make_color_quantize_stage(int levels) {
  return std::make_shared<ColorQuantizeStage>(levels);
}

std::shared_ptr<const DefenseStage> make_knn_label_vote_stage(int k) {
  return std::make_shared<KnnLabelVoteStage>(k);
}

// ---------------------------------------------------------------------------
// DefensePipeline
// ---------------------------------------------------------------------------

DefensePipeline& DefensePipeline::add(std::shared_ptr<const DefenseStage> stage) {
  if (!stage) throw std::invalid_argument("DefensePipeline: null stage");
  stages_.push_back(std::move(stage));
  return *this;
}

bool DefensePipeline::stochastic() const {
  for (const auto& stage : stages_) {
    if (stage->stochastic()) return true;
  }
  return false;
}

std::string DefensePipeline::describe() const {
  if (stages_.empty()) return "none";
  std::string out;
  for (const auto& stage : stages_) {
    if (!out.empty()) out += '|';
    out += stage->describe();
  }
  return out;
}

DefenseOutcome DefensePipeline::apply(const PointCloud& cloud, Rng& rng) const {
  DefenseOutcome out{cloud, identity_map(cloud.size())};
  for (const auto& stage : stages_) {
    const std::int64_t n = out.cloud.size();
    DefenseOutcome next = stage->apply(out.cloud, rng);
    if (next.kept.size() != static_cast<size_t>(next.cloud.size())) {
      throw std::runtime_error("DefensePipeline: stage '" + std::string(stage->name()) +
                               "' returned a kept map of the wrong size");
    }
    // Compose the surviving-index maps: `next.kept` indexes the previous
    // stage's output, so route it through the accumulated map to keep
    // `out.kept` anchored at the original input cloud.
    std::vector<std::int64_t> composed(next.kept.size());
    std::vector<std::uint8_t> seen(static_cast<size_t>(n), 0);
    for (size_t i = 0; i < next.kept.size(); ++i) {
      const std::int64_t j = next.kept[i];
      if (j < 0 || j >= n) {
        throw std::runtime_error("DefensePipeline: stage '" + std::string(stage->name()) +
                                 "' returned an out-of-range kept index");
      }
      // Duplicates would double-count ground truth rows and break the
      // scatter_rows distinct-index contract in DefendedModel.
      if (seen[static_cast<size_t>(j)]) {
        throw std::runtime_error("DefensePipeline: stage '" + std::string(stage->name()) +
                                 "' returned a duplicate kept index");
      }
      seen[static_cast<size_t>(j)] = 1;
      composed[i] = out.kept[static_cast<size_t>(j)];
    }
    out.cloud = std::move(next.cloud);
    out.kept = std::move(composed);
  }
  return out;
}

void DefensePipeline::smooth_predictions(const PointCloud& defended,
                                         std::vector<int>& predictions) const {
  for (const auto& stage : stages_) stage->smooth_predictions(defended, predictions);
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

DefenseReport run_defended(SegmentationModel& model, const DefensePipeline& pipeline,
                           const PointCloud& cloud, int num_classes, Rng& rng) {
  DefenseReport report;
  report.outcome = pipeline.apply(cloud, rng);
  report.predictions = model.predict(report.outcome.cloud);
  pipeline.smooth_predictions(report.outcome.cloud, report.predictions);
  // Ground truth comes from the *original* cloud through the surviving
  // index map — a stage may drop, reorder, or even rewrite the labels it
  // carries without corrupting the score.
  std::vector<int> truth(report.outcome.kept.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i] = cloud.labels[static_cast<size_t>(report.outcome.kept[i])];
  }
  report.metrics = evaluate_segmentation(report.predictions, truth, num_classes);
  return report;
}

// ---------------------------------------------------------------------------
// Stream derivation
// ---------------------------------------------------------------------------

std::uint64_t fnv64_bytes(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t defense_cell_seed(std::uint64_t defense_seed, const std::string& attack_label,
                                const std::string& defense_describe,
                                std::uint64_t cloud_index) {
  std::uint64_t hash = fnv64_bytes(attack_label.data(), attack_label.size());
  hash = fnv64_bytes("|", 1, hash);
  hash = fnv64_bytes(defense_describe.data(), defense_describe.size(), hash);
  const std::uint64_t base = defense_seed + cloud_index;
  hash = fnv64_bytes(&base, sizeof(base), hash);
  return hash;
}

}  // namespace pcss::core
