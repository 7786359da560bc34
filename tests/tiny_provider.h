// Shared executor-test fixtures: a tiny untrained ModelProvider and the
// mini specs/scales the runner, worker, and chaos tests (plus the
// pcss_worker_fixture child binary) all execute. One definition keeps
// every test computing under identical cache keys, so "byte-identical
// across processes" assertions compare like with like.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pcss/data/indoor.h"
#include "pcss/models/resgcn.h"
#include "pcss/runner/executor.h"
#include "pcss/runner/experiment_spec.h"

namespace pcss_tests {

/// Tiny untrained stand-in for the zoo: gradients flow regardless of
/// training, which is all the executor's caching/determinism contracts
/// need, and it keeps the tests in the seconds range.
class TinyProvider : public pcss::runner::ModelProvider {
 public:
  explicit TinyProvider(std::string fingerprint = "tiny-weights-v1")
      : fingerprint_(std::move(fingerprint)) {
    pcss::models::ResGCNConfig config;
    config.num_classes = pcss::data::kIndoorNumClasses;
    config.channels = 8;
    config.blocks = 1;
    pcss::tensor::Rng init(31);
    model_ = std::make_shared<pcss::models::ResGCNSeg>(config, init);
  }

  std::shared_ptr<pcss::runner::SegmentationModel> model(pcss::runner::ModelId) override {
    return model_;
  }
  std::string model_fingerprint(pcss::runner::ModelId) override { return fingerprint_; }

  std::vector<pcss::runner::PointCloud> scenes(pcss::runner::Dataset, int count,
                                               std::uint64_t seed) override {
    pcss::data::IndoorSceneGenerator gen({.num_points = 96});
    pcss::tensor::Rng rng(seed);
    std::vector<pcss::runner::PointCloud> out;
    for (int i = 0; i < count; ++i) out.push_back(gen.generate(rng));
    return out;
  }

 private:
  std::string fingerprint_;
  std::shared_ptr<pcss::runner::SegmentationModel> model_;
};

inline pcss::runner::Scale tiny_scale() {
  pcss::runner::Scale s;
  s.scenes = 3;
  s.pgd_steps = 3;
  s.cw_steps = 4;
  return s;
}

inline pcss::runner::ExperimentSpec mini_spec() {
  pcss::runner::ExperimentSpec spec;
  spec.name = "mini";
  spec.title = "executor contract fixture";
  spec.models = {pcss::runner::ModelId::kResGCNIndoor};
  spec.scene_seed = 4242;
  pcss::runner::AttackVariant bounded;
  bounded.label = "bounded";
  bounded.config.norm = pcss::core::AttackNorm::kBounded;
  bounded.config.field = pcss::core::AttackField::kColor;
  spec.variants.push_back(bounded);
  pcss::runner::AttackVariant noise;
  noise.label = "noise";
  noise.kind = pcss::runner::VariantKind::kNoiseBaseline;
  noise.calibrate_from = "bounded";
  spec.variants.push_back(noise);
  return spec;
}

inline pcss::runner::ExperimentSpec mini_shared_spec() {
  pcss::runner::ExperimentSpec spec;
  spec.name = "mini_shared";
  spec.title = "shared-delta fixture";
  spec.models = {pcss::runner::ModelId::kResGCNIndoor};
  spec.scene_seed = 4242;
  pcss::runner::AttackVariant universal;
  universal.label = "universal";
  universal.kind = pcss::runner::VariantKind::kSharedDelta;
  universal.config.norm = pcss::core::AttackNorm::kBounded;
  universal.config.field = pcss::core::AttackField::kColor;
  spec.variants.push_back(universal);
  return spec;
}

inline pcss::runner::ExperimentSpec mini_grid_spec() {
  using pcss::runner::DefenseStageKind;
  pcss::runner::ExperimentSpec spec;
  spec.name = "mini_grid";
  spec.title = "defense-grid executor fixture";
  spec.kind = pcss::runner::SpecKind::kDefenseGrid;
  spec.models = {pcss::runner::ModelId::kResGCNIndoor};
  spec.victims = {pcss::runner::ModelId::kResGCNIndoor,
                  pcss::runner::ModelId::kPointNet2Indoor};
  spec.scene_seed = 4242;
  spec.defense_seed = 2024;
  pcss::runner::AttackVariant bounded;
  bounded.label = "bounded";
  bounded.config.norm = pcss::core::AttackNorm::kBounded;
  bounded.config.field = pcss::core::AttackField::kColor;
  spec.variants.push_back(bounded);
  spec.defenses.push_back({"none", {}});
  spec.defenses.push_back(
      {"srs", {{.kind = DefenseStageKind::kSrs, .srs_fraction = 0.1f}}});
  spec.defenses.push_back(
      {"srs+sor", {{.kind = DefenseStageKind::kSrs, .srs_fraction = 0.1f},
                   {.kind = DefenseStageKind::kSor, .k = 2}}});
  return spec;
}

/// The fixture spec called `name`: "mini", "mini_shared" or "mini_grid".
inline pcss::runner::ExperimentSpec fixture_spec(const std::string& name) {
  if (name == "mini") return mini_spec();
  if (name == "mini_shared") return mini_shared_spec();
  if (name == "mini_grid") return mini_grid_spec();
  throw std::invalid_argument("unknown fixture spec '" + name + "'");
}

inline pcss::runner::RunOptions tiny_options() {
  return {.scale = tiny_scale(), .fast = true, .num_threads = 1, .shard_size = 2};
}

}  // namespace pcss_tests
