// DefensePipeline contract tests: chained stages carry a correct
// surviving-index map (metrics score against permuted original ground
// truth even when a stage clobbers carried labels), SOR's combined kNN
// is grid/brute-equivalent on the defended output, and DefendedModel
// attacks are deterministic across engine thread counts (stochastic SRS
// included) while reproducing the undefended engine exactly for the
// empty pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "pcss/core/attack_engine.h"
#include "pcss/core/defended_model.h"
#include "pcss/core/defense_grid.h"
#include "pcss/data/indoor.h"
#include "pcss/models/resgcn.h"

using namespace pcss::core;
using pcss::data::IndoorSceneGenerator;
using pcss::models::ResGCNConfig;
using pcss::models::ResGCNSeg;
using pcss::tensor::Rng;

namespace {

pcss::data::PointCloud scene(int points = 160, std::uint64_t seed = 1) {
  IndoorSceneGenerator gen({.num_points = points});
  Rng rng(seed);
  return gen.generate(rng);
}

std::shared_ptr<ResGCNSeg> tiny_model(std::uint64_t seed = 9) {
  Rng init(seed);
  ResGCNConfig config;
  config.num_classes = pcss::data::kIndoorNumClasses;
  config.channels = 8;
  config.blocks = 1;
  return std::make_shared<ResGCNSeg>(config, init);
}

bool same_cloud(const pcss::data::PointCloud& a, const pcss::data::PointCloud& b) {
  return a.positions == b.positions && a.colors == b.colors && a.labels == b.labels;
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

TEST(DefenseStages, DescribeStringsAreStableAndParamSensitive) {
  EXPECT_EQ(make_srs_stage(40)->describe(), "srs(remove=40)");
  EXPECT_EQ(make_srs_fraction_stage(0.01f)->describe(), "srs(fraction=0.00999999978)");
  EXPECT_EQ(make_sor_stage(2, 1.0f, 1.0f)->describe(), "sor(k=2,mult=1,cw=1)");
  EXPECT_NE(make_sor_stage(2, 1.5f, 1.0f)->describe(),
            make_sor_stage(2, 1.0f, 1.0f)->describe());
  EXPECT_EQ(make_color_quantize_stage(8)->describe(), "quantize(levels=8)");
  EXPECT_EQ(make_knn_label_vote_stage(5)->describe(), "knn_vote(k=5)");
  DefensePipeline chain;
  chain.add(make_srs_stage(10)).add(make_sor_stage(2));
  EXPECT_EQ(chain.describe(), "srs(remove=10)|sor(k=2,mult=1,cw=1)");
  EXPECT_EQ(DefensePipeline{}.describe(), "none");
}

TEST(DefenseStages, QuantizeSnapsColorsAndKeepsEveryPoint) {
  const auto cloud = scene(100, 7);
  Rng unused(0);
  const auto outcome = make_color_quantize_stage(5)->apply(cloud, unused);
  ASSERT_EQ(outcome.cloud.size(), cloud.size());
  for (std::int64_t i = 0; i < outcome.cloud.size(); ++i) {
    EXPECT_EQ(outcome.kept[static_cast<size_t>(i)], i);
    for (int a = 0; a < 3; ++a) {
      const float v = outcome.cloud.colors[static_cast<size_t>(i)][a] * 4.0f;
      EXPECT_NEAR(v, std::round(v), 1e-4f) << "channel not on the 5-level grid";
    }
  }
}

TEST(DefenseStages, VoxelStageCollapsesCoLocatedPoints) {
  pcss::data::PointCloud cloud;
  for (int i = 0; i < 12; ++i) {
    // Three tight clusters far apart: one survivor per cluster.
    const float base = static_cast<float>(i % 3) * 10.0f;
    cloud.push_back({base + 0.001f * static_cast<float>(i), 0.0f, 0.0f},
                    {0.5f, 0.5f, 0.5f}, i % 3);
  }
  Rng unused(0);
  const auto outcome = make_voxel_stage(1.0f)->apply(cloud, unused);
  EXPECT_EQ(outcome.cloud.size(), 3);
  for (size_t i = 0; i < outcome.kept.size(); ++i) {
    EXPECT_EQ(outcome.cloud.labels[i],
              cloud.labels[static_cast<size_t>(outcome.kept[i])]);
  }
}

TEST(DefenseStages, KnnVoteSmoothsAnIsolatedPrediction) {
  // A tight cluster: majority voting flips the one disagreeing label.
  pcss::data::PointCloud cloud;
  for (int i = 0; i < 6; ++i) {
    cloud.push_back({0.01f * static_cast<float>(i), 0.0f, 0.0f}, {0.5f, 0.5f, 0.5f}, 0);
  }
  std::vector<int> pred = {2, 2, 7, 2, 2, 2};
  const auto stage = make_knn_label_vote_stage(3);
  stage->smooth_predictions(cloud, pred);
  EXPECT_EQ(pred, (std::vector<int>{2, 2, 2, 2, 2, 2}));
}

TEST(DefenseStages, SorBruteAndGridBackendsProduceIdenticalDefendedOutput) {
  // Satellite: the combined position+color kNN goes through the grid at
  // >= 1024 points; the defended cloud must not depend on the backend.
  const auto cloud = scene(1400, 8);
  ASSERT_GE(cloud.size(), 1024);
  Rng unused(0);
  const auto brute =
      make_sor_stage(3, 1.0f, 25.0f, KnnBackend::kBrute)->apply(cloud, unused);
  const auto grid = make_sor_stage(3, 1.0f, 25.0f, KnnBackend::kGrid)->apply(cloud, unused);
  const auto dispatched = make_sor_stage(3, 1.0f, 25.0f)->apply(cloud, unused);
  EXPECT_TRUE(same_cloud(brute.cloud, grid.cloud));
  EXPECT_EQ(brute.kept, grid.kept);
  EXPECT_TRUE(same_cloud(dispatched.cloud, grid.cloud));
}

// ---------------------------------------------------------------------------
// Index-map composition and label alignment
// ---------------------------------------------------------------------------

/// Adversarial fixture stage: reverses point order and clobbers the
/// carried labels. A correct pipeline consumer must score through the
/// surviving-index map, never through the labels a stage emits.
class ReverseAndClobberLabels final : public DefenseStage {
 public:
  const char* name() const override { return "reverse_clobber"; }
  std::string describe() const override { return "reverse_clobber()"; }
  DefenseOutcome apply(const PointCloud& cloud, Rng&) const override {
    std::vector<std::int64_t> kept(static_cast<size_t>(cloud.size()));
    std::iota(kept.begin(), kept.end(), std::int64_t{0});
    std::reverse(kept.begin(), kept.end());
    DefenseOutcome out{cloud.subset(kept), std::move(kept)};
    std::fill(out.cloud.labels.begin(), out.cloud.labels.end(), 0);
    return out;
  }
};

TEST(DefensePipelineTest, ChainedKeptMapsComposeToOriginalIndices) {
  const auto cloud = scene(300, 11);
  DefensePipeline pipeline;
  pipeline.add(make_srs_stage(60)).add(make_sor_stage(2, 1.0f, 1.0f));
  Rng rng(41);
  const DefenseOutcome outcome = pipeline.apply(cloud, rng);
  ASSERT_EQ(outcome.kept.size(), static_cast<size_t>(outcome.cloud.size()));
  for (size_t i = 0; i < outcome.kept.size(); ++i) {
    const auto j = static_cast<size_t>(outcome.kept[i]);
    EXPECT_EQ(outcome.cloud.positions[i], cloud.positions[j]);
    EXPECT_EQ(outcome.cloud.colors[i], cloud.colors[j]);
    EXPECT_EQ(outcome.cloud.labels[i], cloud.labels[j]);
  }
  // Strictly increasing: both stages preserve original point order, so
  // the composition must too.
  EXPECT_TRUE(std::is_sorted(outcome.kept.begin(), outcome.kept.end()));
}

TEST(DefensePipelineTest, MetricsScoreAgainstPermutedOriginalLabels) {
  auto model = tiny_model();
  const auto cloud = scene(120, 12);
  DefensePipeline pipeline;
  pipeline.add(make_srs_stage(20)).add(std::make_shared<ReverseAndClobberLabels>());
  Rng rng(43);
  const DefenseReport report = run_defended(*model, pipeline, cloud, 13, rng);

  // Recompute the expected metrics by hand from the surviving map.
  std::vector<int> truth(report.outcome.kept.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i] = cloud.labels[static_cast<size_t>(report.outcome.kept[i])];
  }
  const SegMetrics expected = evaluate_segmentation(report.predictions, truth, 13);
  EXPECT_EQ(report.metrics.accuracy, expected.accuracy);
  EXPECT_EQ(report.metrics.aiou, expected.aiou);
  // The clobbered carried labels would have produced a different score
  // (all-zero ground truth); guard that the fixture actually bites.
  const SegMetrics clobbered =
      evaluate_segmentation(report.predictions, report.outcome.cloud.labels, 13);
  EXPECT_NE(expected.accuracy, clobbered.accuracy);
}

TEST(DefensePipelineTest, RejectsMalformedStageOutcomes) {
  class BadMap final : public DefenseStage {
   public:
    const char* name() const override { return "bad_map"; }
    std::string describe() const override { return "bad_map()"; }
    DefenseOutcome apply(const PointCloud& cloud, Rng&) const override {
      return {cloud, std::vector<std::int64_t>{}};  // wrong size
    }
  };
  class OutOfRange final : public DefenseStage {
   public:
    const char* name() const override { return "oob"; }
    std::string describe() const override { return "oob()"; }
    DefenseOutcome apply(const PointCloud& cloud, Rng&) const override {
      std::vector<std::int64_t> kept(static_cast<size_t>(cloud.size()), cloud.size());
      return {cloud, std::move(kept)};
    }
  };
  class Duplicates final : public DefenseStage {
   public:
    const char* name() const override { return "dup"; }
    std::string describe() const override { return "dup()"; }
    DefenseOutcome apply(const PointCloud& cloud, Rng&) const override {
      // Two defended points claiming the same source index would
      // double-count ground truth and break scatter_rows' contract.
      std::vector<std::int64_t> kept(static_cast<size_t>(cloud.size()), 0);
      return {cloud, std::move(kept)};
    }
  };
  const auto cloud = scene(40, 13);
  Rng rng(1);
  DefensePipeline bad;
  bad.add(std::make_shared<BadMap>());
  EXPECT_THROW(bad.apply(cloud, rng), std::runtime_error);
  DefensePipeline oob;
  oob.add(std::make_shared<OutOfRange>());
  EXPECT_THROW(oob.apply(cloud, rng), std::runtime_error);
  DefensePipeline dup;
  dup.add(std::make_shared<Duplicates>());
  EXPECT_THROW(dup.apply(cloud, rng), std::runtime_error);
}

// ---------------------------------------------------------------------------
// DefendedModel: determinism, adaptive gradients, dropped-point scoring
// ---------------------------------------------------------------------------

AttackConfig small_bounded_config() {
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.field = AttackField::kColor;
  config.steps = 3;
  config.epsilon = 0.1f;
  config.step_size = 0.02f;
  return config;
}

TEST(DefendedModelTest, EmptyPipelineReproducesTheUndefendedEngineBitExactly) {
  auto model = tiny_model();
  const auto cloud = scene(96, 14);
  const AttackConfig config = small_bounded_config();
  const AttackResult plain = AttackEngine(*model, config).run(cloud);
  DefendedModel defended(*model, DefensePipeline{});
  const AttackResult through = AttackEngine(defended, config).run(cloud);
  EXPECT_TRUE(same_cloud(plain.perturbed, through.perturbed));
  EXPECT_EQ(plain.predictions, through.predictions);
  EXPECT_EQ(plain.steps_used, through.steps_used);
}

TEST(DefendedModelTest, StochasticSrsBatchIsByteIdenticalAcrossThreadCounts) {
  // Satellite: SRS with a fixed seed inside run_batch must not depend on
  // the worker count. The defense stream is a pure function of the
  // perturbed input bytes, so scheduling cannot reorder draws.
  auto model = tiny_model();
  DefensePipeline pipeline;
  pipeline.add(make_srs_fraction_stage(0.05f));
  DefendedModel defended(*model, pipeline, {.seed = 77});
  std::vector<pcss::data::PointCloud> clouds;
  for (int i = 0; i < 3; ++i) clouds.push_back(scene(96, 20 + static_cast<unsigned>(i)));

  const AttackConfig config = small_bounded_config();
  const AttackEngine engine(defended, config);
  const auto one = engine.run_batch(clouds, {.threads = 1});
  const auto two = engine.run_batch(clouds, {.threads = 2});
  ASSERT_EQ(one.size(), two.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_TRUE(same_cloud(one[i].perturbed, two[i].perturbed)) << "cloud " << i;
    EXPECT_EQ(one[i].predictions, two[i].predictions) << "cloud " << i;
    EXPECT_EQ(one[i].steps_used, two[i].steps_used) << "cloud " << i;
  }
  // And equal to the engine's per-cloud contract on a defended model.
  const AttackResult solo = engine.run(clouds[1], config.seed + 1);
  EXPECT_TRUE(same_cloud(solo.perturbed, one[1].perturbed));
}

TEST(DefendedModelTest, DroppedPointsScoreAsTheirGroundTruth) {
  auto model = tiny_model();
  DefensePipeline pipeline;
  pipeline.add(make_srs_fraction_stage(0.5f));  // drop half the cloud
  DefendedModel defended(*model, pipeline, {.seed = 5});
  const auto cloud = scene(100, 15);
  const std::vector<int> pred = defended.predict(cloud);
  ASSERT_EQ(pred.size(), static_cast<size_t>(cloud.size()));

  Rng rng = defended.stream(cloud, 0);
  const DefenseOutcome outcome = defended.pipeline().apply(cloud, rng);
  std::vector<bool> kept(static_cast<size_t>(cloud.size()), false);
  for (std::int64_t j : outcome.kept) kept[static_cast<size_t>(j)] = true;
  int dropped = 0;
  for (std::int64_t i = 0; i < cloud.size(); ++i) {
    if (kept[static_cast<size_t>(i)]) continue;
    ++dropped;
    EXPECT_EQ(pred[static_cast<size_t>(i)], cloud.labels[static_cast<size_t>(i)])
        << "dropped point " << i << " must score as still-correct";
  }
  EXPECT_EQ(dropped, 50);
}

TEST(DefendedModelTest, AdaptiveAttackFlowsGradientsThroughQuantization) {
  // Straight-through estimate: the engine must be able to optimize a
  // perturbation through a value-modifying (piecewise-constant) stage.
  auto model = tiny_model();
  DefensePipeline pipeline;
  pipeline.add(make_color_quantize_stage(16));
  DefendedModel defended(*model, pipeline);
  const auto cloud = scene(96, 16);
  AttackConfig config = small_bounded_config();
  const AttackResult result = AttackEngine(defended, config).run(cloud);
  EXPECT_EQ(result.steps_used, config.steps);
  EXPECT_GT(result.l2_color, 0.0) << "no perturbation reached the cloud";
  // Deterministic: the same run reproduces byte-identically.
  const AttackResult again = AttackEngine(defended, config).run(cloud);
  EXPECT_TRUE(same_cloud(result.perturbed, again.perturbed));
}

TEST(DefendedModelTest, EotAveragesResamplesAndStaysDeterministic) {
  auto model = tiny_model();
  DefensePipeline pipeline;
  pipeline.add(make_srs_fraction_stage(0.1f));
  DefendedModel eot(*model, pipeline, {.seed = 9, .eot_samples = 3});
  const auto cloud = scene(80, 17);
  const std::vector<int> a = eot.predict(cloud);
  const std::vector<int> b = eot.predict(cloud);
  EXPECT_EQ(a, b);
  const DefendedModelOptions zero_samples{.seed = 9, .eot_samples = 0};
  EXPECT_THROW(DefendedModel(*model, pipeline, zero_samples), std::invalid_argument);
  const DefendedModelOptions eot_on_deterministic{.seed = 9, .eot_samples = 2};
  EXPECT_THROW(DefendedModel(*model, DefensePipeline{}, eot_on_deterministic),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Defense grid driver
// ---------------------------------------------------------------------------

TEST(DefenseGridTest, RunJobCellsMatchTransferAndRunDefended) {
  auto source = tiny_model(9);
  auto other = tiny_model(10);
  const std::vector<pcss::data::PointCloud> clouds = {scene(96, 18), scene(96, 19)};

  const std::vector<GridVictim> victims = {{"source", source.get()}, {"other", other.get()}};
  const std::vector<GridAttack> attacks = {{"clean", true, {}},
                                           {"bounded", false, small_bounded_config()}};
  std::vector<GridDefense> defenses;
  defenses.push_back({"none", {}});
  DefensePipeline srs;
  srs.add(make_srs_fraction_stage(0.05f));
  defenses.push_back({"srs", srs});

  const std::uint64_t defense_seed = 1234;
  const DefenseGrid runner(*source, victims, attacks, defenses, defense_seed);
  DefenseGridResult grid = runner.blank_result(clouds.size());
  {
    const ScopedParamFreeze freeze_source(*source);
    const ScopedParamFreeze freeze_other(*other);
    for (size_t a = 0; a < attacks.size(); ++a) {
      for (size_t g = 0; g < clouds.size(); ++g) runner.run_job(a, clouds[g], g, true, grid, g);
    }
  }
  ASSERT_EQ(grid.cells.size(), 2u * 2u * 2u);
  ASSERT_EQ(grid.attacks.size(), 2u);
  EXPECT_EQ(grid.attacks[0].steps, (std::vector<long long>{0, 0}));

  // The (clean, none, other) cell is a plain transfer evaluation of the
  // clean clouds; (bounded, none, source) matches the engine + transfer
  // composition under the seed + index convention.
  const auto& clean_transfer = grid.cells[1];
  EXPECT_EQ(clean_transfer.attack, "clean");
  EXPECT_EQ(clean_transfer.defense, "none");
  EXPECT_EQ(clean_transfer.victim, "other");
  for (size_t g = 0; g < clouds.size(); ++g) {
    const SegMetrics direct =
        evaluate_segmentation(other->predict(clouds[g]), clouds[g].labels, 13);
    EXPECT_EQ(clean_transfer.cases[g].accuracy, direct.accuracy);
    EXPECT_EQ(clean_transfer.cases[g].aiou, direct.aiou);
  }

  AttackConfig config = small_bounded_config();
  AttackEngine engine(*source, config);
  for (size_t g = 0; g < clouds.size(); ++g) {
    const AttackResult adv = engine.run(clouds[g], config.seed + g);
    EXPECT_EQ(grid.attacks[1].steps[g], adv.steps_used);
    const SegMetrics self =
        evaluate_segmentation(source->predict(adv.perturbed), adv.perturbed.labels, 13);
    const GridCell& cell = grid.cells[4];  // bounded x none x source
    EXPECT_EQ(cell.attack, "bounded");
    EXPECT_EQ(cell.victim, "source");
    EXPECT_EQ(cell.cases[g].accuracy, self.accuracy);
    // And the SRS-defended cell reproduces run_defended with the grid's
    // published per-cell stream.
    Rng rng(defense_cell_seed(defense_seed, "bounded", srs.describe(), g));
    const DefenseReport report = run_defended(*source, srs, adv.perturbed, 13, rng);
    const GridCell& defended_cell = grid.cells[6];  // bounded x srs x source
    EXPECT_EQ(defended_cell.defense, "srs");
    EXPECT_EQ(defended_cell.cases[g].accuracy, report.metrics.accuracy);
    EXPECT_EQ(defended_cell.cases[g].points_kept, report.outcome.cloud.size());
  }
}

TEST(DefenseGridTest, RejectsEmptyListsAndNullVictims) {
  auto source = tiny_model(12);
  const std::vector<GridVictim> victims = {{"source", source.get()}};
  const std::vector<GridVictim> null_victim = {{"ghost", nullptr}};
  const std::vector<GridAttack> attacks = {{"clean", true, {}}};
  const std::vector<GridDefense> defenses = {{"none", {}}};
  EXPECT_THROW(DefenseGrid(*source, {}, attacks, defenses, 0), std::invalid_argument);
  EXPECT_THROW(DefenseGrid(*source, victims, {}, defenses, 0), std::invalid_argument);
  EXPECT_THROW(DefenseGrid(*source, victims, attacks, {}, 0), std::invalid_argument);
  EXPECT_THROW(DefenseGrid(*source, null_victim, attacks, defenses, 0), std::invalid_argument);
}

}  // namespace
