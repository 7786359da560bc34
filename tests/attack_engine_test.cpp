// AttackEngine contract tests: the config-derived recipe equals one
// composed from the public factories in all 8 paper configurations,
// batched determinism under different thread counts, config validation,
// the shared-delta mode, and observer/recipe pluggability.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "pcss/core/attack_engine.h"
#include "pcss/core/metrics.h"
#include "pcss/data/indoor.h"
#include "pcss/models/resgcn.h"

using namespace pcss::core;
using pcss::data::IndoorClass;
using pcss::data::IndoorSceneGenerator;
using pcss::tensor::Rng;

namespace {

/// Untrained tiny ResGCN: gradients flow regardless of training, which
/// is all the engine contract tests need; keeping it untrained makes the
/// whole file run in seconds.
class EngineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen_ = new IndoorSceneGenerator({.num_points = 160});
    Rng init(31);
    pcss::models::ResGCNConfig config;
    config.num_classes = pcss::data::kIndoorNumClasses;
    config.channels = 8;
    config.blocks = 1;
    model_ = new pcss::models::ResGCNSeg(config, init);
    Rng scene_rng(77);
    cloud_ = new pcss::data::PointCloud(gen_->generate_with_class(
        scene_rng, static_cast<int>(IndoorClass::kWindow), 8));
    clouds_ = new std::vector<PointCloud>();
    Rng batch_rng(78);
    for (int i = 0; i < 3; ++i) clouds_->push_back(gen_->generate(batch_rng));
  }
  static void TearDownTestSuite() {
    delete gen_;
    delete model_;
    delete cloud_;
    delete clouds_;
    gen_ = nullptr;
    model_ = nullptr;
    cloud_ = nullptr;
    clouds_ = nullptr;
  }

  static IndoorSceneGenerator* gen_;
  static pcss::models::ResGCNSeg* model_;
  static pcss::data::PointCloud* cloud_;
  static std::vector<PointCloud>* clouds_;
};

IndoorSceneGenerator* EngineFixture::gen_ = nullptr;
pcss::models::ResGCNSeg* EngineFixture::model_ = nullptr;
pcss::data::PointCloud* EngineFixture::cloud_ = nullptr;
std::vector<PointCloud>* EngineFixture::clouds_ = nullptr;

void expect_bit_identical(const AttackResult& a, const AttackResult& b) {
  ASSERT_EQ(a.perturbed.size(), b.perturbed.size());
  EXPECT_EQ(a.steps_used, b.steps_used);
  for (std::int64_t i = 0; i < a.perturbed.size(); ++i) {
    for (int axis = 0; axis < 3; ++axis) {
      // Exact float equality: both engines must execute the same
      // arithmetic in the same order.
      EXPECT_EQ(a.perturbed.colors[static_cast<size_t>(i)][axis],
                b.perturbed.colors[static_cast<size_t>(i)][axis])
          << "color mismatch at point " << i;
      EXPECT_EQ(a.perturbed.positions[static_cast<size_t>(i)][axis],
                b.perturbed.positions[static_cast<size_t>(i)][axis])
          << "position mismatch at point " << i;
    }
  }
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.l0_color, b.l0_color);
  EXPECT_EQ(a.l0_coord, b.l0_coord);
}

// ---------------------------------------------------------------------------
// Equivalence: all 8 objective x norm x field configurations.
// ---------------------------------------------------------------------------

class EngineEquivalence
    : public EngineFixture,
      public ::testing::WithParamInterface<
          std::tuple<AttackObjective, AttackNorm, AttackField>> {};

TEST_P(EngineEquivalence, ConfigRecipeMatchesComposedRecipeBitExactly) {
  const auto [objective, norm, field] = GetParam();
  AttackConfig config;
  config.objective = objective;
  config.norm = norm;
  config.field = field;
  config.steps = 4;
  config.cw_steps = 6;
  if (objective == AttackObjective::kObjectHiding) {
    config.target_class = static_cast<int>(IndoorClass::kWall);
    config.target_mask =
        mask_for_class(cloud_->labels, static_cast<int>(IndoorClass::kWindow));
  }

  // The engine whose recipe is derived from the config...
  const AttackResult derived = AttackEngine(*model_, config).run(*cloud_);
  // ...versus one whose recipe is assembled strategy-by-strategy from
  // the public factories.
  AttackRecipe recipe;
  recipe.make_objective = [&config]() -> std::unique_ptr<Objective> {
    if (config.objective == AttackObjective::kObjectHiding) {
      return make_hiding_objective(config.target_class, config.success_psr);
    }
    return make_degradation_objective(config.success_accuracy);
  };
  recipe.make_projection = [&config]() -> std::unique_ptr<Projection> {
    return config.norm == AttackNorm::kBounded ? make_clip_projection(config)
                                               : make_tanh_projection(config);
  };
  recipe.make_step_rule = [&config]() -> std::unique_ptr<StepRule> {
    return config.norm == AttackNorm::kBounded ? make_sign_step(config.step_size)
                                               : make_adam_step(config.adam_lr);
  };
  recipe.make_stop = [&config]() -> std::unique_ptr<StopCriterion> {
    return config.norm == AttackNorm::kBounded
               ? make_standard_stop(config.steps, 0)
               : make_standard_stop(config.cw_steps, config.stall_patience);
  };
  const AttackEngine engine(*model_, config, std::move(recipe));
  const AttackResult composed = engine.run(*cloud_);

  expect_bit_identical(derived, composed);
}

INSTANTIATE_TEST_SUITE_P(
    AllEight, EngineEquivalence,
    ::testing::Combine(::testing::Values(AttackObjective::kPerformanceDegradation,
                                         AttackObjective::kObjectHiding),
                       ::testing::Values(AttackNorm::kBounded, AttackNorm::kUnbounded),
                       ::testing::Values(AttackField::kColor, AttackField::kCoordinate)));

// ---------------------------------------------------------------------------
// Batched execution: determinism and seed derivation.
// ---------------------------------------------------------------------------

TEST_F(EngineFixture, RunBatchDeterministicAcrossThreadCounts) {
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.steps = 3;

  const AttackEngine engine(*model_, config);
  const auto seq = engine.run_batch(*clouds_, {.threads = 1});
  const auto par = engine.run_batch(*clouds_, {.threads = 2});

  ASSERT_EQ(seq.size(), clouds_->size());
  ASSERT_EQ(par.size(), clouds_->size());
  for (size_t i = 0; i < seq.size(); ++i) {
    SCOPED_TRACE("cloud " + std::to_string(i));
    expect_bit_identical(seq[i], par[i]);
  }
}

TEST_F(EngineFixture, RunBatchDerivesPerCloudSeeds) {
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.steps = 3;
  config.seed = 1234;
  const AttackEngine engine(*model_, config);
  const auto batch = engine.run_batch(*clouds_);
  for (size_t i = 0; i < clouds_->size(); ++i) {
    SCOPED_TRACE("cloud " + std::to_string(i));
    const AttackResult solo = engine.run((*clouds_)[i], config.seed + i);
    expect_bit_identical(batch[i], solo);
  }
}

TEST_F(EngineFixture, RunBatchUnboundedDeterministicAcrossThreadCounts) {
  AttackConfig config;
  config.norm = AttackNorm::kUnbounded;
  config.cw_steps = 4;

  const AttackEngine engine(*model_, config);
  const auto seq = engine.run_batch(*clouds_, {.threads = 1});
  const auto par = engine.run_batch(*clouds_, {.threads = 2});
  for (size_t i = 0; i < seq.size(); ++i) {
    SCOPED_TRACE("cloud " + std::to_string(i));
    expect_bit_identical(seq[i], par[i]);
  }
}

// ---------------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------------

TEST(AttackConfigValidate, CollectsEveryProblemAtOnce) {
  AttackConfig config;
  config.objective = AttackObjective::kObjectHiding;
  config.norm = AttackNorm::kBounded;
  config.steps = 0;
  config.epsilon = -0.1f;
  config.min_impact_fraction = -1.0f;
  config.target_class = 99;  // out of range for 13 classes
  // target_mask left empty: a fifth problem.
  const auto errors = config.validate(/*num_classes=*/13);
  EXPECT_EQ(errors.size(), 5u) << ::testing::PrintToString(errors);
}

TEST(AttackConfigValidate, AcceptsTheDefaults) {
  EXPECT_TRUE(AttackConfig{}.validate().empty());
  AttackConfig unbounded;
  unbounded.norm = AttackNorm::kUnbounded;
  EXPECT_TRUE(unbounded.validate(13).empty());
}

TEST(AttackConfigValidate, ChecksMaskSizeAgainstCloud) {
  AttackConfig config;
  config.objective = AttackObjective::kObjectHiding;
  config.target_class = 1;
  config.target_mask.assign(10, 1);
  EXPECT_TRUE(config.validate(13, 10).empty());
  EXPECT_EQ(config.validate(13, 11).size(), 1u);
}

TEST_F(EngineFixture, ConstructorThrowsListingAllErrors) {
  AttackConfig config;
  config.norm = AttackNorm::kUnbounded;
  config.cw_steps = -5;
  config.adam_lr = 0.0f;
  try {
    const AttackEngine engine(*model_, config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("cw_steps"), std::string::npos) << message;
    EXPECT_NE(message.find("adam_lr"), std::string::npos) << message;
  }
}

TEST_F(EngineFixture, RunRejectsMismatchedMask) {
  AttackConfig config;
  config.objective = AttackObjective::kObjectHiding;
  config.target_class = 2;
  config.target_mask.assign(3, 1);  // wrong size for the fixture cloud
  const AttackEngine engine(*model_, config);
  EXPECT_THROW(engine.run(*cloud_), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Shared-delta ("universal") mode.
// ---------------------------------------------------------------------------

TEST_F(EngineFixture, RunSharedDeterministicAcrossThreadCounts) {
  AttackConfig config;
  config.steps = 4;
  const AttackEngine engine(*model_, config);
  const SharedDeltaResult seq = engine.run_shared(*clouds_, {.threads = 1});
  const SharedDeltaResult par = engine.run_shared(*clouds_, {.threads = 2});
  EXPECT_EQ(seq.color_delta, par.color_delta);
  EXPECT_EQ(seq.accuracy_after, par.accuracy_after);
  EXPECT_EQ(seq.steps_used, par.steps_used);
}

TEST_F(EngineFixture, RunSharedRejectsMisalignedClouds) {
  auto clouds = *clouds_;
  IndoorSceneGenerator small({.num_points = 16});
  Rng rng(5);
  clouds.push_back(small.generate(rng));
  const AttackEngine engine(*model_, AttackConfig{});
  EXPECT_THROW(engine.run_shared(clouds), std::invalid_argument);
  EXPECT_THROW(engine.run_shared({}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Observability and recipe pluggability.
// ---------------------------------------------------------------------------

TEST_F(EngineFixture, ObserverSeesEveryStep) {
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.steps = 5;
  const AttackEngine engine(*model_, config);
  std::vector<int> steps_seen;
  const ExecPolicy policy{.observer = [&](const AttackProgress& p) {
    EXPECT_EQ(p.cloud_index, 0u);
    steps_seen.push_back(p.step);
  }};
  const AttackResult result = engine.run(*cloud_, policy);
  ASSERT_EQ(static_cast<int>(steps_seen.size()), result.steps_used);
  for (int s = 0; s < result.steps_used; ++s) EXPECT_EQ(steps_seen[static_cast<size_t>(s)], s);
}

TEST_F(EngineFixture, CustomStopCriterionOverridesBudget) {
  // A 2-step cap plugged in over a 50-step config: composability means
  // the engine honors the strategy, not the config field.
  class TwoSteps final : public StopCriterion {
   public:
    int max_steps() const override { return 2; }
    StepAction on_gain(int, double, bool) override { return StepAction::kContinue; }
  };
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.steps = 50;
  AttackRecipe recipe;
  recipe.make_stop = [] { return std::make_unique<TwoSteps>(); };
  const AttackEngine engine(*model_, config, std::move(recipe));
  EXPECT_EQ(engine.run(*cloud_).steps_used, 2);
}

TEST_F(EngineFixture, PartialRecipeFallsBackToConfigDefaults) {
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.steps = 3;
  // Only the stop criterion is overridden; objective/projection/step
  // rule come from the config-derived defaults.
  AttackRecipe recipe;
  recipe.make_stop = [&config] { return make_standard_stop(config.steps, 0); };
  const AttackEngine engine(*model_, config, std::move(recipe));
  const AttackResult via_recipe = engine.run(*cloud_);
  const AttackResult via_default = AttackEngine(*model_, config).run(*cloud_);
  expect_bit_identical(via_recipe, via_default);
}

TEST_F(EngineFixture, ModelParamGradsRestoredAfterRun) {
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.steps = 2;
  const AttackEngine engine(*model_, config);
  (void)engine.run(*cloud_);
  for (auto& p : model_->parameters()) {
    EXPECT_TRUE(p.requires_grad()) << "engine must restore parameter grad flags";
  }
}

TEST_F(EngineFixture, OverlappingParamFreezesRestoreOnlyWhenTheLastCloses) {
  // Two guards on one model whose lifetimes overlap without nesting, as
  // two run_spec calls of pcss_serve do: the model must stay frozen until
  // the last guard closes, and the flags must come back exactly then.
  const auto all_frozen = [] {
    for (const auto& p : model_->parameters()) {
      if (p.requires_grad()) return false;
    }
    return true;
  };
  auto first = std::make_unique<ScopedParamFreeze>(*model_);
  EXPECT_TRUE(all_frozen());
  auto second = std::make_unique<ScopedParamFreeze>(*model_);
  first.reset();
  EXPECT_TRUE(all_frozen()) << "a guard closing early must not thaw the model";
  second.reset();
  for (const auto& p : model_->parameters()) {
    EXPECT_TRUE(p.requires_grad()) << "the last guard must restore the flags";
  }
}

}  // namespace
