// Compiled step-plan contracts (pcss/tensor/plan.h + engine integration):
// replayed steps must be BYTE-identical to eager execution for every model
// family and both projections, capture invalidation must fall back to
// eager re-capture without changing bytes, thread count must stay
// irrelevant with plans on, and the engine's gating must keep
// plan-incompatible configurations eager. Counter deltas (plan.captures /
// plan.replays / plan.fallbacks) prove plans actually engaged — a test
// that silently fell back to eager would otherwise pass vacuously. The
// GradientLifetime tests pin how long interior gradients live, in eager
// backward and in the plan's gradient slots, and what a replay acquires.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pcss/core/attack_engine.h"
#include "pcss/data/indoor.h"
#include "pcss/models/pointnet2.h"
#include "pcss/models/randlanet.h"
#include "pcss/models/resgcn.h"
#include "pcss/obs/metrics.h"
#include "pcss/tensor/ops.h"
#include "pcss/tensor/plan.h"
#include "pcss/tensor/pool.h"
#include "pcss/train/model_zoo.h"

using namespace pcss::core;
using pcss::data::IndoorSceneGenerator;
using pcss::models::SegmentationModel;
using pcss::tensor::Rng;
using pcss::tensor::Tensor;
namespace ops = pcss::tensor::ops;
namespace plan = pcss::tensor::plan;

namespace {

/// Process-global counter deltas around one scope.
struct PlanCounters {
  std::uint64_t captures0, replays0, fallbacks0;
  PlanCounters()
      : captures0(pcss::obs::metrics::counter("plan.captures").value()),
        replays0(pcss::obs::metrics::counter("plan.replays").value()),
        fallbacks0(pcss::obs::metrics::counter("plan.fallbacks").value()) {}
  std::uint64_t captures() const {
    return pcss::obs::metrics::counter("plan.captures").value() - captures0;
  }
  std::uint64_t replays() const {
    return pcss::obs::metrics::counter("plan.replays").value() - replays0;
  }
  std::uint64_t fallbacks() const {
    return pcss::obs::metrics::counter("plan.fallbacks").value() - fallbacks0;
  }
};

PointCloud tiny_scene(int points = 96, std::uint64_t seed = 42) {
  IndoorSceneGenerator gen({.num_points = points});
  Rng rng(seed);
  return gen.generate(rng);
}

enum class Family { kPointNet2, kResGCN, kRandLA };

const char* family_name(Family f) {
  switch (f) {
    case Family::kPointNet2: return "PointNet2";
    case Family::kResGCN: return "ResGCN";
    case Family::kRandLA: return "RandLA";
  }
  return "?";
}

std::unique_ptr<SegmentationModel> make_model(Family f, Rng& rng) {
  switch (f) {
    case Family::kPointNet2: {
      pcss::models::PointNet2Config c;
      c.num_classes = 13;
      c.c1 = 12;
      c.c2 = 16;
      c.head = 16;
      return std::make_unique<pcss::models::PointNet2Seg>(c, rng);
    }
    case Family::kResGCN: {
      pcss::models::ResGCNConfig c;
      c.num_classes = 13;
      c.channels = 12;
      c.blocks = 2;
      return std::make_unique<pcss::models::ResGCNSeg>(c, rng);
    }
    case Family::kRandLA: {
      pcss::models::RandLANetConfig c;
      c.num_classes = 13;
      c.c1 = 8;
      c.c2 = 12;
      c.c3 = 16;
      return std::make_unique<pcss::models::RandLANetSeg>(c, rng);
    }
  }
  return nullptr;
}

/// Exact float equality everywhere a result can differ: the replay must
/// execute the same arithmetic on the same bytes in the same order.
void expect_byte_identical(const AttackResult& a, const AttackResult& b) {
  ASSERT_EQ(a.perturbed.size(), b.perturbed.size());
  EXPECT_EQ(a.steps_used, b.steps_used);
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.l2_color, b.l2_color);
  EXPECT_EQ(a.l2_coord, b.l2_coord);
  EXPECT_EQ(a.l0_color, b.l0_color);
  EXPECT_EQ(a.l0_coord, b.l0_coord);
  for (std::int64_t i = 0; i < a.perturbed.size(); ++i) {
    for (int axis = 0; axis < 3; ++axis) {
      EXPECT_EQ(a.perturbed.colors[static_cast<size_t>(i)][axis],
                b.perturbed.colors[static_cast<size_t>(i)][axis])
          << "color mismatch at point " << i;
      EXPECT_EQ(a.perturbed.positions[static_cast<size_t>(i)][axis],
                b.perturbed.positions[static_cast<size_t>(i)][axis])
          << "position mismatch at point " << i;
    }
  }
}

ExecPolicy plan_on() { return {1, true, {}}; }
ExecPolicy plan_off() { return {1, false, {}}; }

// --- Plan layer unit contracts -------------------------------------------

TEST(PlanBuilder, CapturedGraphReplaysByteIdentical) {
  // A leaf -> square -> sum graph: capture one forward+backward, mutate
  // the leaf values in place, replay, and compare against a from-scratch
  // eager pass over the same values.
  Tensor x = Tensor::from_data({4, 3}, std::vector<float>(12, 0.5f));
  x.set_requires_grad(true);

  plan::PlanBuilder builder;
  Tensor y = ops::sum(ops::square(ops::scale(x, 2.0f)));
  y.backward();
  plan::CompiledPlan compiled;
  ASSERT_TRUE(builder.finish(compiled));
  ASSERT_TRUE(compiled.valid());
  const plan::PlanStats stats = compiled.stats();
  EXPECT_EQ(stats.forward_ops, 3u);
  EXPECT_GT(stats.backward_ops, 0u);
  EXPECT_GT(stats.nodes, 0u);
  EXPECT_GT(stats.arena_floats, 0u);

  for (int trial = 0; trial < 3; ++trial) {
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x.data()[i] = 0.1f * static_cast<float>(trial + 1) + 0.01f * static_cast<float>(i);
    }
    compiled.replay_forward();
    compiled.replay_backward();

    Tensor x2 = Tensor::from_data({4, 3},
                                  std::vector<float>(x.data(), x.data() + x.numel()));
    x2.set_requires_grad(true);
    Tensor y2 = ops::sum(ops::square(ops::scale(x2, 2.0f)));
    y2.backward();
    EXPECT_EQ(y.item(), y2.item()) << "trial " << trial;
    ASSERT_EQ(x.grad().size(), x2.grad().size());
    for (size_t i = 0; i < x.grad().size(); ++i) {
      EXPECT_EQ(x.grad()[i], x2.grad()[i]) << "grad " << i << " trial " << trial;
    }
  }
}

TEST(PlanBuilder, TrainingModeGraphIsNotCapturable) {
  // Dropout in training mode consumes fresh RNG state per step, so the
  // recorded node has no ForwardFn and finish() must refuse.
  Rng rng(11);
  auto model = make_model(Family::kPointNet2, rng);
  const PointCloud cloud = tiny_scene();

  plan::PlanBuilder builder;
  Tensor logits = model->forward(pcss::models::ModelInput::plain(cloud),
                                 /*training=*/true);
  Tensor loss = ops::sum(logits);
  loss.backward();
  plan::CompiledPlan compiled;
  EXPECT_FALSE(builder.finish(compiled));
  EXPECT_FALSE(compiled.valid());
}

// --- Engine byte-identity per model family --------------------------------

class PlanModels : public ::testing::TestWithParam<Family> {};

TEST_P(PlanModels, BoundedReplayMatchesEager) {
  Rng rng(21);
  auto model = make_model(GetParam(), rng);
  const PointCloud cloud = tiny_scene();
  AttackConfig config;
  config.field = AttackField::kColor;
  config.norm = AttackNorm::kBounded;
  config.steps = 5;
  AttackEngine engine(*model, config);

  PlanCounters counters;
  const AttackResult planned = engine.run(cloud, plan_on());
  EXPECT_EQ(counters.captures(), 1u) << family_name(GetParam());
  EXPECT_EQ(counters.replays(), 4u) << family_name(GetParam());
  const AttackResult eager = engine.run(cloud, plan_off());
  expect_byte_identical(planned, eager);
}

TEST_P(PlanModels, UnboundedReplayMatchesEager) {
  Rng rng(22);
  auto model = make_model(GetParam(), rng);
  const PointCloud cloud = tiny_scene();
  AttackConfig config;
  config.field = AttackField::kColor;
  config.norm = AttackNorm::kUnbounded;
  config.cw_steps = 5;
  AttackEngine engine(*model, config);

  PlanCounters counters;
  const AttackResult planned = engine.run(cloud, plan_on());
  EXPECT_EQ(counters.captures(), 1u) << family_name(GetParam());
  EXPECT_EQ(counters.replays(), 4u) << family_name(GetParam());
  const AttackResult eager = engine.run(cloud, plan_off());
  expect_byte_identical(planned, eager);
}

INSTANTIATE_TEST_SUITE_P(Zoo, PlanModels,
                         ::testing::Values(Family::kPointNet2, Family::kResGCN,
                                           Family::kRandLA),
                         [](const auto& param_info) {
                           return family_name(param_info.param);
                         });

// --- Invalidation, gating, threading --------------------------------------

TEST(PlanEngine, InvalidationFallsBackAndRecaptures) {
  // l0_on_color restorations bump the projection's plan epoch, so the
  // engine must drop the plan, replay the step eagerly (bit-identically),
  // and capture a fresh plan — visible as fallbacks > 0 with > 1 capture.
  Rng rng(23);
  auto model = make_model(Family::kResGCN, rng);
  const PointCloud cloud = tiny_scene();
  AttackConfig config;
  config.field = AttackField::kColor;
  config.norm = AttackNorm::kBounded;
  config.steps = 8;
  config.l0_on_color = true;
  config.min_impact_fraction = 0.25f;  // restore aggressively: invalidate often
  AttackEngine engine(*model, config);

  PlanCounters counters;
  const AttackResult planned = engine.run(cloud, plan_on());
  EXPECT_GE(counters.fallbacks(), 1u);
  EXPECT_GE(counters.captures(), 2u);
  const AttackResult eager = engine.run(cloud, plan_off());
  expect_byte_identical(planned, eager);
}

TEST(PlanEngine, CoordinateFieldStaysEager) {
  // Coordinate deltas rebuild host-side neighbor graphs every step; the
  // gate must keep such runs eager rather than replaying a stale graph.
  Rng rng(24);
  auto model = make_model(Family::kResGCN, rng);
  const PointCloud cloud = tiny_scene();
  AttackConfig config;
  config.field = AttackField::kCoordinate;
  config.norm = AttackNorm::kBounded;
  config.steps = 3;
  AttackEngine engine(*model, config);

  PlanCounters counters;
  (void)engine.run(cloud, plan_on());
  EXPECT_EQ(counters.captures(), 0u);
  EXPECT_EQ(counters.replays(), 0u);
}

TEST(PlanEngine, ThreadCountIrrelevantWithPlans) {
  Rng rng(25);
  auto model = make_model(Family::kResGCN, rng);
  std::vector<PointCloud> clouds;
  Rng scenes(26);
  IndoorSceneGenerator gen({.num_points = 96});
  for (int i = 0; i < 3; ++i) clouds.push_back(gen.generate(scenes));
  AttackConfig config;
  config.field = AttackField::kColor;
  config.steps = 4;
  AttackEngine engine(*model, config);

  const auto one = engine.run_batch(clouds, {1, true, {}});
  const auto two = engine.run_batch(clouds, {2, true, {}});
  const auto eager = engine.run_batch(clouds, {2, false, {}});
  ASSERT_EQ(one.size(), clouds.size());
  for (size_t i = 0; i < clouds.size(); ++i) {
    expect_byte_identical(one[i], two[i]);
    expect_byte_identical(one[i], eager[i]);
  }
}

TEST(PlanEngine, SharedDeltaReplayMatchesEager) {
  Rng rng(27);
  auto model = make_model(Family::kResGCN, rng);
  std::vector<PointCloud> clouds;
  Rng scenes(28);
  IndoorSceneGenerator gen({.num_points = 96});
  for (int i = 0; i < 2; ++i) clouds.push_back(gen.generate(scenes));
  AttackConfig config;
  config.field = AttackField::kColor;
  config.steps = 4;
  AttackEngine engine(*model, config);

  PlanCounters counters;
  const SharedDeltaResult planned = engine.run_shared(clouds, {2, true, {}});
  EXPECT_EQ(counters.captures(), clouds.size());
  EXPECT_EQ(counters.replays(), 3 * clouds.size());  // steps 1-3 of each cloud
  const SharedDeltaResult eager = engine.run_shared(clouds, {1, false, {}});
  EXPECT_EQ(planned.steps_used, eager.steps_used);
  ASSERT_EQ(planned.color_delta.size(), eager.color_delta.size());
  for (size_t i = 0; i < planned.color_delta.size(); ++i) {
    EXPECT_EQ(planned.color_delta[i], eager.color_delta[i]) << "delta " << i;
  }
  EXPECT_EQ(planned.accuracy_before, eager.accuracy_before);
  EXPECT_EQ(planned.accuracy_after, eager.accuracy_after);
}

TEST(PlanEngine, RepeatedSharedRunsKeepTheCallersPoolFlat) {
  // Plans captured and replayed on pool threads must not park their
  // pinned buffers in the calling thread's pool, where nothing reuses
  // them: a long-lived caller would grow by a few plans per call.
  Rng rng(29);
  auto model = make_model(Family::kResGCN, rng);
  std::vector<PointCloud> clouds;
  Rng scenes(30);
  IndoorSceneGenerator gen({.num_points = 96});
  for (int i = 0; i < 3; ++i) clouds.push_back(gen.generate(scenes));
  AttackConfig config;
  config.field = AttackField::kColor;
  config.steps = 3;
  const AttackEngine engine(*model, config);
  const ExecPolicy policy{3, true, {}};
  pcss::tensor::pool::trim();  // start from an empty pool, whatever ran before
  engine.run_shared(clouds, policy);
  const std::size_t after_first = pcss::tensor::pool::stats().cached_floats;
  for (int call = 2; call <= 4; ++call) {
    engine.run_shared(clouds, policy);
    EXPECT_EQ(pcss::tensor::pool::stats().cached_floats, after_first) << "call " << call;
  }
}

// --- Restart and stop on replayed steps -----------------------------------

/// Restarts at step 2 and stops at step 4: with step 0 capturing, both
/// decisions land on replayed steps.
class RestartThenStop final : public StopCriterion {
 public:
  int max_steps() const override { return 10; }
  StepAction on_gain(int step, double /*gain*/, bool /*converged*/) override {
    if (step == 2) return StepAction::kRestart;
    if (step == 4) return StepAction::kStop;
    return StepAction::kContinue;
  }
};

/// One plan-on and one plan-off run under RestartThenStop: equal bytes,
/// equal observer events, and exactly 1 capture + 4 replays with plans on.
void expect_restart_and_stop_replay_like_eager(AttackNorm norm) {
  Rng rng(29);
  auto model = make_model(Family::kResGCN, rng);
  const PointCloud cloud = tiny_scene();
  AttackConfig config;
  config.field = AttackField::kColor;
  config.norm = norm;
  AttackRecipe recipe;
  recipe.make_stop = []() -> std::unique_ptr<StopCriterion> {
    return std::make_unique<RestartThenStop>();
  };
  const AttackEngine engine(*model, config, recipe);

  struct Event {
    int step;
    double gain;
    bool operator==(const Event&) const = default;
  };
  std::vector<Event> planned_events, eager_events;
  ExecPolicy on = plan_on();
  on.observer = [&](const AttackProgress& p) { planned_events.push_back({p.step, p.gain}); };
  ExecPolicy off = plan_off();
  off.observer = [&](const AttackProgress& p) { eager_events.push_back({p.step, p.gain}); };

  PlanCounters counters;
  const AttackResult planned = engine.run(cloud, on);
  EXPECT_EQ(counters.captures(), 1u);
  EXPECT_EQ(counters.replays(), 4u);
  EXPECT_EQ(counters.fallbacks(), 0u);
  const AttackResult eager = engine.run(cloud, off);
  EXPECT_EQ(planned.steps_used, 4);
  expect_byte_identical(planned, eager);
  ASSERT_EQ(planned_events.size(), 5u);  // steps 0-4; step 4 stops after its forward
  EXPECT_EQ(planned_events, eager_events);
}

TEST(PlanEngine, BoundedRestartAndStopOnReplayedSteps) {
  expect_restart_and_stop_replay_like_eager(AttackNorm::kBounded);
}

TEST(PlanEngine, UnboundedRestartAndStopOnReplayedSteps) {
  expect_restart_and_stop_replay_like_eager(AttackNorm::kUnbounded);
}

// --- Gradient lifetime ------------------------------------------------------

TEST(GradientLifetime, EagerBackwardReleasesInteriorGradsKeepsLeaves) {
  Tensor x = Tensor::from_data({4, 3}, std::vector<float>(12, 0.5f));
  x.set_requires_grad(true);
  Tensor scaled = ops::scale(x, 2.0f);
  Tensor squared = ops::square(scaled);
  Tensor loss = ops::sum(squared);
  loss.backward();
  EXPECT_TRUE(scaled.grad().empty()) << "interior grad must die after its own rule";
  EXPECT_TRUE(squared.grad().empty()) << "interior grad must die after its own rule";
  ASSERT_EQ(x.grad().size(), 12u) << "leaves keep their grads";
  for (float g : x.grad()) EXPECT_EQ(g, 4.0f);  // d/dx (2x)^2 = 8x = 4 at x = 0.5
  EXPECT_EQ(loss.grad().size(), 1u) << "the root keeps its seed";
}

TEST(GradientLifetime, PlanStatsCountGradSlots) {
  // A chain x -> scale^L -> sum: each rule writes its parent's grad and
  // then retires its own, so at most two interior grads are ever live and
  // the plan needs exactly two n-float slots however long the chain is.
  constexpr std::int64_t n = 64;
  constexpr std::size_t chain = 6;
  Tensor x = Tensor::from_data({n}, std::vector<float>(n, 0.25f));
  x.set_requires_grad(true);

  plan::PlanBuilder builder;
  Tensor y = x;
  for (std::size_t i = 0; i < chain; ++i) y = ops::scale(y, 1.5f);
  Tensor loss = ops::sum(y);
  loss.backward();
  plan::CompiledPlan compiled;
  ASSERT_TRUE(builder.finish(compiled));

  const plan::PlanStats stats = compiled.stats();
  EXPECT_EQ(stats.grad_slots, 2u);
  EXPECT_EQ(stats.backward_ops, chain + 1);
  EXPECT_EQ(stats.grad_buffers, 2u + chain);  // x and the root, plus one bind per link
  // Pinned: every node's value (x, the chain, the scalar root), the x and
  // root gradients, and the two slots. Per-node interior gradients would
  // have added chain * n more.
  const std::size_t values = n + chain * n + 1;
  EXPECT_EQ(stats.arena_floats, values + (n + 1) + 2 * n);

  const std::vector<float> eager_grad(x.grad().begin(), x.grad().end());
  compiled.replay_forward();
  compiled.replay_backward();
  EXPECT_EQ(std::vector<float>(x.grad().begin(), x.grad().end()), eager_grad);
  EXPECT_TRUE(y.grad().empty()) << "a replay retires interior grads like eager backward";
}

/// One untrained zoo architecture: the model shape the runner attacks,
/// with the scene size its zoo trains and evaluates on.
struct ZooArch {
  const char* name;
  std::function<std::unique_ptr<SegmentationModel>(Rng&)> make;
  bool outdoor;
  std::uint64_t acquires_per_replay;  ///< gemm_a_bt's packed W^T scratch
};

class GradientLifetimeZoo : public ::testing::TestWithParam<ZooArch> {};

TEST_P(GradientLifetimeZoo, ReplayAcquiresOnlyPackedTransposeScratch) {
  // Interior gradients come from the plan's slots, so a replay acquires no
  // more than the ops it runs do themselves: gemm_a_bt packs the frozen
  // weight's transpose into a pooled buffer on every call (a known cost).
  const ZooArch& arch = GetParam();
  Rng rng(41);
  std::unique_ptr<SegmentationModel> model = arch.make(rng);
  Rng scene_rng(43);
  const PointCloud cloud =
      arch.outdoor
          ? pcss::data::OutdoorSceneGenerator(pcss::train::zoo_outdoor_config())
                .generate(scene_rng)
          : IndoorSceneGenerator(pcss::train::zoo_indoor_config()).generate(scene_rng);
  const ScopedParamFreeze frozen(*model);
  AttackConfig config;
  config.field = AttackField::kColor;
  config.norm = AttackNorm::kBounded;
  const std::vector<std::uint8_t> mask(static_cast<std::size_t>(cloud.size()), 1);
  auto objective = make_degradation_objective(config.success_accuracy);
  auto projection = make_clip_projection(config);
  Rng init(17);
  projection->init(cloud, mask, init);

  plan::CompiledPlan compiled;
  {
    plan::PlanBuilder builder;
    const FieldDeltas deltas = projection->make_deltas();
    const Tensor logits =
        model->forward({&cloud, deltas.color, deltas.coord}, /*training=*/false);
    projection->total_loss(objective->loss(logits, cloud, mask)).backward();
    ASSERT_TRUE(builder.finish(compiled)) << arch.name;
  }
  EXPECT_GT(compiled.stats().grad_slots, 0u) << arch.name;
  const auto acquires = [] {
    std::uint64_t total = 0;
    for (const auto& slot : pcss::tensor::pool::slot_stats()) total += slot.acquires;
    return total;
  };
  constexpr std::uint64_t kReplays = 5;
  const std::uint64_t before = acquires();
  for (std::uint64_t r = 0; r < kReplays; ++r) {
    (void)projection->make_deltas();
    compiled.replay_forward();
    compiled.replay_backward();
  }
  EXPECT_EQ((acquires() - before) / kReplays, arch.acquires_per_replay) << arch.name;
  EXPECT_EQ((acquires() - before) % kReplays, 0u) << arch.name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, GradientLifetimeZoo,
    ::testing::Values(
        ZooArch{"PointNet2Indoor",
                [](Rng& r) -> std::unique_ptr<SegmentationModel> {
                  pcss::models::PointNet2Config c;
                  c.num_classes = pcss::data::kIndoorNumClasses;
                  return std::make_unique<pcss::models::PointNet2Seg>(c, r);
                },
                false, 10},
        ZooArch{"ResGCNIndoor",
                [](Rng& r) -> std::unique_ptr<SegmentationModel> {
                  pcss::models::ResGCNConfig c;
                  c.num_classes = pcss::data::kIndoorNumClasses;
                  return std::make_unique<pcss::models::ResGCNSeg>(c, r);
                },
                false, 8},
        ZooArch{"RandLAIndoor",
                [](Rng& r) -> std::unique_ptr<SegmentationModel> {
                  pcss::models::RandLANetConfig c;
                  c.num_classes = pcss::data::kIndoorNumClasses;
                  return std::make_unique<pcss::models::RandLANetSeg>(c, r);
                },
                false, 20},
        ZooArch{"RandLAOutdoor",
                [](Rng& r) -> std::unique_ptr<SegmentationModel> {
                  pcss::models::RandLANetConfig c;
                  c.num_classes = pcss::data::kOutdoorNumClasses;
                  return std::make_unique<pcss::models::RandLANetSeg>(c, r);
                },
                true, 20}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

}  // namespace
