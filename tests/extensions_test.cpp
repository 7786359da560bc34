// Tests for the §VI extension features: the PCT model, the universal
// multi-cloud attack, adversarial training, and the optional L0
// sparsification of the color field.
#include <gtest/gtest.h>

#include <cmath>

#include "pcss/core/adv_train.h"
#include "pcss/core/attack_engine.h"
#include "pcss/core/metrics.h"
#include "pcss/data/indoor.h"
#include "pcss/models/pct.h"
#include "pcss/models/resgcn.h"
#include "pcss/tensor/ops.h"
#include "pcss/tensor/optim.h"

using namespace pcss::core;
namespace ops = pcss::tensor::ops;
using pcss::data::IndoorSceneGenerator;
using pcss::models::ModelInput;
using pcss::models::PctConfig;
using pcss::models::PctSeg;
using pcss::tensor::Rng;
using pcss::tensor::Tensor;

namespace {

PctSeg make_tiny_pct(Rng& rng) {
  PctConfig config;
  config.num_classes = 13;
  config.dim = 12;
  config.layers = 1;
  return PctSeg(config, rng);
}

TEST(Pct, ForwardShapeAndDeterminism) {
  Rng rng(1);
  PctSeg model = make_tiny_pct(rng);
  IndoorSceneGenerator gen({.num_points = 96});
  Rng srng(2);
  const auto cloud = gen.generate(srng);
  ModelInput input = ModelInput::plain(cloud);
  Tensor logits = model.forward(input, false);
  EXPECT_EQ(logits.dim(0), cloud.size());
  EXPECT_EQ(logits.dim(1), 13);
  EXPECT_EQ(model.predict(cloud), model.predict(cloud));
}

TEST(Pct, AttentionGradientsReachColorAndCoords) {
  Rng rng(3);
  PctSeg model = make_tiny_pct(rng);
  IndoorSceneGenerator gen({.num_points = 80});
  Rng srng(4);
  const auto cloud = gen.generate(srng);
  Tensor cdelta = Tensor::zeros({cloud.size(), 3});
  cdelta.set_requires_grad(true);
  Tensor pdelta = Tensor::zeros({cloud.size(), 3});
  pdelta.set_requires_grad(true);
  ModelInput input{&cloud, cdelta, pdelta};
  ops::sum(ops::square(model.forward(input, false))).backward();
  float cn = 0.0f, pn = 0.0f;
  for (float g : cdelta.grad()) cn += g * g;
  for (float g : pdelta.grad()) pn += g * g;
  EXPECT_GT(cn, 0.0f);
  EXPECT_GT(pn, 0.0f) << "positional encoding must carry coordinate gradients";
}

TEST(Pct, OverfitsTinyScene) {
  Rng rng(5);
  PctSeg model = make_tiny_pct(rng);
  IndoorSceneGenerator gen({.num_points = 96});
  Rng srng(6);
  const auto cloud = gen.generate(srng);
  pcss::tensor::optim::Adam opt(model.parameters(), 0.02f);
  for (int it = 0; it < 60; ++it) {
    ModelInput input = ModelInput::plain(cloud);
    Tensor loss = ops::nll_loss_masked(
        ops::log_softmax_rows(model.forward(input, true)), cloud.labels, {});
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  const auto pred = model.predict(cloud);
  std::int64_t correct = 0;
  for (size_t i = 0; i < pred.size(); ++i) correct += pred[i] == cloud.labels[i];
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(pred.size()), 0.4);
}

TEST(Pct, AttackFrameworkApplies) {
  // The §VI claim: gradient-based attacks transfer to transformer
  // architectures unchanged.
  Rng rng(7);
  PctSeg model = make_tiny_pct(rng);
  IndoorSceneGenerator gen({.num_points = 96});
  Rng srng(8);
  const auto cloud = gen.generate(srng);
  AttackConfig config;
  config.norm = AttackNorm::kBounded;
  config.steps = 3;
  const auto result = AttackEngine(model, config).run(cloud);
  EXPECT_EQ(static_cast<std::int64_t>(result.predictions.size()), cloud.size());
  EXPECT_GT(result.l0_color, 0);
}

// --- universal multi-cloud attack ---------------------------------------------

class UniversalFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen_ = new IndoorSceneGenerator({.num_points = 128});
    Rng init(9);
    pcss::models::ResGCNConfig mc;
    mc.num_classes = 13;
    mc.channels = 16;
    mc.blocks = 2;
    model_ = new pcss::models::ResGCNSeg(mc, init);
    Rng scenes(10);
    clouds_ = new std::vector<PointCloud>();
    for (int i = 0; i < 3; ++i) clouds_->push_back(gen_->generate(scenes));
    pcss::tensor::optim::Adam opt(model_->parameters(), 0.02f);
    for (int it = 0; it < 120; ++it) {
      const auto& c = (*clouds_)[static_cast<size_t>(it) % clouds_->size()];
      ModelInput input = ModelInput::plain(c);
      Tensor loss = ops::nll_loss_masked(
          ops::log_softmax_rows(model_->forward(input, true)), c.labels, {});
      opt.zero_grad();
      loss.backward();
      opt.step();
    }
  }
  static void TearDownTestSuite() {
    delete gen_;
    delete model_;
    delete clouds_;
  }
  static IndoorSceneGenerator* gen_;
  static pcss::models::ResGCNSeg* model_;
  static std::vector<PointCloud>* clouds_;
};

IndoorSceneGenerator* UniversalFixture::gen_ = nullptr;
pcss::models::ResGCNSeg* UniversalFixture::model_ = nullptr;
std::vector<PointCloud>* UniversalFixture::clouds_ = nullptr;

TEST_F(UniversalFixture, SharedDeltaDropsAccuracyOnAllClouds) {
  AttackConfig config;
  config.steps = 15;
  config.epsilon = 0.25f;
  config.step_size = 0.02f;
  const auto result = AttackEngine(*model_, config).run_shared(*clouds_);
  ASSERT_EQ(result.accuracy_before.size(), clouds_->size());
  double before = 0.0, after = 0.0;
  for (size_t i = 0; i < clouds_->size(); ++i) {
    before += result.accuracy_before[i];
    after += result.accuracy_after[i];
  }
  EXPECT_LT(after, before - 0.1 * static_cast<double>(clouds_->size()))
      << "one shared delta must hurt the average cloud";
}

TEST_F(UniversalFixture, DeltaRespectsEpsilon) {
  AttackConfig config;
  config.steps = 5;
  config.epsilon = 0.1f;
  const auto result = AttackEngine(*model_, config).run_shared(*clouds_);
  for (float d : result.color_delta) EXPECT_LE(std::abs(d), config.epsilon + 1e-5f);
}

TEST_F(UniversalFixture, ApplyClampsColors) {
  std::vector<float> delta(static_cast<size_t>((*clouds_)[0].size() * 3), 0.9f);
  const auto adv = apply_field_deltas((*clouds_)[0], &delta, nullptr);
  EXPECT_NO_THROW(adv.validate());
}

TEST_F(UniversalFixture, RejectsMisalignedClouds) {
  auto clouds = *clouds_;
  IndoorSceneGenerator small({.num_points = 64});
  Rng rng(11);
  clouds.push_back(small.generate(rng));
  const AttackEngine engine(*model_, AttackConfig{});
  EXPECT_THROW(engine.run_shared(clouds), std::invalid_argument);
  EXPECT_THROW(engine.run_shared({}), std::invalid_argument);
  // A delta that does not cover the cloud exactly is rejected, not read
  // out of bounds.
  const std::vector<float> short_delta = {1.0f};
  const std::vector<float> long_delta(static_cast<size_t>((*clouds_)[0].size() * 3 + 3), 0.0f);
  EXPECT_THROW(apply_field_deltas((*clouds_)[0], &short_delta, nullptr), std::invalid_argument);
  EXPECT_THROW(apply_field_deltas((*clouds_)[0], nullptr, &short_delta), std::invalid_argument);
  EXPECT_THROW(apply_field_deltas((*clouds_)[0], &long_delta, nullptr), std::invalid_argument);
}

// --- adversarial training ------------------------------------------------------

TEST(AdversarialTraining, RunsAndCountsAdvSteps) {
  IndoorSceneGenerator gen({.num_points = 96});
  Rng init(12);
  pcss::models::ResGCNConfig mc;
  mc.num_classes = 13;
  mc.channels = 8;
  mc.blocks = 1;
  pcss::models::ResGCNSeg model(mc, init);
  AdvTrainConfig config;
  config.iterations = 20;
  config.scene_pool = 3;
  config.attack_steps = 2;
  config.adv_fraction = 0.5f;
  const auto stats = adversarial_train(
      model, [&gen](Rng& rng) { return gen.generate(rng); }, config);
  EXPECT_GT(stats.adversarial_steps, 0);
  EXPECT_LT(stats.adversarial_steps, config.iterations);
  EXPECT_TRUE(std::isfinite(stats.final_loss));
}

// --- l0_on_color option ---------------------------------------------------------

TEST_F(UniversalFixture, L0OnColorSparsifiesBoundedAttack) {
  const auto& cloud = (*clouds_)[0];
  AttackConfig dense;
  dense.norm = AttackNorm::kBounded;
  dense.steps = 8;
  const auto r_dense = AttackEngine(*model_, dense).run(cloud);

  AttackConfig sparse = dense;
  sparse.l0_on_color = true;
  sparse.min_impact_fraction = 0.05f;
  const auto r_sparse = AttackEngine(*model_, sparse).run(cloud);
  EXPECT_LT(r_sparse.l0_color, r_dense.l0_color)
      << "Eq. 12 schedule on color must reduce the L0 count";
  EXPECT_GT(r_sparse.l0_color, 0);
}

}  // namespace
