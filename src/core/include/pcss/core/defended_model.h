#pragma once

#include <cstdint>
#include <string>

#include "pcss/core/defense_stage.h"
#include "pcss/models/model.h"

namespace pcss::core {

using pcss::models::ModelInput;
using pcss::tensor::Tensor;

/// Knobs for the defended forward pass.
struct DefendedModelOptions {
  /// Base seed of the defense draws. The stream for one forward pass is
  /// a pure function of (seed, perturbed input bytes, EOT sample index),
  /// so batched attacks reproduce bit-identically for any worker count,
  /// shard partitioning, or resume point — the defended analogue of the
  /// engine's `config.seed + cloud index` convention.
  std::uint64_t seed = 0x5eedULL;
  /// Resampling-EOT draws averaged per forward pass. Only meaningful for
  /// stochastic pipelines (SRS): >1 makes the adaptive attacker optimize
  /// the expected logits over defense resamples instead of one draw.
  int eot_samples = 1;
};

/// Wraps any SegmentationModel so that attacks, `attack_cases`,
/// `run_defended`, and `AttackEngine::run_batch` run unchanged
/// *through* a defense pipeline — the adaptive-adversary setting where
/// the attacker knows and differentiates the defense.
///
/// forward() implements attack-through-defense semantics:
///   1. the incoming deltas are applied numerically and the pipeline
///      transforms the perturbed cloud (selection runs on what the
///      defender would actually see);
///   2. the inner model runs on the surviving points, with the delta
///      rows gathered differentiably so gradients flow back to the
///      attacked full-cloud perturbation (dropped points get zero
///      gradient — the BPDA treatment of the non-differentiable
///      selection), and any value change the defense made (color
///      quantization) entering as a constant residual — the
///      straight-through estimate;
///   3. the surviving logits scatter back to full-cloud rows; a dropped
///      point's row becomes a one-hot of its ground-truth label, i.e. a
///      point the defense removed counts as *not* successfully attacked
///      (conservative for the attacker, constant for the gradient).
///
/// Post-prediction smoothing stages (kNN label voting) are not part of
/// forward() — they rewrite discrete labels, so they apply at evaluation
/// time (run_defended / the defense grid), not inside the attacked
/// differentiable path.
///
/// Thread safety: forward() is stateless (streams derive from input
/// bytes), so the engine's concurrent batched attacks work exactly as
/// they do on an undefended model. named_params()/named_buffers()
/// forward to the inner model, which keeps the engine's parameter-grad
/// freeze effective through the wrapper.
class DefendedModel final : public SegmentationModel {
 public:
  DefendedModel(SegmentationModel& inner, DefensePipeline pipeline,
                DefendedModelOptions options = {});

  std::string name() const override;
  int num_classes() const override { return inner_.num_classes(); }

  Tensor forward(const ModelInput& input, bool training) override;

  /// Defense streams are a function of the *perturbed input bytes*, so the
  /// survivor set — and with it the graph shape — changes step to step:
  /// never capture a plan through a defense pipeline.
  bool plan_safe_forward() const override { return false; }

  std::vector<pcss::tensor::nn::NamedParam> named_params() override {
    return inner_.named_params();
  }
  std::vector<pcss::tensor::nn::NamedBuffer> named_buffers() override {
    return inner_.named_buffers();
  }

  SegmentationModel& inner() const { return inner_; }
  const DefensePipeline& pipeline() const { return pipeline_; }
  const DefendedModelOptions& options() const { return options_; }

  /// The deterministic defense stream used for `sample` of a forward
  /// pass over `perturbed`. Exposed so evaluations can reproduce the
  /// exact draw a defended attack saw.
  Rng stream(const PointCloud& perturbed, int sample) const;

 private:
  SegmentationModel& inner_;
  DefensePipeline pipeline_;
  DefendedModelOptions options_;
};

}  // namespace pcss::core
