#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pcss/core/metrics.h"
#include "pcss/models/model.h"
#include "pcss/tensor/rng.h"
#include "pcss/tensor/tensor.h"

namespace pcss::core {

using pcss::models::ModelInput;
using pcss::models::PointCloud;
using pcss::models::SegmentationModel;
using pcss::tensor::Rng;
using pcss::tensor::Tensor;

/// The paper's two attacker objectives (§III).
enum class AttackObjective {
  kPerformanceDegradation,  ///< untargeted: maximize misclassification (Eq. 4/5)
  kObjectHiding,            ///< targeted: relabel X_T as the target class (Eq. 1/3)
};

/// Norm regime (§IV-B): bounded follows Algorithm 1 (PGD-style),
/// unbounded follows the CW-style optimization of Eq. 3/5.
enum class AttackNorm { kBounded, kUnbounded };

/// Which input field is perturbed (§IV, Finding 1).
enum class AttackField { kColor, kCoordinate, kBoth };

const char* to_string(AttackObjective o);
const char* to_string(AttackNorm n);
const char* to_string(AttackField f);

/// Full attack configuration — the paper's 8 configurations are the cross
/// product of objective x norm x field. Defaults follow §V-A (scaled for
/// CPU where noted).
struct AttackConfig {
  AttackObjective objective = AttackObjective::kPerformanceDegradation;
  AttackNorm norm = AttackNorm::kBounded;
  AttackField field = AttackField::kColor;

  int steps = 50;          ///< bounded budget (paper: 50); unbounded uses cw_steps
  int cw_steps = 200;      ///< unbounded budget (paper: 1000; CPU-scaled)
  float epsilon = 0.08f;   ///< bounded clip for color channels
  float coord_epsilon = 0.05f;  ///< bounded clip for raw coordinates (meters)
  float step_size = 0.01f;      ///< gamma (paper: 0.01)
  float lambda1 = 1.0f;         ///< adversarial-loss weight (paper: 1)
  float lambda2 = 0.1f;         ///< smoothness weight (paper: 0.1)
  float adam_lr = 0.01f;        ///< unbounded optimizer lr (paper: 0.01)
  int smooth_alpha = 10;        ///< Eq. 9 neighbor count (paper: 10)

  int target_class = -1;                  ///< object hiding target label
  std::vector<std::uint8_t> target_mask;  ///< X_T membership; empty = all points

  /// Converge() thresholds: degradation stops once accuracy drops below
  /// `success_accuracy` (paper: 1/13 indoor, 1/8 outdoor); hiding stops
  /// once PSR exceeds `success_psr`. Negative disables early exit.
  float success_accuracy = -1.0f;
  float success_psr = -1.0f;

  /// Eq. 12 L0 schedule for coordinate attacks: per iteration the
  /// `min_impact_fraction` least impactful points are restored, until
  /// fewer than 10% of X_T remain perturbable.
  float min_impact_fraction = 0.025f;

  /// Applies the Eq. 12 restoration schedule to the color field too.
  /// Used by the Table II field comparison, which measures both fields
  /// under the L0 distance (Eq. 8) — the paper's color L0 (~27% of the
  /// cloud) implies the same sparsification ran on color there.
  bool l0_on_color = false;

  int stall_patience = 10;  ///< CW random-restart trigger (paper §IV-B)
  std::uint64_t seed = 99;  ///< random init / restart noise

  /// Checks every config-level invariant and returns a human-readable
  /// description of each violation (empty = valid). `num_classes`, when
  /// >= 0, additionally bounds target_class for object hiding;
  /// `num_points`, when >= 0, checks the target_mask size against a
  /// specific cloud. AttackEngine calls this at construction and throws
  /// std::invalid_argument listing every problem at once.
  std::vector<std::string> validate(int num_classes = -1,
                                    std::int64_t num_points = -1) const;
};

/// Outcome of one attack run on one cloud.
struct AttackResult {
  PointCloud perturbed;          ///< cloud with the final perturbation applied
  std::vector<int> predictions;  ///< model predictions on `perturbed`
  int steps_used = 0;

  double l2_color = 0.0;   ///< sqrt(Eq. 6) over attacked color channels
  double l2_coord = 0.0;
  std::int64_t l0_color = 0;  ///< Eq. 8: number of points with changed color
  std::int64_t l0_coord = 0;
};

/// Random-noise baseline (§V-C): Gaussian color noise scaled to a target
/// L2 magnitude, projected into valid color range.
AttackResult random_noise_baseline(SegmentationModel& model, const PointCloud& cloud,
                                   double l2_target, std::uint64_t seed);

/// The perturbation norms of a perturbed cloud relative to the original.
void measure_perturbation(const PointCloud& original, const PointCloud& perturbed,
                          AttackResult& out);

/// Applies raw-unit deltas (each [N*3] or null for "untouched") to a
/// cloud; colors are clamped to [0,1] since invalid adversarial colors
/// cannot exist physically. Throws std::invalid_argument when a non-null
/// delta does not hold exactly cloud.size()*3 values.
PointCloud apply_field_deltas(const PointCloud& cloud, const std::vector<float>* color_delta,
                              const std::vector<float>* coord_delta);

}  // namespace pcss::core
