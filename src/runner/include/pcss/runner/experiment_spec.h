#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pcss/core/attack.h"
#include "pcss/core/defense_stage.h"
#include "pcss/runner/scale.h"

namespace pcss::runner {

using pcss::core::AttackConfig;
using pcss::models::PointCloud;
using pcss::models::SegmentationModel;

/// The zoo-backed model instances the paper evaluates.
enum class ModelId { kPointNet2Indoor, kResGCNIndoor, kRandLAIndoor, kRandLAOutdoor };
enum class Dataset { kIndoor, kOutdoor };

const char* to_string(ModelId id);
const char* to_string(Dataset dataset);

/// How one labelled column of a spec is computed.
enum class VariantKind {
  kPerCloud,       ///< AttackEngine::run(cloud, seed + g), one result per cloud
  kNoiseBaseline,  ///< random_noise_baseline at another variant's per-cloud L2
  kSharedDelta,    ///< AttackEngine::run_shared, one delta for all clouds
};

const char* to_string(VariantKind kind);

/// One attack column of a paper table. `config` carries the semantic
/// fields (objective, norm, field, thresholds); the executor overwrites
/// the sizing fields (steps, cw_steps, epsilon, coord_epsilon) from the
/// active Scale unless `apply_scale` is cleared.
struct AttackVariant {
  std::string label;
  VariantKind kind = VariantKind::kPerCloud;
  AttackConfig config;
  bool apply_scale = true;

  /// kNoiseBaseline only: label of an *earlier* variant whose per-cloud
  /// L2 the noise is calibrated to, and the per-cloud seed base
  /// (cloud i draws noise with seed noise_seed_base + i).
  std::string calibrate_from;
  std::uint64_t noise_seed_base = 7000;
};

/// Declarative defense stage: a kind tag plus plain numeric parameters
/// (no callables), so grid specs canonicalize to stable strings just
/// like attack configs do. build_stage() materializes the pcss::core
/// stage; unrelated fields are ignored per kind.
enum class DefenseStageKind { kSrs, kSor, kVoxel, kQuantize, kKnnVote };

const char* to_string(DefenseStageKind kind);

struct DefenseStageSpec {
  DefenseStageKind kind = DefenseStageKind::kSrs;
  // kSrs: drops floor(n * fraction) points when fraction >= 0, else the
  // absolute count.
  float srs_fraction = -1.0f;
  std::int64_t srs_remove = 0;
  // kSor / kKnnVote:
  int k = 2;
  // kSor:
  float stddev_mult = 1.0f;
  float color_weight = 1.0f;
  // kVoxel:
  float voxel = 0.25f;
  // kQuantize:
  int quantize_levels = 8;
};

/// One labelled defense column of a grid spec; empty stages = "none".
struct DefensePipelineSpec {
  std::string label;
  std::vector<DefenseStageSpec> stages;
};

std::shared_ptr<const pcss::core::DefenseStage> build_stage(const DefenseStageSpec& spec);
pcss::core::DefensePipeline build_pipeline(const DefensePipelineSpec& spec);

/// What shape of experiment a spec describes (selects the executor path
/// and the result-document schema).
enum class SpecKind {
  kAttackTable,   ///< models x attack variants (Tables II/III/VI, ext_universal)
  kDefenseGrid,   ///< attack x defense x victim matrix (Tables VIII/IX)
};

const char* to_string(SpecKind kind);

/// Declarative description of one paper table/figure: everything the
/// executor needs to regenerate the numbers, and everything the result
/// store needs to content-address them. No callables — a spec plus a
/// Scale plus the model fingerprints canonicalizes to a stable string
/// (canonical_description) whose hash keys the cache.
///
/// kDefenseGrid specs reuse `variants` as the labelled attack columns
/// (kPerCloud only); `models` holds exactly one entry, the source model
/// the attacks are generated on.
struct ExperimentSpec {
  std::string name;   ///< registry key, e.g. "table3"
  std::string title;  ///< human title, e.g. "Table III — ..."
  SpecKind kind = SpecKind::kAttackTable;
  Dataset dataset = Dataset::kIndoor;
  std::vector<ModelId> models;      ///< evaluated in order (grid: the source)
  std::vector<AttackVariant> variants;  ///< computed in order (calibration!)
  std::uint64_t scene_seed = 5000;  ///< eval-scene generator seed
  bool use_l0_distance = false;     ///< report Eq. 8 L0 instead of Eq. 6 L2

  // kDefenseGrid only:
  std::vector<DefensePipelineSpec> defenses;  ///< defense columns, in order
  std::vector<ModelId> victims;               ///< prediction models, in order
  std::uint64_t defense_seed = 11000;         ///< base of the defense draws
  bool grid_include_clean = true;  ///< prepend a no-attack baseline column
};

/// Supplies models, their weight fingerprints, and evaluation scenes to
/// the executor. The production implementation (ZooModelProvider) wraps
/// the checkpoint-cached ModelZoo; tests substitute tiny untrained
/// models so executor behaviour is testable in seconds.
class ModelProvider {
 public:
  virtual ~ModelProvider() = default;

  virtual std::shared_ptr<SegmentationModel> model(ModelId id) = 0;

  /// Stable content fingerprint of the model's weights (for the zoo:
  /// a hash of the checkpoint file bytes). Two providers returning the
  /// same fingerprint must produce bit-identical models.
  virtual std::string model_fingerprint(ModelId id) = 0;

  virtual std::vector<PointCloud> scenes(Dataset dataset, int count,
                                         std::uint64_t seed) = 0;
};

/// All registered paper reproductions, in presentation order: the attack
/// tables table2, table3, table6 and ext_universal, then the defense
/// grids table8 and defense_grid. The hiding tables need per-cloud masks
/// and stay on their dedicated benches (see DESIGN.md).
const std::vector<ExperimentSpec>& spec_registry();

/// Registry lookup by name; null when unknown.
const ExperimentSpec* find_spec(const std::string& name);

/// `variant.config` with the sizing fields taken from `scale`.
AttackConfig scaled_config(const AttackVariant& variant, const Scale& scale);

/// Deterministic textual dump of everything that affects a run's
/// numbers: spec structure, scaled configs, scale, scene seed, and each
/// model's weight fingerprint. Hashing this yields the cache key.
std::string canonical_description(const ExperimentSpec& spec, const Scale& scale,
                                  ModelProvider& provider);

/// "<spec-name>-<16 hex chars>": the content-addressed run key.
std::string run_key(const ExperimentSpec& spec, const Scale& scale,
                    ModelProvider& provider);

}  // namespace pcss::runner
