#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pcss/core/attack.h"
#include "pcss/core/attack_engine.h"
#include "pcss/core/defense_stage.h"

namespace pcss::core {

// ---------------------------------------------------------------------------
// Attack x defense x victim evaluation grid (paper §V-F + §V-G).
//
// One driver subsumes the defended evaluation (Table VIII: defense on,
// victim == source) and the transferability evaluation (Table IX:
// defense "none", victim != source): each attack column runs once on the
// source model, and every (defense, victim) pair then scores the same
// adversarial clouds — victims are compared on identical defended input.
// ---------------------------------------------------------------------------

/// One attack column. A `clean` column skips the engine and evaluates
/// the unperturbed clouds (the grid's baseline row).
struct GridAttack {
  std::string label;
  bool clean = false;
  AttackConfig config{};
};

struct GridDefense {
  std::string label;
  DefensePipeline pipeline;  ///< empty = "none"
};

struct GridVictim {
  std::string label;
  SegmentationModel* model = nullptr;
};

/// One cloud in one (attack x defense x victim) cell. Metrics are scored
/// on the surviving points against the original ground truth permuted
/// through the pipeline's index map.
struct GridCase {
  double accuracy = 0.0;
  double aiou = 0.0;
  std::int64_t points_kept = 0;
};

struct GridCell {
  std::string attack;
  std::string defense;
  std::string victim;
  std::vector<GridCase> cases;  ///< cloud order
};

/// Attack-side bookkeeping, one per attack column (zeros for clean).
struct GridAttackTrace {
  std::string label;
  std::vector<double> l2_color;   ///< per cloud
  std::vector<long long> steps;   ///< per cloud
};

struct DefenseGridResult {
  std::vector<GridCell> cells;  ///< attack-major, then defense, then victim
  std::vector<GridAttackTrace> attacks;
};

/// A grid's columns and scoring, validated once, with one AttackEngine
/// per attack column. The scheduling unit is one (attack column, cloud)
/// job: run_job() attacks the cloud, then applies every defense to it
/// once and lets every victim predict each defended cloud. The spans and
/// models passed in must outlive the grid, and the source and victims
/// must stay frozen (ScopedParamFreeze) while jobs run.
class DefenseGrid {
 public:
  /// Throws std::invalid_argument for an empty victim, attack or defense
  /// list, a null victim, or an attack config the source rejects.
  DefenseGrid(SegmentationModel& source, std::span<const GridVictim> victims,
              std::span<const GridAttack> attacks, std::span<const GridDefense> defenses,
              std::uint64_t defense_seed);

  std::size_t attack_count() const { return attacks_.size(); }

  /// An empty result for `clouds` clouds: labelled cells and traces whose
  /// per-cloud vectors are sized, so that jobs can write their slots.
  DefenseGridResult blank_result(std::size_t clouds) const;

  /// One job: attacks `cloud` with column `attack` on RNG stream
  /// config.seed + g on the calling thread (a clean column skips the
  /// attack), applies every defense with defense_cell_seed at global
  /// index g, and scores every victim on the defended clouds. Writes only
  /// slot `slot` of the column's trace and cells in `out`, so jobs of
  /// distinct (attack, slot) pairs may run concurrently on one result.
  void run_job(std::size_t attack, const PointCloud& cloud, std::size_t g, bool plan,
               DefenseGridResult& out, std::size_t slot) const;

 private:
  std::span<const GridVictim> victims_;
  std::span<const GridAttack> attacks_;
  std::span<const GridDefense> defenses_;
  std::uint64_t defense_seed_;
  std::vector<std::unique_ptr<AttackEngine>> engines_;  ///< null for a clean column
  std::vector<std::string> describes_;                  ///< per defense
};

}  // namespace pcss::core
