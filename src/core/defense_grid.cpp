#include "pcss/core/defense_grid.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "pcss/core/metrics.h"
#include "pcss/core/worker_pool.h"
#include "pcss/obs/trace.h"

namespace pcss::core {

DefenseGrid::DefenseGrid(SegmentationModel& source, std::span<const GridVictim> victims,
                         std::span<const GridAttack> attacks,
                         std::span<const GridDefense> defenses, std::uint64_t defense_seed)
    : victims_(victims), attacks_(attacks), defenses_(defenses), defense_seed_(defense_seed) {
  if (victims.empty()) throw std::invalid_argument("evaluate_defense_grid: no victims");
  if (attacks.empty()) throw std::invalid_argument("evaluate_defense_grid: no attacks");
  if (defenses.empty()) throw std::invalid_argument("evaluate_defense_grid: no defenses");
  for (const GridVictim& victim : victims) {
    if (victim.model == nullptr) {
      throw std::invalid_argument("evaluate_defense_grid: null victim model '" +
                                  victim.label + "'");
    }
  }
  for (const GridAttack& attack : attacks) {
    engines_.push_back(attack.clean ? nullptr
                                    : std::make_unique<AttackEngine>(source, attack.config));
  }
  for (const GridDefense& defense : defenses) describes_.push_back(defense.pipeline.describe());
}

DefenseGridResult DefenseGrid::blank_result(std::size_t clouds) const {
  DefenseGridResult result;
  for (const GridAttack& attack : attacks_) {
    GridAttackTrace trace;
    trace.label = attack.label;
    trace.l2_color.assign(clouds, 0.0);
    trace.steps.assign(clouds, 0);
    result.attacks.push_back(std::move(trace));
    for (const GridDefense& defense : defenses_) {
      for (const GridVictim& victim : victims_) {
        result.cells.push_back({attack.label, defense.label, victim.label,
                                std::vector<GridCase>(clouds)});
      }
    }
  }
  return result;
}

void DefenseGrid::run_job(std::size_t attack, const PointCloud& cloud, std::size_t g,
                          bool plan, DefenseGridResult& out, std::size_t slot) const {
  // Telemetry only: one span per job, on the thread that runs it.
  static const obs::trace::Label kJobSpan = obs::trace::intern("grid.job");
  static const obs::trace::Label kAttackArg = obs::trace::intern("attack");
  static const obs::trace::Label kCloudArg = obs::trace::intern("cloud");
  obs::trace::ScopedSpan job_span(kJobSpan);
  job_span.arg(kAttackArg, static_cast<std::int64_t>(attack));
  job_span.arg(kCloudArg, static_cast<std::int64_t>(g));

  // Cloud g always runs on RNG stream config.seed + g, as run_batch and
  // the runner's attack tables give it.
  AttackResult attacked;
  if (const AttackEngine* engine = engines_[attack].get()) {
    attacked = engine->run(cloud, engine->config().seed + g, {.threads = 1, .plan = plan});
    out.attacks[attack].l2_color[slot] = attacked.l2_color;
    out.attacks[attack].steps[slot] = attacked.steps_used;
  }
  const PointCloud& adv = engines_[attack] ? attacked.perturbed : cloud;

  std::size_t cell = attack * defenses_.size() * victims_.size();
  for (std::size_t di = 0; di < defenses_.size(); ++di) {
    // One defense draw per (attack, defense, cloud): every victim
    // predicts the identical defended cloud, so victim columns are
    // directly comparable. The stream depends only on the labels, the
    // defense seed, and the *global* cloud index.
    const DefensePipeline& pipeline = defenses_[di].pipeline;
    Rng rng(defense_cell_seed(defense_seed_, attacks_[attack].label, describes_[di], g));
    const DefenseOutcome outcome = pipeline.apply(adv, rng);
    std::vector<int> truth(outcome.kept.size());
    for (std::size_t i = 0; i < truth.size(); ++i) {
      truth[i] = adv.labels[static_cast<std::size_t>(outcome.kept[i])];
    }
    for (const GridVictim& victim : victims_) {
      std::vector<int> pred = victim.model->predict(outcome.cloud);
      pipeline.smooth_predictions(outcome.cloud, pred);
      const SegMetrics m = evaluate_segmentation(pred, truth, victim.model->num_classes());
      out.cells[cell++].cases[slot] = {m.accuracy, m.aiou, outcome.cloud.size()};
    }
  }
}

DefenseGridResult evaluate_defense_grid(SegmentationModel& source,
                                        std::span<const GridVictim> victims,
                                        std::span<const PointCloud> clouds,
                                        std::span<const GridAttack> attacks,
                                        std::span<const GridDefense> defenses,
                                        const DefenseGridOptions& options) {
  const DefenseGrid grid(source, victims, attacks, defenses, options.defense_seed);
  if (clouds.empty()) throw std::invalid_argument("evaluate_defense_grid: no clouds");
  // Jobs attack the source and predict with every victim concurrently.
  std::deque<ScopedParamFreeze> frozen;
  frozen.emplace_back(source);
  for (const GridVictim& victim : victims) frozen.emplace_back(*victim.model);

  DefenseGridResult result = grid.blank_result(clouds.size());
  const std::size_t jobs = attacks.size() * clouds.size();
  // The calling thread works too, so the pool needs one thread fewer.
  WorkerPool pool(static_cast<int>(std::min<std::size_t>(
                      static_cast<std::size_t>(resolve_threads(options.policy.threads)), jobs)) -
                  1);
  pool.run(jobs, [&](std::size_t job) {
    const std::size_t i = job % clouds.size();
    grid.run_job(job / clouds.size(), clouds[i], i, options.policy.plan, result, i);
  });
  return result;
}

}  // namespace pcss::core
