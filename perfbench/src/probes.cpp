// Layer probes of the traced run: each layer driven from outside through
// its public functions, on inputs generated from the workload seed, with the
// benchmark's own span around every call.

#include "pcss/core/attack_engine.h"
#include "pcss/core/defense_stage.h"
#include "pcss/models/model.h"
#include "pcss/obs/trace.h"
#include "pcss/pointcloud/knn.h"
#include "pcss/runner/json.h"
#include "pcss/runner/result_store.h"
#include "pcss/runner/scale.h"
#include "pcss/tensor/plan.h"
#include "pcss/tensor/pool.h"
#include "workloads.h"

namespace perfbench {

namespace core = pcss::core;
namespace tplan = pcss::tensor::plan;
using pcss::models::PointCloud;
using pcss::models::SegmentationModel;
using pcss::runner::Dataset;
using pcss::runner::Json;
using pcss::runner::ResultStore;

namespace {

constexpr int kColorSteps = 30;  ///< per cloud, 2 clouds per model
constexpr int kCoordSteps = 30;  ///< one cloud
constexpr int kSharedSteps = 10;
constexpr int kRepeats = 15;     ///< samples per timed call

const ModelId kModels[] = {ModelId::kPointNet2Indoor, ModelId::kResGCNIndoor,
                           ModelId::kRandLAIndoor, ModelId::kRandLAOutdoor};

Dataset dataset_of(ModelId id) {
  return id == ModelId::kRandLAOutdoor ? Dataset::kOutdoor : Dataset::kIndoor;
}

/// Median wall milliseconds of `kRepeats` calls of `fn`, all inside one
/// benchmark span named `span_name`.
template <typename Fn>
double time_ms(const char* span_name, Fn&& fn) {
  LayerSpan span(span_name);
  std::vector<double> ms;
  for (int i = 0; i < kRepeats; ++i) {
    const double t0 = now_s();
    fn();
    ms.push_back((now_s() - t0) * 1e3);
  }
  return median(ms);
}

core::AttackConfig probe_config(core::AttackField field, int steps) {
  core::AttackConfig config;
  config.norm = core::AttackNorm::kBounded;
  config.field = field;
  config.steps = steps;
  const Scale full = pcss::runner::scale_for(false);
  config.epsilon = full.eps_color;
  config.coord_epsilon = full.eps_coord;
  // No success threshold: every cloud runs its whole budget, so the probe
  // does the same number of steps on every seed.
  config.success_accuracy = -1.0f;
  return config;
}

/// Per-step wall times of `engine` from its own observer events: the
/// interval between two consecutive events of one cloud is one whole step
/// (backward, step rule and projection, then the next forward).
std::vector<double> observed_step_ms(const core::AttackEngine& engine,
                                     const std::vector<PointCloud>& clouds) {
  std::vector<double> last(clouds.size(), -1.0);
  std::vector<double> ms;
  core::ExecPolicy policy;
  policy.threads = 1;
  policy.observer = [&](const core::AttackProgress& event) {
    const double t = now_s();
    if (last[event.cloud_index] >= 0.0) ms.push_back((t - last[event.cloud_index]) * 1e3);
    last[event.cloud_index] = t;
  };
  if (clouds.size() == 1) {
    engine.run(clouds.front(), policy);
  } else {
    engine.run_batch(clouds, policy);
  }
  return ms;
}

/// Clears requires_grad on every parameter for the probe's lifetime, as the
/// engine does for its runs: no per-layer step number includes
/// weight-gradient work.
class Frozen {
 public:
  explicit Frozen(SegmentationModel& model) : params_(model.parameters()) {
    for (auto& p : params_) {
      saved_.push_back(p.requires_grad());
      p.set_requires_grad(false);
    }
  }
  ~Frozen() {
    for (std::size_t i = 0; i < params_.size(); ++i) params_[i].set_requires_grad(saved_[i]);
  }
  Frozen(const Frozen&) = delete;
  Frozen& operator=(const Frozen&) = delete;

 private:
  std::vector<pcss::tensor::Tensor> params_;
  std::vector<bool> saved_;
};

std::uint64_t pool_acquires() {
  std::uint64_t total = 0;
  for (const auto& slot : pcss::tensor::pool::slot_stats()) total += slot.acquires;
  return total;
}

/// tensor layer: one color step of `model` run eagerly, then captured into
/// a CompiledPlan and replayed, with the engine's projection and objective.
void tensor_probe(SegmentationModel& model, const PointCloud& cloud, const std::string& suffix,
                  Report& report) {
  const Frozen frozen(model);
  const core::AttackConfig config = probe_config(core::AttackField::kColor, kColorSteps);
  const std::vector<std::uint8_t> mask(cloud.size(), 1);
  auto objective = core::make_degradation_objective(config.success_accuracy);
  auto projection = core::make_clip_projection(config);
  pcss::tensor::Rng rng(17);
  projection->init(cloud, mask, rng);
  pcss::tensor::Tensor logits;
  auto eager_step = [&] {
    const core::FieldDeltas deltas = projection->make_deltas();
    const pcss::models::ModelInput input{&cloud, deltas.color, deltas.coord};
    logits = model.forward(input, /*training=*/false);
    projection->total_loss(objective->loss(logits, cloud, mask)).backward();
  };
  const double eager_ms = time_ms("bench.tensor.eager", eager_step);
  tplan::CompiledPlan plan;
  {
    LayerSpan span("bench.tensor.capture");
    tplan::PlanBuilder builder;
    eager_step();
    if (!builder.finish(plan)) throw std::runtime_error("plan capture failed for " + suffix);
  }
  auto replay = [&] {
    (void)projection->make_deltas();  // refreshes the captured leaves
    plan.replay_forward();
    plan.replay_backward();
  };
  replay();  // first replay settles any lazily sized state
  const std::uint64_t acquires_before = pool_acquires();
  const double replay_ms = time_ms("bench.tensor.replay", replay);
  const std::uint64_t acquires = pool_acquires() - acquires_before;
  report.add("tensor.eager_ms." + suffix, eager_ms, "ms");
  report.add("tensor.replay_ms." + suffix, replay_ms, "ms");
  report.add("tensor.plan.arena_mb." + suffix,
             static_cast<double>(plan.stats().arena_floats) * 4.0 / 1048576.0, "MB");
  report.add("tensor.pool.acquires_per_replay." + suffix,
             static_cast<double>(acquires) / kRepeats, "count");
}

/// runner: the store and JSON work of a cache hit, on the six documents
/// the serve probe serves.
void runner_store_probe(RunContext& ctx, pcss::runner::ModelProvider& provider,
                        Report& report) {
  ResultStore warm(ctx.paths.serve_store);
  ResultStore scratch(ctx.paths.scratch + "/probe-store");
  std::vector<double> get_ms, put_ms, parse_ms, dump_ms;
  double bytes = 0.0;
  int documents = 0;
  for (const ExperimentSpec& spec : pcss::runner::spec_registry()) {
    const std::string key =
        pcss::runner::run_key(spec, pcss::runner::scale_for(true), provider) + ".json";
    std::string text;
    get_ms.push_back(time_ms("bench.runner.store_get", [&] {
      text = warm.get(key).value_or("");
    }));
    pcss::runner::RunDocument doc;
    parse_ms.push_back(time_ms("bench.runner.json_parse", [&] {
      doc = pcss::runner::document_from_json(Json::parse(text));
    }));
    std::string dumped;
    dump_ms.push_back(time_ms("bench.runner.json_dump", [&] {
      dumped = pcss::runner::document_to_json(doc).dump() + "\n";
    }));
    ctx.tally.check(dumped == text, "stored document " + key + " does not round-trip");
    put_ms.push_back(time_ms("bench.runner.store_put", [&] {
      scratch.put(key, text);
    }));
    bytes += static_cast<double>(text.size());
    ++documents;
  }
  report.add("runner.store_get_ms", median(get_ms), "ms");
  report.add("runner.store_put_ms", median(put_ms), "ms");
  report.add("runner.json_parse_ms", median(parse_ms), "ms");
  report.add("runner.json_dump_ms", median(dump_ms), "ms");
  report.add("runner.doc_bytes", documents > 0 ? bytes / documents : 0.0, "bytes");
}

}  // namespace

void run_probes(RunContext& ctx, Report& report) {
  pcss::obs::trace::clear();
  pcss::obs::trace::set_enabled(true);
  auto provider = make_provider(ctx.paths);
  const std::uint64_t scene_seed = 5000 + ctx.seed * 7919u;
  const std::vector<PointCloud> indoor = provider->scenes(Dataset::kIndoor, 2, scene_seed);
  const std::vector<PointCloud> outdoor = provider->scenes(Dataset::kOutdoor, 2, scene_seed);
  auto scenes_for = [&](ModelId id) -> const std::vector<PointCloud>& {
    return dataset_of(id) == Dataset::kOutdoor ? outdoor : indoor;
  };

  // core: color steps on every model, coordinate steps on ResGCN, shared
  // rounds on ResGCN, each timed from the engine's observer.
  for (ModelId id : kModels) {
    const std::string suffix = pcss::runner::to_string(id);
    auto model = provider->model(id);
    const core::AttackEngine engine(*model, probe_config(core::AttackField::kColor, kColorSteps));
    std::vector<double> ms;
    {
      LayerSpan span("bench.core.color_steps");
      ms = observed_step_ms(engine, scenes_for(id));
    }
    report.add("core.color_step_ms_p50." + suffix, quantile(ms, 0.50), "ms");
    report.add("core.color_step_ms_p99." + suffix, quantile(ms, 0.99), "ms");
  }
  auto resgcn = provider->model(ModelId::kResGCNIndoor);
  {
    const core::AttackEngine engine(*resgcn,
                                    probe_config(core::AttackField::kCoordinate, kCoordSteps));
    std::vector<double> ms;
    {
      LayerSpan span("bench.core.coord_steps");
      ms = observed_step_ms(engine, {indoor.front()});
    }
    report.add("core.coord_step_ms_p50.resgcn_indoor", quantile(ms, 0.50), "ms");
    report.add("core.coord_step_ms_p99.resgcn_indoor", quantile(ms, 0.99), "ms");
  }
  {
    const core::AttackEngine engine(*resgcn,
                                    probe_config(core::AttackField::kColor, kSharedSteps));
    core::ExecPolicy policy;
    policy.threads = 1;
    const double t0 = now_s();
    core::SharedDeltaResult shared;
    {
      LayerSpan span("bench.core.shared");
      shared = engine.run_shared(indoor, policy);
    }
    report.add("core.shared_step_ms",
               (now_s() - t0) * 1e3 / std::max(1, shared.steps_used), "ms");
  }

  // core: each defense stage of the grid through DefensePipeline::apply
  // (plus the vote stage's post-prediction smoothing, where its work is).
  const PointCloud& cloud = indoor.front();
  const std::vector<std::pair<std::string, pcss::runner::DefenseStageSpec>> stages{
      {"srs", {.kind = pcss::runner::DefenseStageKind::kSrs, .srs_fraction = 0.01f}},
      {"sor", {.kind = pcss::runner::DefenseStageKind::kSor, .k = 2, .stddev_mult = 1.0f,
               .color_weight = 1.0f}},
      {"quantize8", {.kind = pcss::runner::DefenseStageKind::kQuantize, .quantize_levels = 8}},
      {"knn_vote", {.kind = pcss::runner::DefenseStageKind::kKnnVote, .k = 5}},
  };
  for (const auto& [label, stage] : stages) {
    const core::DefensePipeline pipeline =
        pcss::runner::build_pipeline({label, {stage}});
    pcss::tensor::Rng rng(11000 + ctx.seed);
    const double ms = time_ms("bench.core.defense", [&] {
      const core::DefenseOutcome outcome = pipeline.apply(cloud, rng);
      std::vector<int> predictions = outcome.cloud.labels;
      pipeline.smooth_predictions(outcome.cloud, predictions);
    });
    report.add("core.defense_ms." + label, ms, "ms");
  }

  // tensor and models: eager vs replayed steps, and plain inference.
  for (ModelId id : kModels) {
    const std::string suffix = pcss::runner::to_string(id);
    auto model = provider->model(id);
    tensor_probe(*model, scenes_for(id).front(), suffix, report);
    report.add("models.predict_ms." + suffix, time_ms("bench.models.predict", [&] {
                 (void)model->predict(scenes_for(id).front());
               }),
               "ms");
  }

  // pointcloud: the grid kNN indexes on the larger (outdoor) cloud.
  const PointCloud& big = outdoor.front();
  report.add("pointcloud.knn_ms.grid", time_ms("bench.pointcloud.knn_grid", [&] {
               (void)pcss::pointcloud::knn_self_grid(big.positions, 16);
             }),
             "ms");
  report.add("pointcloud.knn_ms.combined", time_ms("bench.pointcloud.knn_combined", [&] {
               (void)pcss::pointcloud::knn_self_combined_grid(big.positions, big.colors, 1.0f,
                                                              16);
             }),
             "ms");

  runner_store_probe(ctx, *provider, report);
  pcss::obs::trace::set_enabled(false);
  drain_spans(ctx.trace_file("probes"));

  serve_probe(ctx, report);
}

}  // namespace perfbench
