// Compute workloads: forced run_spec calls over seeded copies of the
// registered specs, at full scale, through ZooModelProvider and a scratch
// ResultStore, exactly as `pcss_run run <specs> --force` executes them.

#include <cstdio>
#include <stdexcept>

#include "pcss/obs/metrics.h"
#include "pcss/obs/trace.h"
#include "pcss/runner/executor.h"
#include "pcss/runner/result_store.h"
#include "pcss/runner/scale.h"
#include "pcss/tensor/pool.h"
#include "workloads.h"

namespace perfbench {

namespace obs = pcss::obs;
using pcss::runner::ResultStore;
using pcss::runner::RunOptions;

const std::vector<std::string>* compute_specs(const std::string& workload) {
  static const std::map<std::string, std::vector<std::string>> specs{
      {"color_plan", {"table3", "table6"}},
      {"coord_eager", {"table2"}},
      {"defense_transfer", {"defense_grid", "ext_universal"}},
  };
  const auto it = specs.find(workload);
  return it == specs.end() ? nullptr : &it->second;
}

namespace {

/// Exact counts of one measured pass, read from the always-on obs counters
/// and the pool slot counters. Two passes over the same inputs must agree.
struct PassCounts {
  std::uint64_t steps = 0;         ///< per-cloud steps of run / run_batch
  std::uint64_t shared_steps = 0;  ///< rounds of run_shared
  std::uint64_t captures = 0;
  std::uint64_t replays = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t gemm_flops = 0;
  std::uint64_t shards = 0;
  bool operator==(const PassCounts&) const = default;
};

/// Set-up before the first timed call: checkpoint load, weight
/// fingerprints (run keys) and scene generation, on a fresh provider.
struct Setup {
  std::unique_ptr<pcss::runner::ZooModelProvider> provider;
  double total_s = 0.0;
  double ckpt_ms = 0.0;
  double fingerprint_ms = 0.0;
  double scenes_ms = 0.0;
};

Setup set_up(const RunContext& ctx, const std::vector<ExperimentSpec>& specs,
             const Scale& scale) {
  Setup s;
  const double t0 = now_s();
  s.provider = make_provider(ctx.paths);
  {
    LayerSpan span("bench.train.ckpt_load");
    for (const ExperimentSpec& spec : specs) {
      for (ModelId id : spec_models(spec)) s.provider->model(id);
    }
  }
  const double t1 = now_s();
  {
    LayerSpan span("bench.runner.fingerprint");
    for (const ExperimentSpec& spec : specs) pcss::runner::run_key(spec, scale, *s.provider);
  }
  const double t2 = now_s();
  {
    LayerSpan span("bench.data.scenes");
    for (const ExperimentSpec& spec : specs) {
      s.provider->scenes(spec.dataset, scale.scenes, spec.scene_seed);
    }
  }
  const double t3 = now_s();
  s.total_s = t3 - t0;
  s.ckpt_ms = (t1 - t0) * 1e3;
  s.fingerprint_ms = (t2 - t1) * 1e3;
  s.scenes_ms = (t3 - t2) * 1e3;
  return s;
}

std::uint64_t counter(const char* name) { return obs::metrics::counter(name).value(); }

PassCounts read_counts() {
  PassCounts c;
  c.steps = counter("attack.steps");
  c.shared_steps = counter("attack.shared.steps");
  c.captures = counter("plan.captures");
  c.replays = counter("plan.replays");
  c.fallbacks = counter("plan.fallbacks");
  c.gemm_flops = counter("tensor.gemm.flops");
  c.shards = counter("runner.shards.computed");
  return c;
}

PassCounts minus(const PassCounts& a, const PassCounts& b) {
  return {a.steps - b.steps,         a.shared_steps - b.shared_steps,
          a.captures - b.captures,   a.replays - b.replays,
          a.fallbacks - b.fallbacks, a.gemm_flops - b.gemm_flops,
          a.shards - b.shards};
}

struct PoolTotals {
  std::uint64_t acquires = 0;
  std::uint64_t hits = 0;
};

PoolTotals pool_totals() {
  PoolTotals t;
  for (const auto& slot : pcss::tensor::pool::slot_stats()) {
    t.acquires += slot.acquires;
    t.hits += slot.hits;
  }
  return t;
}

struct Pass {
  /// Consecutive intervals of the pass's run_spec calls: from each call's
  /// start to its first shard's end, shard to shard, and from the last
  /// shard to the call's return. A forced pass over the same inputs always
  /// has the same shards, so interval i of two passes is the same work.
  std::vector<double> segments_s;
  double wall_s = 0.0;         ///< sum of segments_s
  double cpu_s = 0.0;          ///< process CPU time of the run_spec calls
  long long attack_steps = 0;  ///< as run_spec reports them
  PassCounts counts;
  PoolTotals pool;
  StepUse use;
};

Pass run_pass(RunContext& ctx, const std::vector<ExperimentSpec>& specs,
              pcss::runner::ModelProvider& provider, ResultStore& store,
              const RunOptions& options) {
  Pass pass;
  const PassCounts counts_before = read_counts();
  const PoolTotals pool_before = pool_totals();
  RunOptions timed = options;
  double mark = 0.0;
  timed.on_progress = [&](const pcss::runner::ShardProgress&) {
    const double t = now_s();
    pass.segments_s.push_back(t - mark);
    mark = t;
  };
  double cpu_total = 0.0;
  for (const ExperimentSpec& spec : specs) {
    pcss::runner::RunOutcome outcome;
    const double cpu0 = cpu_s();
    mark = now_s();
    try {
      LayerSpan span("bench.runner.run_spec");
      outcome = pcss::runner::run_spec(spec, provider, store, timed);
    } catch (const std::exception& e) {
      ctx.tally.fail("run_spec(" + spec.name + "): " + e.what());
      continue;
    }
    pass.segments_s.push_back(now_s() - mark);
    cpu_total += cpu_s() - cpu0;
    pass.attack_steps += outcome.attack_steps;
    check_document(spec, options.scale, provider, outcome.json, ctx.seed == 0,
                   ctx.reference, ctx.tally, pass.use);
  }
  for (double s : pass.segments_s) pass.wall_s += s;
  pass.cpu_s = cpu_total;
  pass.counts = minus(read_counts(), counts_before);
  const PoolTotals pool_after = pool_totals();
  pass.pool = {pool_after.acquires - pool_before.acquires, pool_after.hits - pool_before.hits};
  return pass;
}

/// The median pass, taken interval by interval: the sum of each interval's
/// median over all passes. A burst of outside load slows the intervals it
/// overlaps; an interval's median drops it while it hits that interval in
/// fewer than half the passes, even when it hits every pass somewhere.
double median_pass_s(const std::vector<Pass>& passes) {
  double total = 0.0;
  for (std::size_t i = 0; i < passes.front().segments_s.size(); ++i) {
    std::vector<double> samples;
    for (const Pass& pass : passes) {
      if (i < pass.segments_s.size()) samples.push_back(pass.segments_s[i]);
    }
    total += median(samples);
  }
  return total;
}

/// Set-up repeated on fresh providers, reported as medians; the last
/// provider carries the measured passes.
struct SetupSeries {
  Setup last;
  std::vector<double> total_s, ckpt_ms, fingerprint_ms, scenes_ms;
};

SetupSeries set_up_series(const RunContext& ctx, const std::vector<ExperimentSpec>& specs,
                          const Scale& scale) {
  constexpr int kSetups = 51;
  SetupSeries series;
  for (int i = 0; i < kSetups; ++i) {
    series.last = set_up(ctx, specs, scale);
    series.total_s.push_back(series.last.total_s);
    series.ckpt_ms.push_back(series.last.ckpt_ms);
    series.fingerprint_ms.push_back(series.last.fingerprint_ms);
    series.scenes_ms.push_back(series.last.scenes_ms);
  }
  return series;
}

RunOptions forced_options() {
  RunOptions options;
  options.scale = pcss::runner::scale_for(/*fast=*/false);
  options.fast = false;
  options.force = true;
  return options;
}

/// One untraced pass (the overhead baseline and the first count sample),
/// then the same pass traced; their exact counts must agree. Adds the
/// runner, core, tensor and models metrics of the traced pass and the
/// tracing overhead.
void traced_pass_metrics(RunContext& ctx, const std::vector<ExperimentSpec>& specs,
                         pcss::runner::ModelProvider& provider, ResultStore& store,
                         const RunOptions& options, Report& report) {
  const Pass plain = run_pass(ctx, specs, provider, store, options);
  obs::trace::clear();
  obs::trace::set_enabled(true);
  const Pass traced = run_pass(ctx, specs, provider, store, options);
  obs::trace::set_enabled(false);
  const std::vector<SpanEvent> spans = drain_spans(ctx.trace_file("pass"));
  ctx.tally.check(plain.counts == traced.counts,
                  "exact counts (steps, shared steps, captures, replays, fallbacks, gemm "
                  "flops, shards) "
                  "differ between two passes over the same inputs");

  // runner: shard spans of the traced pass, and cores busy over the untraced one.
  std::vector<double> shard_ms;
  double forward_us = 0.0, backward_us = 0.0, self_total_us = 0.0;
  std::uint64_t shared_cloud_passes = 0;  // one per cloud per run_shared round
  for (const SpanEvent& e : spans) {
    if (e.name == "runner.shard") shard_ms.push_back(e.dur_us / 1e3);
    if (e.name == "attack.shared.grad") ++shared_cloud_passes;
    if (e.name == "attack.forward") forward_us += e.self_us;
    if (e.name == "attack.backward") backward_us += e.self_us;
    self_total_us += e.self_us;
  }
  const double shard_p50 = median(shard_ms);
  const double shard_max = quantile(shard_ms, 1.0);
  report.add("runner.shards", static_cast<double>(shard_ms.size()), "count");
  report.add("runner.shard_ms_p50", shard_p50, "ms");
  report.add("runner.shard_ms_max", shard_max, "ms");
  report.add("runner.shard_skew", shard_p50 > 0.0 ? shard_max / shard_p50 : 0.0, "ratio");
  report.add("runner.busy_cores", plain.cpu_s / plain.wall_s, "cores");

  // core / tensor: exact counts of the pass, and the ratios built on them.
  const PassCounts& c = traced.counts;
  const double steps = static_cast<double>(c.steps + c.shared_steps);
  // Replays happen per cloud: a run_shared round replays once per cloud.
  const double cloud_passes = static_cast<double>(c.steps + shared_cloud_passes);
  report.add("core.steps", steps, "count");
  report.add("core.budget_used_frac",
             traced.use.budget > 0 ? static_cast<double>(traced.use.steps) /
                                         static_cast<double>(traced.use.budget)
                                   : 0.0,
             "ratio");
  report.add("tensor.plan.captures", static_cast<double>(c.captures), "count");
  report.add("tensor.plan.replays", static_cast<double>(c.replays), "count");
  report.add("tensor.plan.replay_frac",
             cloud_passes > 0 ? static_cast<double>(c.replays) / cloud_passes : 0.0, "ratio");
  report.add("tensor.plan.fallbacks", static_cast<double>(c.fallbacks), "count");
  report.add("tensor.pool.hit_rate",
             traced.pool.acquires > 0 ? static_cast<double>(traced.pool.hits) /
                                            static_cast<double>(traced.pool.acquires)
                                      : 0.0,
             "ratio");
  report.add("tensor.gemm.flops_per_step",
             cloud_passes > 0 ? static_cast<double>(c.gemm_flops) / cloud_passes : 0.0, "flop");
  report.add("tensor.gemm.gflops_per_s", static_cast<double>(c.gemm_flops) / 1e9 / plain.wall_s,
             "GFLOP/s");

  // models: self-time shares of the engine's forward and backward spans.
  report.add("models.forward_share", self_total_us > 0.0 ? forward_us / self_total_us : 0.0,
             "ratio");
  report.add("models.backward_share", self_total_us > 0.0 ? backward_us / self_total_us : 0.0,
             "ratio");
  report.add("obs.trace_overhead_frac", traced.wall_s / plain.wall_s - 1.0, "ratio");
}

}  // namespace

void run_compute(RunContext& ctx, Report& report) {
  std::vector<ExperimentSpec> specs;
  for (const std::string& name : *compute_specs(ctx.workload)) {
    specs.push_back(seeded_spec(name, ctx.seed));
  }
  const RunOptions options = forced_options();
  ResultStore store(ctx.paths.scratch);
  const SetupSeries setup = set_up_series(ctx, specs, options.scale);
  if (ctx.trace) {
    report.add("train.ckpt_load_ms", median(setup.ckpt_ms), "ms");
    report.add("data.scenes_ms", median(setup.scenes_ms), "ms");
    report.add("runner.fingerprint_ms", median(setup.fingerprint_ms), "ms");
    traced_pass_metrics(ctx, specs, *setup.last.provider, store, options, report);
    return;
  }
  std::vector<Pass> passes;
  double first_pass_rss_mb = 0.0;
  const double start = now_s();
  for (;;) {
    passes.push_back(run_pass(ctx, specs, *setup.last.provider, store, options));
    const Pass& pass = passes.back();
    std::fprintf(stderr, "perfbench: %s pass %.3f s, %lld steps\n", ctx.workload.c_str(),
                 pass.wall_s, pass.attack_steps);
    // Taken after the first pass, so the figure does not depend on how many
    // passes fit in the run.
    if (passes.size() == 1) first_pass_rss_mb = peak_rss_mb();
    ctx.tally.check(pass.segments_s.size() == passes.front().segments_s.size() &&
                        pass.attack_steps == passes.front().attack_steps,
                    "shards or steps differ between two passes over the same inputs");
    // Start another pass only when it is expected to end within the budget.
    if (now_s() - start + pass.wall_s > ctx.seconds) break;
  }
  const double wall_s = median_pass_s(passes);
  report.add("setup_s", median(setup.total_s), "s");
  report.add("wall_s", wall_s, "s");
  report.add("steps_per_s", static_cast<double>(passes.front().attack_steps) / wall_s, "1/s");
  report.add("peak_rss_mb", first_pass_rss_mb, "MB");
  std::fprintf(stderr, "perfbench: %zu passes; peak RSS after the last pass %.1f MB\n",
               passes.size(), peak_rss_mb());
}

}  // namespace perfbench
