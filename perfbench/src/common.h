#pragma once

// Shared pieces of the pcss_perfbench driver: the timing clock, quantiles,
// the failure tally behind `error_rate`, the result line, the benchmark's
// own trace spans, and the per-run environment (artifacts, scratch store,
// seed-derived spec copies).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pcss/obs/trace.h"
#include "pcss/runner/executor.h"
#include "pcss/runner/experiment_spec.h"
#include "pcss/runner/zoo_provider.h"

namespace perfbench {

using pcss::runner::ExperimentSpec;
using pcss::runner::ModelId;
using pcss::runner::Scale;

double now_s();
/// Process CPU time (user + system) in seconds, all threads.
double cpu_s();
/// Peak resident set of this process image in MiB.
double peak_rss_mb();

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
/// Middle value, or the mean of the two middle values; 0 for an empty sample.
double median(std::vector<double> values);

/// Every operation the benchmark attempts (a forced run_spec call, a served
/// request, an oracle check) is counted here; failed / attempted is the
/// run's error rate.
class Tally {
 public:
  void ok() { ++attempted_; }
  void fail(const std::string& what);
  /// Records one attempted operation that failed iff `condition` is false.
  void check(bool condition, const std::string& what) {
    if (condition) ok(); else fail(what);
  }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
};

/// One printed metric (name, value, unit).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Human-readable table on stderr, then the result line on stdout.
  void print(const Tally& tally, bool correct) const;

 private:
  std::vector<Metric> metrics_;
};

/// The benchmark's own span around a call into one layer ("bench.<layer>").
/// Recorded through pcss::obs, so it lands in the same trace as the
/// program's spans; free when tracing is off.
class LayerSpan {
 public:
  explicit LayerSpan(const char* name);

 private:
  pcss::obs::trace::ScopedSpan span_;
};

/// One complete span drained from the tracer.
struct SpanEvent {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  long long tid = 0;
  double self_us = 0.0;  ///< dur minus the time covered by direct children
};

/// Drains and parses every buffered span, computing self times per thread.
/// The spans are also written as Chrome trace JSON to `file` (when not
/// empty), for chrome://tracing, Perfetto or pcss_trace.
std::vector<SpanEvent> drain_spans(const std::string& file);

/// Where a run reads its checkpoints and warm store and writes its scratch
/// store; all inside the checkout.
struct Paths {
  std::string artifacts;    ///< model-zoo checkpoints (prepare writes them)
  std::string serve_store;  ///< warm result store the serve probe reads
  std::string scratch;      ///< this run's scratch store (removed at exit)
  std::string traces;       ///< where traced runs leave their Chrome traces
};

/// The registered spec `name` with its scene seed moved by the workload
/// seed. Seed 0 (the default) leaves the registered spec untouched, so its
/// documents are exactly what `pcss_run run <spec> --force` stores.
ExperimentSpec seeded_spec(const std::string& name, std::uint64_t seed);

/// Models a spec needs (attack models, then grid victims), deduplicated.
std::vector<ModelId> spec_models(const ExperimentSpec& spec);

std::unique_ptr<pcss::runner::ZooModelProvider> make_provider(const Paths& paths);

/// FNV-1a 64 of a document's bytes, as 16 hex characters.
std::string digest(const std::string& bytes);

/// run key -> document digest, committed with the benchmark for seed 0.
std::map<std::string, std::string> load_reference_digests(const std::string& path);

/// Attack steps a document records against the step budget its configs allow.
struct StepUse {
  long long steps = 0;
  long long budget = 0;
};

/// The seed-independent document checks (parse and re-serialize to the same
/// bytes, key == run_key, every cloud within its step budget) plus, for
/// seed 0, the committed digest. A failed check is reported to `tally`.
/// Adds the document's steps and budget to `use`.
bool check_document(const ExperimentSpec& spec, const Scale& scale,
                    pcss::runner::ModelProvider& provider, const std::string& json,
                    bool seed_is_default,
                    const std::map<std::string, std::string>& reference, Tally& tally,
                    StepUse& use);

}  // namespace perfbench
