#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "pcss/core/attack_engine.h"
#include "pcss/runner/hash.h"
#include "pcss/runner/json.h"

namespace perfbench {

using pcss::runner::Json;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

void Tally::fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  metrics_.push_back({name, value, unit});
}

void Report::print(const Tally& tally, bool correct) const {
  for (const Metric& m : metrics_) {
    std::fprintf(stderr, "  %-46s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fprintf(stderr, "  attempted=%lld failed=%lld correct=%s\n", tally.attempted(),
               tally.failed(), correct ? "true" : "false");
  Json metrics = Json::object();
  for (const Metric& m : metrics_) {
    Json entry = Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  Json line = Json::object();
  line.set("correct", correct);
  line.set("attempted", tally.attempted());
  line.set("failed", tally.failed());
  line.set("metrics", std::move(metrics));
  std::printf("%s\n", line.dump_compact().c_str());
  std::fflush(stdout);
}

LayerSpan::LayerSpan(const char* name) : span_(pcss::obs::trace::intern(name)) {}

std::vector<SpanEvent> drain_spans(const std::string& file) {
  const std::string chrome = pcss::obs::trace::drain_chrome_json();
  if (!file.empty()) {
    std::filesystem::create_directories(std::filesystem::path(file).parent_path());
    std::ofstream(file) << chrome;
  }
  const Json trace = Json::parse(chrome);
  std::vector<SpanEvent> events;
  for (const Json& e : trace.at("traceEvents").items()) {
    events.push_back({e.at("name").str(), e.at("ts").number(), e.at("dur").number(),
                      static_cast<long long>(e.at("tid").number()), 0.0});
  }
  // Self time: per thread, spans nest (complete events of one thread), so
  // a stack of open spans finds each span's direct parent.
  std::sort(events.begin(), events.end(), [](const SpanEvent& a, const SpanEvent& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    SpanEvent& e = events[i];
    e.self_us = e.dur_us;
    while (!open.empty()) {
      const SpanEvent& top = events[open.back()];
      if (top.tid == e.tid && e.ts_us < top.ts_us + top.dur_us) break;
      open.pop_back();
    }
    if (!open.empty()) events[open.back()].self_us -= e.dur_us;
    open.push_back(i);
  }
  return events;
}

ExperimentSpec seeded_spec(const std::string& name, std::uint64_t seed) {
  const ExperimentSpec* registered = pcss::runner::find_spec(name);
  if (registered == nullptr) throw std::runtime_error("unknown spec '" + name + "'");
  ExperimentSpec spec = *registered;
  spec.scene_seed += seed * 7919u;
  return spec;
}

std::vector<ModelId> spec_models(const ExperimentSpec& spec) {
  std::vector<ModelId> out;
  for (const std::vector<ModelId>* list : {&spec.models, &spec.victims}) {
    for (ModelId id : *list) {
      if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
    }
  }
  return out;
}

std::unique_ptr<pcss::runner::ZooModelProvider> make_provider(const Paths& paths) {
  return std::make_unique<pcss::runner::ZooModelProvider>(
      pcss::train::ModelZoo(paths.artifacts));
}

std::string digest(const std::string& bytes) {
  pcss::runner::Fnv64 hash;
  hash.update(bytes);
  return hash.hex();
}

std::map<std::string, std::string> load_reference_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference digests " + path);
  std::stringstream text;
  text << in.rdbuf();
  std::map<std::string, std::string> out;
  const Json json = Json::parse(text.str());
  for (const auto& [key, value] : json.at("digests").members()) out[key] = value.str();
  return out;
}

namespace {

int step_budget(const pcss::runner::AttackVariant& variant, const Scale& scale) {
  const pcss::core::AttackConfig config = pcss::runner::scaled_config(variant, scale);
  if (variant.kind == pcss::runner::VariantKind::kSharedDelta) return config.steps;
  return pcss::core::AttackRecipe::from_config(config).make_stop()->max_steps();
}

}  // namespace

bool check_document(const ExperimentSpec& spec, const Scale& scale,
                    pcss::runner::ModelProvider& provider, const std::string& json,
                    bool seed_is_default,
                    const std::map<std::string, std::string>& reference, Tally& tally,
                    StepUse& use) {
  using pcss::runner::VariantKind;
  const std::string what = "document of spec '" + spec.name + "'";
  pcss::runner::RunDocument doc;
  try {
    const Json parsed = Json::parse(json);
    if (parsed.dump() + "\n" != json) {
      tally.fail(what + ": bytes do not re-serialize identically");
      return false;
    }
    doc = pcss::runner::document_from_json(parsed);
  } catch (const std::exception& e) {
    tally.fail(what + ": does not parse: " + e.what());
    return false;
  }
  const std::string key = pcss::runner::run_key(spec, scale, provider);
  if (doc.key != key) {
    tally.fail(what + ": key " + doc.key + " != run_key " + key);
    return false;
  }
  bool within_budget = true;
  if (doc.kind == "defense_grid") {
    for (std::size_t a = 0; a < doc.grid_attacks.size(); ++a) {
      const auto& attack = doc.grid_attacks[a];
      // Grid attack columns follow spec.variants, after an optional
      // clean column that runs no steps.
      const auto match = std::find_if(spec.variants.begin(), spec.variants.end(),
                                      [&](const auto& v) { return v.label == attack.label; });
      const int budget = match == spec.variants.end() ? 0 : step_budget(*match, scale);
      for (long long steps : attack.steps) {
        within_budget &= steps >= 0 && steps <= budget;
        use.steps += steps;
        use.budget += budget;
      }
    }
  } else {
    for (const auto& section : doc.models) {
      for (std::size_t v = 0; v < section.variants.size() && v < spec.variants.size(); ++v) {
        const auto& result = section.variants[v];
        const int budget = step_budget(spec.variants[v], scale);
        if (result.kind == VariantKind::kSharedDelta) {
          within_budget &= result.shared_steps >= 0 && result.shared_steps <= budget;
          use.steps += result.shared_steps;
          use.budget += budget;
        }
        if (result.kind != VariantKind::kPerCloud) continue;  // noise rows run no steps
        for (const auto& row : result.cases) {
          within_budget &= row.steps >= 0 && row.steps <= budget;
          use.steps += row.steps;
          use.budget += budget;
        }
      }
    }
  }
  if (!within_budget) {
    tally.fail(what + ": a cloud's steps exceed its budget");
    return false;
  }
  if (seed_is_default) {
    const auto it = reference.find(key);
    if (it == reference.end()) {
      tally.fail(what + ": run key " + key + " has no reference digest (digest " +
                 digest(json) + ")");
      return false;
    }
    if (it->second != digest(json)) {
      tally.fail(what + ": digest " + digest(json) + " != reference " + it->second +
                 " for " + key);
      return false;
    }
  }
  tally.ok();
  return true;
}

}  // namespace perfbench
