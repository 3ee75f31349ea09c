#include "src/fuzz/counterexample.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/obs/export.h"

namespace co::fuzz {

namespace {
constexpr const char* kFormatV1 = "co_fuzz/counterexample/v1";
constexpr const char* kFormatV2 = "co_fuzz/counterexample/v2";
}  // namespace

Json Counterexample::to_json() const {
  Json::Object o;
  o["format"] = Json(kFormatV2);
  o["scenario"] = scenario.to_json();
  o["mutation"] = Json(mutation);
  o["violation_kind"] = Json(violation_kind);
  o["violation_detail"] = Json(violation_detail);
  o["digest"] = Json(digest);
  o["trace_events"] = Json(trace_events);
  if (effects_emitted > 0) {
    o["effect_digest"] = Json(effect_digest);
    o["effects_emitted"] = Json(effects_emitted);
    Json::Array lines;
    for (const auto& line : effect_sample) lines.push_back(Json(line));
    o["effect_sample"] = Json(std::move(lines));
  }
  o["original_seed"] = Json(original_seed);
  o["shrink_runs"] = Json(static_cast<std::uint64_t>(shrink_runs));
  if (!metrics.is_null()) o["metrics"] = metrics;
  if (!entity_stats.empty()) o["entity_stats"] = Json(entity_stats);
  return Json(std::move(o));
}

Counterexample Counterexample::from_json(const Json& j) {
  const std::string format = j.has("format") ? j.at("format").as_string() : "";
  if (format != kFormatV1 && format != kFormatV2)
    throw std::runtime_error("counterexample: unknown artifact format");
  Counterexample ce;
  ce.scenario = Scenario::from_json(j.at("scenario"));
  ce.mutation = j.at("mutation").as_string();
  ce.violation_kind = j.at("violation_kind").as_string();
  ce.violation_detail = j.at("violation_detail").as_string();
  // A v1 digest folded the retired text trace; no run can reproduce it, so
  // it is dropped and replay skips the record-digest comparison.
  if (format == kFormatV2) {
    ce.digest = j.at("digest").as_u64();
    ce.trace_events = j.at("trace_events").as_u64();
  }
  ce.original_seed = j.at("original_seed").as_u64();
  ce.shrink_runs = static_cast<std::size_t>(j.at("shrink_runs").as_u64());
  // Optional triage context (absent in pre-metrics artifacts).
  if (j.has("metrics")) ce.metrics = j.at("metrics");
  if (j.has("entity_stats")) ce.entity_stats = j.at("entity_stats").as_string();
  // Optional effect-stream digest (absent in pre-sans-io artifacts).
  if (j.has("effect_digest")) {
    ce.effect_digest = j.at("effect_digest").as_u64();
    ce.effects_emitted = j.at("effects_emitted").as_u64();
    if (j.has("effect_sample"))
      for (const auto& line : j.at("effect_sample").as_array())
        ce.effect_sample.push_back(line.as_string());
  }
  return ce;
}

void Counterexample::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("counterexample: cannot write " + path);
  out << to_json().dump(2) << '\n';
}

Counterexample Counterexample::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("counterexample: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(Json::parse(buf.str()));
}

Counterexample Counterexample::make(const Scenario& scenario,
                                    const RunReport& report,
                                    const RunOptions& options) {
  Counterexample ce;
  ce.scenario = scenario;
  ce.mutation = mutation_name(options.mutation);
  ce.violation_kind = report.violation_kind;
  ce.violation_detail = report.violation_detail;
  ce.digest = report.digest;
  ce.trace_events = report.trace_events;
  ce.effect_digest = report.effect_digest;
  ce.effects_emitted = report.effects_emitted;
  ce.effect_sample = report.effect_sample;
  ce.original_seed = scenario.seed;
  ce.metrics = obs::metrics_to_json(report.metrics);
  ce.entity_stats = report.entity_stats;
  return ce;
}

ReplayVerdict replay(const Counterexample& ce) {
  RunOptions options;
  options.mutation = mutation_from_name(ce.mutation);
  ReplayVerdict v;
  v.report = run_scenario(ce.scenario, options);
  v.reproduced =
      v.report.failed && v.report.violation_kind == ce.violation_kind;
  v.exact = v.reproduced;
  // v1 artifacts (trace_events == 0) carry no record digest to compare.
  if (ce.trace_events > 0)
    v.exact = v.exact && v.report.digest == ce.digest &&
              v.report.trace_events == ce.trace_events;
  // Artifacts written after effect recording additionally pin the sans-io
  // effect stream; old artifacts (effects_emitted == 0) skip this check.
  if (ce.effects_emitted > 0)
    v.exact = v.exact && v.report.effect_digest == ce.effect_digest &&
              v.report.effects_emitted == ce.effects_emitted;
  return v;
}

}  // namespace co::fuzz
