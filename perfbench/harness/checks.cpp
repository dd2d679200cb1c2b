#include "checks.hpp"

#include <functional>
#include <utility>

#include "analysis/bounds.hpp"
#include "core/fingerprint.hpp"
#include "core/session.hpp"
#include "search/evaluator.hpp"
#include "search/search.hpp"
#include "service/server.hpp"
#include "stoch/distribution.hpp"
#include "stoch/estimator.hpp"
#include "support/strings.hpp"

namespace perfbench {

using namespace segbus;

namespace {

emu::TimingModel timing_of(bool reference_timing) {
  return reference_timing ? emu::TimingModel::reference()
                          : emu::TimingModel::emulator();
}

/// A reference-engine run of the in-memory models.
Result<std::int64_t> reference_run(const psdf::PsdfModel& app,
                                   const platform::PlatformModel& platform,
                                   bool reference_timing) {
  core::SessionConfig config;
  config.timing = timing_of(reference_timing);
  config.backend.backend = emu::EngineBackend::kReference;
  config.engine.max_ticks_per_domain = kServerMaxTicks;
  SEGBUS_ASSIGN_OR_RETURN(core::EmulationSession session,
                          core::EmulationSession::from_models(app, platform,
                                                              config));
  SEGBUS_ASSIGN_OR_RETURN(emu::EmulationResult result, session.emulate());
  if (!result.completed) return internal_error("reference run hit its budget");
  return result.total_execution_time.count();
}

Result<JsonValue> parse_report(const std::string& report) {
  SEGBUS_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::parse(report));
  if (!doc.is_object()) return parse_error("report is not an object");
  return doc;
}

}  // namespace

void Findings::add(std::string message) {
  ++count_;
  if (sample_.size() < 8) sample_.push_back(std::move(message));
}

Result<SubmitReference> submit_reference(const System& system) {
  SubmitReference expected;
  SEGBUS_ASSIGN_OR_RETURN(expected.execution_ps,
                          reference_run(system.app, system.platform,
                                        system.reference_timing));
  core::SessionConfig config;
  config.timing = timing_of(system.reference_timing);
  config.engine.max_ticks_per_domain = kServerMaxTicks;
  SEGBUS_ASSIGN_OR_RETURN(expected.digest,
                          core::scheme_digest(system.app, system.platform,
                                              config));
  SEGBUS_ASSIGN_OR_RETURN(
      analysis::StaticBounds bounds,
      analysis::compute_static_bounds(system.app, system.platform,
                                      config.timing));
  expected.lower_ps = bounds.lower.count();
  expected.upper_ps = bounds.upper.count();
  return expected;
}

void check_submit(const SubmitReference& expected, const Reply& reply,
                  const std::string& what, Findings& findings) {
  if (!reply.ok) return;  // counted as failed, not as wrong
  if (reply.execution_ps != expected.execution_ps) {
    findings.add(str_format("%s: execution_ps %lld, reference run %lld",
                            what.c_str(),
                            static_cast<long long>(reply.execution_ps),
                            static_cast<long long>(expected.execution_ps)));
  }
  if (reply.execution_ps < expected.lower_ps ||
      reply.execution_ps > expected.upper_ps) {
    findings.add(str_format(
        "%s: execution_ps %lld outside the v2 static bounds [%lld, %lld]",
        what.c_str(), static_cast<long long>(reply.execution_ps),
        static_cast<long long>(expected.lower_ps),
        static_cast<long long>(expected.upper_ps)));
  }
  if (reply.digest != expected.digest) {
    findings.add(what + ": digest " + reply.digest +
                 " differs from the in-process fingerprint " +
                 expected.digest);
  }
}

void check_same_report(std::size_t expected_hash, const Reply& reply,
                       const std::string& what, Findings& findings) {
  if (reply.ok && reply.report_hash != expected_hash) {
    findings.add(what +
                 ": report differs from the first submission's report");
  }
}

void check_cache_counts(const JsonValue& stats, std::uint64_t expected_hits,
                        std::uint64_t expected_misses, Findings& findings) {
  const JsonValue& cache = stats.get("cache");
  const std::uint64_t hits = cache.get("hits").as_uint64(~std::uint64_t{0});
  const std::uint64_t misses =
      cache.get("misses").as_uint64(~std::uint64_t{0});
  if (hits != expected_hits || misses != expected_misses) {
    findings.add(str_format(
        "server cache counted %llu hits / %llu misses; the client expects "
        "%llu / %llu",
        static_cast<unsigned long long>(hits),
        static_cast<unsigned long long>(misses),
        static_cast<unsigned long long>(expected_hits),
        static_cast<unsigned long long>(expected_misses)));
  }
}

Result<std::string> estimate_reference(const EstimateInput& input) {
  stoch::EstimatorOptions options;
  SEGBUS_ASSIGN_OR_RETURN(options.spec.compute_scale,
                          stoch::Distribution::parse(input.params.compute));
  SEGBUS_ASSIGN_OR_RETURN(options.spec.items_scale,
                          stoch::Distribution::parse(input.params.items));
  options.seed = input.params.seed;
  options.min_replications = input.params.min_replications;
  options.max_replications = input.params.max_replications;
  options.round_replications = input.params.round_replications;
  options.confidence = input.params.confidence;
  options.target_relative_half_width =
      input.params.target_relative_half_width;
  options.reference_timing = input.system.reference_timing;
  options.engine = "fast";
  options.max_ticks = kServerMaxTicks;
  SEGBUS_ASSIGN_OR_RETURN(
      stoch::Estimate estimate,
      stoch::estimate_inline(input.system.app, input.system.platform,
                             options));
  return estimate.to_json().to_string();
}

void check_estimate_properties(const std::string& report,
                               std::uint32_t replications,
                               const std::string& what, Findings& findings) {
  Result<JsonValue> doc = parse_report(report);
  if (!doc.is_ok()) {
    findings.add(what + ": " + doc.status().to_string());
    return;
  }
  const std::uint64_t reported = doc->get("replications").as_uint64();
  const std::size_t samples = doc->get("samples").size();
  if (reported != replications || samples != replications) {
    findings.add(str_format("%s: %llu replications (%zu samples), %u "
                            "requested",
                            what.c_str(),
                            static_cast<unsigned long long>(reported),
                            samples, replications));
  }
  const double p50 = doc->get("p50_ps").as_number();
  const double p95 = doc->get("p95_ps").as_number();
  const double p99 = doc->get("p99_ps").as_number();
  if (!(p50 <= p95 && p95 <= p99)) {
    findings.add(str_format("%s: percentiles out of order (p50 %.0f, p95 "
                            "%.0f, p99 %.0f)",
                            what.c_str(), p50, p95, p99));
  }
  const double mean = doc->get("mean_ps").as_number();
  const double low = doc->get("ci_low_ps").as_number();
  const double high = doc->get("ci_high_ps").as_number();
  if (!(low <= mean && mean <= high)) {
    findings.add(str_format("%s: mean %.1f outside its interval [%.1f, "
                            "%.1f]",
                            what.c_str(), mean, low, high));
  }
}

void check_degenerate_mean(const std::string& report,
                           std::int64_t submit_execution_ps,
                           const std::string& what, Findings& findings) {
  Result<JsonValue> doc = parse_report(report);
  if (!doc.is_ok()) {
    findings.add(what + ": " + doc.status().to_string());
    return;
  }
  const double mean = doc->get("mean_ps").as_number(-1.0);
  if (mean != static_cast<double>(submit_execution_ps)) {
    findings.add(str_format("%s: point:1 mean %.1f differs from the plain "
                            "submit's %lld",
                            what.c_str(), mean,
                            static_cast<long long>(submit_execution_ps)));
  }
}

Result<SearchReference> search_reference(const SearchInput& input,
                                         unsigned workers) {
  search::SearchSpec spec;
  spec.segment_counts.clear();
  for (std::string_view item : split_skip_empty(input.params.segments, ',')) {
    const std::optional<std::uint64_t> value = parse_uint(item);
    if (!value) return invalid_argument_error("bad segment list");
    spec.segment_counts.push_back(static_cast<std::uint32_t>(*value));
  }
  spec.seed = input.params.seed;
  spec.max_emulations = input.params.max_emulations;
  spec.max_nodes = input.params.max_nodes;
  spec.beam_width = input.params.beam_width;
  spec.anneal_restarts = input.params.anneal_restarts;
  spec.anneal_iterations = input.params.anneal_iterations;
  spec.max_ticks = kServerMaxTicks;
  spec.workers = workers;
  SearchReference expected;
  SEGBUS_ASSIGN_OR_RETURN(search::SearchReport report,
                          search::run_search(input.app, spec));
  expected.report = search::search_to_json(report).to_string();
  if (input.exhaustive_check) {
    spec.strategy = search::Strategy::kExhaustive;
    spec.max_emulations = 0;
    spec.max_nodes = 0;
    SEGBUS_ASSIGN_OR_RETURN(search::SearchReport all,
                            search::run_search(input.app, spec));
    if (!all.has_winner) return internal_error("exhaustive search found none");
    expected.exhaustive = true;
    expected.exhaustive_digest = all.winner.digest;
    expected.exhaustive_ps = all.winner.objectives.execution_time.count();
  }
  return expected;
}

void check_search_report(const SearchReference& expected,
                         const SearchInput& input, const std::string& report,
                         const std::string& what, Findings& findings) {
  Result<JsonValue> doc = parse_report(report);
  if (!doc.is_ok()) {
    findings.add(what + ": " + doc.status().to_string());
    return;
  }
  const auto processes = static_cast<std::uint32_t>(input.app.process_count());
  const JsonValue& combos = doc->get("combos");
  for (std::size_t c = 0; c < combos.size(); ++c) {
    const JsonValue& combo = combos.at(c);
    if (!combo.get("proven_optimal").as_bool()) continue;
    const auto segments =
        static_cast<std::uint32_t>(combo.get("segments").as_uint64());
    const double space = search::feasible_space(processes, segments);
    if (combo.get("covered").as_number() != space) {
      findings.add(str_format("%s: proven-optimal s%u combo covers %.0f of "
                              "feasible_space %.0f",
                              what.c_str(), segments,
                              combo.get("covered").as_number(), space));
    }
  }
  const JsonValue& winner = doc->get("winner");
  if (!winner.is_object()) {
    findings.add(what + ": no winner");
    return;
  }
  // Direct emulation of the winning placement, on the evaluator's own
  // platform construction and the reference engine.
  search::SearchCandidate candidate;
  candidate.segments =
      static_cast<std::uint32_t>(winner.get("segments").as_uint64());
  candidate.package_size =
      static_cast<std::uint32_t>(winner.get("package_size").as_uint64());
  const JsonValue& allocation = winner.get("allocation");
  for (std::size_t i = 0; i < allocation.size(); ++i) {
    candidate.allocation.push_back(
        static_cast<std::uint32_t>(allocation.at(i).as_uint64()));
  }
  const std::int64_t winner_ps = winner.get("execution_time_ps").as_int64();
  service::ServerConfig config;
  config.workers = 1;
  service::JobServer server(config);
  search::EvaluatorContext context;
  const search::SearchSpec defaults;
  context.segment_clocks = defaults.segment_clocks;
  context.ca_clock = defaults.ca_clock;
  Result<std::int64_t> direct = [&]() -> Result<std::int64_t> {
    if (candidate.package_size != input.app.package_size()) {
      return invalid_argument_error("winner package differs from the app's");
    }
    SEGBUS_ASSIGN_OR_RETURN(
        search::CandidateEvaluator evaluator,
        search::CandidateEvaluator::create(server, input.app, context));
    SEGBUS_ASSIGN_OR_RETURN(platform::PlatformModel platform,
                            evaluator.build_platform(candidate));
    return reference_run(input.app, platform, false);
  }();
  if (!direct.is_ok()) {
    findings.add(what + ": winner placement does not emulate: " +
                 direct.status().to_string());
  } else if (*direct != winner_ps) {
    findings.add(str_format("%s: winner claims %lld ps, its placement "
                            "emulates to %lld ps",
                            what.c_str(), static_cast<long long>(winner_ps),
                            static_cast<long long>(*direct)));
  }
  if (expected.exhaustive &&
      (winner.get("digest").as_string() != expected.exhaustive_digest ||
       winner_ps != expected.exhaustive_ps)) {
    findings.add(str_format("%s: winner %lld ps is not the exhaustive "
                            "optimum %lld ps",
                            what.c_str(), static_cast<long long>(winner_ps),
                            static_cast<long long>(expected.exhaustive_ps)));
  }
}

void check_report_bytes(const std::string& expected, const Reply& reply,
                        const std::string& what, Findings& findings) {
  if (!reply.ok) return;  // counted as failed, not as wrong
  const bool same =
      reply.report.empty()
          ? reply.report_hash == std::hash<std::string>{}(expected)
          : reply.report == expected;
  if (!same) {
    findings.add(what + ": report differs from the in-process reference");
  }
}

}  // namespace perfbench
