#include "replay.hpp"

#include <unordered_set>
#include <utility>

#include "analysis/analyzer.hpp"
#include "checks.hpp"
#include "core/fingerprint.hpp"
#include "core/json_export.hpp"
#include "core/session.hpp"
#include "emu/backend.hpp"
#include "emu/engine_fast.hpp"
#include "platform/platform_xml.hpp"
#include "psdf/psdf_xml.hpp"
#include "search/search.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "stoch/distribution.hpp"
#include "stoch/workload.hpp"
#include "support/strings.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace perfbench {

using namespace segbus;
using Scope = SpanRecorder::Scope;

namespace {

double element_nodes(const xml::Element& element) {
  double nodes = 1.0;
  for (const xml::Node& node : element.children()) {
    nodes += node.is_element() ? element_nodes(node.element()) : 1.0;
  }
  return nodes;
}

Result<service::JobRequest> decode(const std::string& line,
                                   SpanRecorder& spans) {
  spans.count("service.request_bytes", static_cast<double>(line.size() + 1));
  Scope scope(spans, "service.decode");
  return service::parse_request(line);
}

void encode(const service::JobResponse& response, SpanRecorder& spans) {
  Scope scope(spans, "service.encode");
  (void)service::encode_response(response);
}

Result<xml::Document> parse_xml(std::string_view text, SpanRecorder& spans) {
  Result<xml::Document> document = [&] {
    Scope scope(spans, "xml.parse");
    return xml::parse_document(text);
  }();
  spans.count("xml.bytes", static_cast<double>(text.size()));
  if (document.is_ok()) {
    spans.count("xml.nodes", element_nodes(document->root()));
  }
  return document;
}

/// Both schemes through the XML parser and into their models.
Result<std::pair<psdf::PsdfModel, platform::PlatformModel>> build_models(
    std::string_view psdf_xml, std::string_view psm_xml,
    std::uint32_t package_size, SpanRecorder& spans) {
  SEGBUS_ASSIGN_OR_RETURN(xml::Document psdf_doc, parse_xml(psdf_xml, spans));
  Result<psdf::PsdfModel> app = [&] {
    Scope scope(spans, "psdf.from_xml");
    return psdf::from_xml(psdf_doc, package_size);
  }();
  if (!app.is_ok()) return app.status();
  SEGBUS_ASSIGN_OR_RETURN(xml::Document psm_doc, parse_xml(psm_xml, spans));
  Result<platform::PlatformModel> platform = [&] {
    Scope scope(spans, "platform.from_xml");
    return platform::from_xml(psm_doc);
  }();
  if (!platform.is_ok()) return platform.status();
  if (package_size != 0) {
    SEGBUS_RETURN_IF_ERROR(platform->set_package_size(package_size));
  }
  return std::make_pair(std::move(app).value(), std::move(platform).value());
}

/// The static analysis EmulationSession::from_models runs before emulating.
Status analyze(const psdf::PsdfModel& app,
               const platform::PlatformModel& platform,
               const emu::TimingModel& timing, SpanRecorder& spans) {
  analysis::AnalyzerOptions options;
  options.include_bounds = false;
  options.timing = timing;
  options.severity_overrides.emplace("SB050", Severity::kWarning);
  Scope scope(spans, "analysis.analyze");
  const analysis::AnalysisReport report =
      analysis::analyze_system(app, platform, options);
  return report.ok() ? Status::ok()
                     : validation_error("model analysis failed");
}

Result<std::string> digest(const psdf::PsdfModel& app,
                           const platform::PlatformModel& platform,
                           const emu::TimingModel& timing,
                           SpanRecorder& spans) {
  emu::EngineOptions engine;
  engine.max_ticks_per_domain = kServerMaxTicks;
  Result<std::string> key = [&] {
    Scope scope(spans, "core.digest");
    return core::scheme_digest(app, platform, timing, engine);
  }();
  // Counted outside the span: the canonical text is the digest's input.
  if (Result<std::string> canonical =
          core::canonical_scheme(app, platform, timing, engine);
      canonical.is_ok()) {
    spans.count("core.canonical_bytes",
                static_cast<double>(canonical->size()));
  }
  return key;
}

/// Engine build + run on `backend`, then (when `with_report`) the report
/// serialization.
Result<std::pair<Picoseconds, std::string>> emulate_and_report(
    const psdf::PsdfModel& app, const platform::PlatformModel& platform,
    const emu::TimingModel& timing, emu::EngineBackend backend,
    bool with_report, SpanRecorder& spans) {
  emu::EngineOptions options;
  options.max_ticks_per_domain = kServerMaxTicks;
  Result<emu::EmulationResult> result = internal_error("not run");
  if (backend == emu::EngineBackend::kFast) {
    Result<emu::FastEngine> engine = [&] {
      Scope scope(spans, "emu.build");
      return emu::FastEngine::create(app, platform, timing, options);
    }();
    if (!engine.is_ok()) return engine.status();
    {
      Scope scope(spans, "emu.run");
      result = engine->run();
    }
    spans.count("emu.fast_executed_ticks",
                static_cast<double>(engine->skip_stats().executed_ticks));
    spans.count("emu.fast_skipped_ticks",
                static_cast<double>(engine->skip_stats().skipped_ticks));
  } else {
    emu::BackendOptions chosen;
    chosen.backend = backend;
    Result<emu::EngineRunner> runner = [&] {
      Scope scope(spans, "emu.build");
      return emu::EngineRunner::create(app, platform, timing, options,
                                       chosen);
    }();
    if (!runner.is_ok()) return runner.status();
    Scope scope(spans, "emu.run");
    result = runner->run();
  }
  if (!result.is_ok()) return result.status();
  if (!result->completed) return internal_error("emulation hit its budget");
  double ticks = static_cast<double>(result->ca.tct);
  for (const emu::SaStats& sa : result->sas) {
    ticks += static_cast<double>(sa.tct);
  }
  spans.count("emu.ticks", ticks);
  std::string report;
  if (!with_report) return std::make_pair(result->total_execution_time, report);
  {
    Scope scope(spans, "core.report");
    report = core::result_to_json(*result, platform).to_string();
  }
  spans.count("core.report_bytes", static_cast<double>(report.size()));
  return std::make_pair(result->total_execution_time, std::move(report));
}

/// The server's submit path after decode (JobServer::run_submit).
Result<service::JobResponse> run_job(const service::JobRequest& request,
                                     emu::EngineBackend backend,
                                     service::ResultCache& cache,
                                     SpanRecorder& spans) {
  const emu::TimingModel timing = request.reference_timing
                                      ? emu::TimingModel::reference()
                                      : emu::TimingModel::emulator();
  SEGBUS_ASSIGN_OR_RETURN(auto models,
                          build_models(request.psdf_xml, request.psm_xml,
                                       request.package_size, spans));
  SEGBUS_RETURN_IF_ERROR(analyze(models.first, models.second, timing, spans));
  SEGBUS_ASSIGN_OR_RETURN(std::string key,
                          digest(models.first, models.second, timing, spans));
  std::optional<service::CachedResult> hit;
  {
    Scope scope(spans, "service.cache_lookup");
    hit = cache.lookup(key);
  }
  spans.count(hit ? "service.cache_hits" : "service.cache_misses", 1.0);
  service::JobResponse response;
  response.id = request.id;
  response.ok = true;
  response.digest = key;
  if (hit) {
    response.cache_hit = true;
    response.report_json = std::move(hit->report_json);
    response.execution_time = hit->execution_time;
    return response;
  }
  SEGBUS_ASSIGN_OR_RETURN(auto outcome,
                          emulate_and_report(models.first, models.second,
                                             timing, backend, true, spans));
  response.execution_time = outcome.first;
  response.report_json = std::move(outcome.second);
  cache.insert({key, response.report_json, response.execution_time});
  return response;
}

}  // namespace

Status replay_submit(const std::string& line, service::ResultCache& cache,
                     SpanRecorder& spans) {
  Scope op(spans, "op");
  SEGBUS_ASSIGN_OR_RETURN(service::JobRequest request, decode(line, spans));
  SEGBUS_ASSIGN_OR_RETURN(
      service::JobResponse response,
      run_job(request, emu::EngineBackend::kReference, cache, spans));
  encode(response, spans);
  return Status::ok();
}

Status replay_estimate(const std::string& line, const std::string& report,
                       SpanRecorder& spans) {
  Scope op(spans, "op");
  SEGBUS_ASSIGN_OR_RETURN(service::JobRequest request, decode(line, spans));
  SEGBUS_ASSIGN_OR_RETURN(auto models,
                          build_models(request.psdf_xml, request.psm_xml,
                                       request.package_size, spans));
  const psdf::PsdfModel& app = models.first;
  const platform::PlatformModel& platform = models.second;
  const emu::TimingModel timing = request.reference_timing
                                      ? emu::TimingModel::reference()
                                      : emu::TimingModel::emulator();
  const service::EstimateParams& params = request.estimate;
  stoch::StochasticSpec spec;
  SEGBUS_ASSIGN_OR_RETURN(spec.compute_scale,
                          stoch::Distribution::parse(params.compute));
  SEGBUS_ASSIGN_OR_RETURN(spec.items_scale,
                          stoch::Distribution::parse(params.items));

  // The plug-in-the-expectation baseline runs inline in the handler.
  if (Result<psdf::PsdfModel> mean = stoch::mean_model(app, spec);
      mean.is_ok()) {
    Scope scope(spans, "stoch.mean_model");
    SEGBUS_RETURN_IF_ERROR(analyze(*mean, platform, timing, spans));
    SEGBUS_RETURN_IF_ERROR(emulate_and_report(*mean, platform, timing,
                                              emu::EngineBackend::kFast, false,
                                              spans)
                               .status());
  }

  // Replications: dedup by fingerprint, then one inner submit job each.
  const std::string psm_xml = xml::write_document(platform::to_xml(platform));
  // The estimator's inner job server, with its default cache.
  service::ResultCache inner_cache(service::ServerConfig{}.cache_entries);
  std::unordered_set<std::string> seen;
  for (std::uint32_t k = 0; k < params.max_replications; ++k) {
    Result<psdf::PsdfModel> realized = [&] {
      Scope scope(spans, "stoch.realize");
      return stoch::realize(app, spec, params.seed, k);
    }();
    if (!realized.is_ok()) return realized.status();
    spans.count("stoch.replications", 1.0);
    SEGBUS_ASSIGN_OR_RETURN(std::string key,
                            digest(*realized, platform, timing, spans));
    if (!seen.insert(key).second) continue;
    spans.count("stoch.unique_runs", 1.0);
    service::JobRequest job;
    job.reference_timing = request.reference_timing;
    job.psm_xml = psm_xml;
    {
      Scope scope(spans, "xml.write");
      job.psdf_xml = xml::write_document(psdf::to_xml(*realized));
    }
    SEGBUS_RETURN_IF_ERROR(
        run_job(job, emu::EngineBackend::kFast, inner_cache, spans).status());
  }

  service::JobResponse response;
  response.id = request.id;
  response.ok = true;
  response.report_json = report;
  encode(response, spans);
  return Status::ok();
}

Status replay_search(const std::string& line, SpanRecorder& spans) {
  Scope op(spans, "op");
  SEGBUS_ASSIGN_OR_RETURN(service::JobRequest request, decode(line, spans));
  SEGBUS_ASSIGN_OR_RETURN(xml::Document document,
                          parse_xml(request.psdf_xml, spans));
  Result<psdf::PsdfModel> app = [&] {
    Scope scope(spans, "psdf.from_xml");
    return psdf::from_xml(document);
  }();
  if (!app.is_ok()) return app.status();
  const service::SearchParams& params = request.search;
  search::SearchSpec spec;
  spec.segment_counts.clear();
  for (std::string_view item : split_skip_empty(params.segments, ',')) {
    spec.segment_counts.push_back(
        static_cast<std::uint32_t>(parse_uint(item).value_or(1)));
  }
  spec.seed = params.seed;
  spec.max_emulations = params.max_emulations;
  spec.max_nodes = params.max_nodes;
  spec.beam_width = params.beam_width;
  spec.anneal_restarts = params.anneal_restarts;
  spec.anneal_iterations = params.anneal_iterations;
  spec.max_ticks = kServerMaxTicks;
  spec.workers = 1;
  Result<search::SearchReport> report = [&] {
    Scope scope(spans, "search.run");
    return search::run_search(*app, spec);
  }();
  if (!report.is_ok()) return report.status();
  spans.count("search.searches", 1.0);
  spans.count("search.nodes", static_cast<double>(report->nodes_expanded));
  spans.count("search.emulated", static_cast<double>(report->emulated));
  spans.count("search.deduplicated",
              static_cast<double>(report->deduplicated));
  for (const search::ComboReport& combo : report->combos) {
    spans.count("search.bound_pruned",
                static_cast<double>(combo.bound_pruned));
  }
  service::JobResponse response;
  response.id = request.id;
  response.ok = true;
  {
    Scope scope(spans, "core.report");
    response.report_json = search::search_to_json(*report).to_string();
  }
  spans.count("core.report_bytes",
              static_cast<double>(response.report_json.size()));
  encode(response, spans);
  return Status::ok();
}

}  // namespace perfbench
