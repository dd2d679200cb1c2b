#include "inputs.hpp"

#include <numeric>
#include <utility>

#include "apps/h263.hpp"
#include "apps/jpeg.hpp"
#include "apps/mp3.hpp"
#include "apps/synthetic.hpp"
#include "platform/platform_xml.hpp"
#include "psdf/psdf_xml.hpp"
#include "scen/generator.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "xml/node.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace perfbench {

using namespace segbus;

namespace {

Result<System> paper_system(std::string label, Result<psdf::PsdfModel> app,
                            const std::vector<std::uint32_t>& allocation,
                            std::uint32_t segments, std::uint32_t package,
                            int which) {
  if (!app.is_ok()) return app.status();
  Result<platform::PlatformModel> platform =
      which == 0   ? apps::mp3_platform(*app, allocation, segments, package)
      : which == 1 ? apps::jpeg_platform(*app, allocation, segments, package)
                   : apps::h263_platform(*app, allocation, segments, package);
  if (!platform.is_ok()) return platform.status();
  System system;
  system.label = std::move(label);
  system.app = std::move(app).value();
  system.platform = std::move(platform).value();
  return system;
}

/// The application with `offset` added, in base-4 digits, to the compute
/// ticks C of its flows (first flow = lowest digit). Distinct offsets below
/// 4^flows give distinct canonical schemes at nearly the same cost.
Result<psdf::PsdfModel> with_compute_offset(const psdf::PsdfModel& app,
                                            std::uint64_t offset) {
  psdf::PsdfModel out(app.name());
  SEGBUS_RETURN_IF_ERROR(out.set_package_size(app.package_size()));
  for (const psdf::Process& process : app.processes()) {
    auto added = out.add_process(process.name);
    if (!added.is_ok()) return added.status();
  }
  for (const psdf::Flow& flow : app.flows()) {
    SEGBUS_RETURN_IF_ERROR(out.add_flow(flow.source, flow.target,
                                        flow.data_items, flow.ordering,
                                        flow.compute_ticks + offset % 4));
    offset /= 4;
  }
  if (offset != 0) {
    return invalid_argument_error("compute offset exceeds 4^flows for " +
                                  app.name());
  }
  return out;
}

/// A consistently renamed twin with reversed flow insertion order (the
/// fingerprint relabels processes by placement order, and the engine
/// schedules flows by (T, source, target), so neither sees a difference).
Result<System> renamed(const System& system) {
  const psdf::PsdfModel& app = system.app;
  std::vector<std::string> names(app.process_count());
  for (std::size_t i = 0; i < names.size(); ++i) {
    names[i] = str_format("Q%zu_renamed", names.size() - i);
  }
  System out;
  out.label = system.label + "/renamed";
  out.reference_timing = system.reference_timing;
  out.app = psdf::PsdfModel(app.name() + "_renamed");
  SEGBUS_RETURN_IF_ERROR(out.app.set_package_size(app.package_size()));
  for (const std::string& name : names) {
    auto added = out.app.add_process(name);
    if (!added.is_ok()) return added.status();
  }
  for (auto it = app.flows().rbegin(); it != app.flows().rend(); ++it) {
    SEGBUS_RETURN_IF_ERROR(out.app.add_flow(it->source, it->target,
                                            it->data_items, it->ordering,
                                            it->compute_ticks));
  }
  const platform::PlatformModel& psm = system.platform;
  out.platform = platform::PlatformModel(psm.name() + "_renamed");
  SEGBUS_RETURN_IF_ERROR(out.platform.set_package_size(psm.package_size()));
  SEGBUS_RETURN_IF_ERROR(out.platform.set_ca_clock(psm.ca_clock()));
  for (const platform::Segment& segment : psm.segments()) {
    auto added = out.platform.add_segment(segment.clock);
    if (!added.is_ok()) return added.status();
  }
  for (platform::SegmentId s = 0; s < psm.segment_count(); ++s) {
    for (const platform::FunctionalUnit& fu : psm.segment(s).fus) {
      const auto id = app.find_process(fu.process);
      if (!id) return internal_error("unmapped process " + fu.process);
      SEGBUS_RETURN_IF_ERROR(
          out.platform.map_process(names[*id], s, fu.masters, fu.slaves));
    }
  }
  if (!psm.border_units().empty()) {
    SEGBUS_RETURN_IF_ERROR(out.platform.set_bu_capacity(
        psm.border_units().front().capacity_packages));
  }
  return out;
}

void copy_reversed(const xml::Element& from, xml::Element& to) {
  const std::vector<xml::Attribute>& attributes = from.attributes();
  for (auto it = attributes.rbegin(); it != attributes.rend(); ++it) {
    to.set_attribute(it->name, it->value);
  }
  for (const xml::Node& node : from.children()) {
    switch (node.kind()) {
      case xml::NodeKind::kElement:
        copy_reversed(node.element(), to.add_child(node.element().name()));
        break;
      case xml::NodeKind::kText:
        to.add_text(node.text());
        break;
      case xml::NodeKind::kComment:
        to.add_comment(node.text());
        break;
      case xml::NodeKind::kCData:
        to.add_cdata(node.text());
        break;
    }
  }
}

/// The system as the server sees it: both models read back from their
/// XML. psdf::to_xml does not keep the in-memory flow insertion order, and
/// the estimator draws its per-flow scales in that order, so estimates are
/// only comparable on the models the XML denotes.
Result<System> as_parsed(const System& system) {
  SEGBUS_ASSIGN_OR_RETURN(
      xml::Document psdf_doc,
      xml::parse_document(xml::write_document(psdf::to_xml(system.app))));
  SEGBUS_ASSIGN_OR_RETURN(xml::Document psm_doc,
                          xml::parse_document(xml::write_document(
                              platform::to_xml(system.platform))));
  System out;
  out.label = system.label;
  out.reference_timing = system.reference_timing;
  SEGBUS_ASSIGN_OR_RETURN(out.app, psdf::from_xml(psdf_doc));
  SEGBUS_ASSIGN_OR_RETURN(out.platform, platform::from_xml(psm_doc));
  return out;
}

std::string reversed_attributes(const xml::Document& document) {
  xml::Document out;
  out.set_declaration(document.declaration());
  out.root().set_name(document.root().name());
  copy_reversed(document.root(), out.root());
  return xml::write_document(out);
}

}  // namespace

Result<std::vector<System>> paper_systems() {
  std::vector<System> systems;
  auto add = [&](Result<System> system) -> Status {
    if (!system.is_ok()) return system.status();
    systems.push_back(std::move(system).value());
    return Status::ok();
  };
  for (std::uint32_t segments : {1u, 2u, 3u}) {
    SEGBUS_RETURN_IF_ERROR(add(paper_system(
        str_format("mp3-s%u-p36", segments), apps::mp3_decoder_psdf(36),
        apps::mp3_allocation(segments), segments, 36, 0)));
  }
  SEGBUS_RETURN_IF_ERROR(add(paper_system("mp3-s2-p18",
                                          apps::mp3_decoder_psdf(18),
                                          apps::mp3_allocation(2), 2, 18, 0)));
  SEGBUS_RETURN_IF_ERROR(add(paper_system(
      "jpeg-s1-p36", apps::jpeg_encoder_psdf(36),
      std::vector<std::uint32_t>(apps::kJpegProcesses, 0), 1, 36, 1)));
  SEGBUS_RETURN_IF_ERROR(add(paper_system(
      "jpeg-s2-p36", apps::jpeg_encoder_psdf(36),
      apps::jpeg_allocation_two_segments(), 2, 36, 1)));
  for (std::uint32_t segments : {1u, 2u}) {
    SEGBUS_RETURN_IF_ERROR(add(paper_system(
        str_format("h263-s%u-p36", segments), apps::h263_encoder_psdf(36),
        apps::h263_allocation(segments), segments, 36, 2)));
  }
  return systems;
}

Result<System> cold_system(const std::vector<System>& paper,
                           std::uint64_t seed, std::uint64_t index) {
  System system;
  const std::uint64_t slot = index % 16;
  if (slot % 4 == 3 && slot != 15) {
    scen::GeneratorOptions options;
    options.min_processes = 4;
    options.max_segments = 3;
    options.stochastic_probability = 0.0;
    options.multimode_probability = 0.0;
    SEGBUS_ASSIGN_OR_RETURN(
        scen::Scenario scenario,
        scen::generate_scenario(
            derive_seed(derive_seed(seed, "perfbench/cold-scenario"), index),
            options));
    system.label = str_format("scen-%llu",
                              static_cast<unsigned long long>(index));
    system.app = std::move(scenario.application);
    system.platform = std::move(scenario.platform);
    return system;
  }
  // Of every 16 indices, 12 take the MP3 systems (paper[0..3]) and one
  // the JPEG and H.263 systems (paper[4..7]), each group in rotation, so
  // the mix costs the same on every seed.
  const bool heavy = slot == 15;
  const std::uint64_t group = heavy ? 4 : 0;
  const std::uint64_t k =
      heavy ? index / 16 : index / 16 * 12 + slot - slot / 4;
  const System& base = paper[group + k % 4];
  const std::uint64_t offset =
      derive_seed(seed, "perfbench/cold-offset") % 4096 + k / 4;
  system.label = str_format("%s+%llu", base.label.c_str(),
                            static_cast<unsigned long long>(offset));
  SEGBUS_ASSIGN_OR_RETURN(system.app, with_compute_offset(base.app, offset));
  system.platform = base.platform;
  system.reference_timing = base.reference_timing;
  return system;
}

Result<std::vector<System>> repeat_working_set(
    const std::vector<System>& paper, std::uint64_t seed) {
  std::vector<System> set;
  const std::uint64_t first =
      derive_seed(seed, "perfbench/repeat-offset") % 4096;
  for (std::size_t r = 0; r < kRepeatSchemes; ++r) {
    const System& base = paper[r % paper.size()];
    System system;
    system.label = str_format("%s+%llu", base.label.c_str(),
                              static_cast<unsigned long long>(first + r));
    SEGBUS_ASSIGN_OR_RETURN(system.app,
                            with_compute_offset(base.app, first + r));
    system.platform = base.platform;
    set.push_back(std::move(system));
  }
  return set;
}

RepeatPick repeat_pick(std::uint64_t seed, std::uint64_t index) {
  Xoshiro256 rng(
      derive_seed(derive_seed(seed, "perfbench/repeat-pick"), index));
  RepeatPick pick;
  pick.scheme = static_cast<std::size_t>(rng.next_below(kRepeatSchemes));
  pick.form = static_cast<Form>(rng.next_below(kFormCount));
  return pick;
}

Result<SchemeXml> render(const System& system, Form form) {
  switch (form) {
    case Form::kExact:
      return SchemeXml{xml::write_document(psdf::to_xml(system.app)),
                       xml::write_document(platform::to_xml(system.platform))};
    case Form::kWhitespace: {
      xml::WriteOptions options;
      options.indent = "\t";
      options.emit_declaration = false;
      return SchemeXml{
          xml::write_document(psdf::to_xml(system.app), options),
          xml::write_document(platform::to_xml(system.platform), options)};
    }
    case Form::kReordered:
      return SchemeXml{reversed_attributes(psdf::to_xml(system.app)),
                       reversed_attributes(platform::to_xml(system.platform))};
    case Form::kRenamed: {
      SEGBUS_ASSIGN_OR_RETURN(System twin, renamed(system));
      return render(twin, Form::kExact);
    }
  }
  return internal_error("unknown form");
}

std::string submit_line(const std::string& id, const SchemeXml& xml,
                        bool reference_timing) {
  service::JobRequest request;
  request.id = id;
  request.psdf_xml = xml.psdf;
  request.psm_xml = xml.psm;
  request.reference_timing = reference_timing;
  return service::encode_request(request);
}

Result<std::vector<EstimateInput>> estimate_pool(
    const std::vector<System>& paper, std::uint64_t seed) {
  // mp3 s1/s2/s3, jpeg s2, h263 s2 (indices into paper_systems()).
  constexpr std::size_t kBases[] = {0, 1, 2, 5, 7};
  constexpr const char* kCompute[] = {"uniform:0.8,1.2", "lognormal:-0.03,0.25",
                                      "pareto:3,0.667"};
  constexpr std::size_t kPool = 16;
  std::vector<EstimateInput> pool;
  for (std::size_t n = 0; n < kPool; ++n) {
    EstimateInput input;
    SEGBUS_ASSIGN_OR_RETURN(input.system, as_parsed(paper[kBases[n % 5]]));
    input.degenerate = n >= kPool - 2;
    input.params.compute = input.degenerate ? "point:1" : kCompute[n % 3];
    input.params.items =
        input.degenerate || (n / 3) % 2 == 0 ? "point:1" : "uniform:0.9,1.1";
    input.params.seed =
        derive_seed(derive_seed(seed, "perfbench/estimate"), n) % 1000000007 +
        1;
    input.params.min_replications = kReplications;
    input.params.max_replications = kReplications;
    input.params.round_replications = kReplications;
    input.params.target_relative_half_width = 0.0;
    input.system.label =
        str_format("%s %s/%s seed %llu", input.system.label.c_str(),
                   input.params.compute.c_str(), input.params.items.c_str(),
                   static_cast<unsigned long long>(input.params.seed));
    pool.push_back(std::move(input));
  }
  return pool;
}

std::string estimate_line(const std::string& id, const EstimateInput& input,
                          const SchemeXml& xml) {
  service::JobRequest request;
  request.id = id;
  request.kind = "estimate";
  request.psdf_xml = xml.psdf;
  request.psm_xml = xml.psm;
  request.reference_timing = input.system.reference_timing;
  request.engine = "fast";
  request.estimate = input.params;
  return service::encode_request(request);
}

Result<std::vector<SearchInput>> search_pool() {
  std::vector<SearchInput> pool;
  for (std::uint64_t copy = 0; copy < 2; ++copy) {
    const std::uint64_t heuristic_seed = copy + 1;
    auto add = [&](std::string label, Result<psdf::PsdfModel> app,
                   std::string segments, std::uint64_t max_emulations,
                   bool exhaustive) -> Status {
      if (!app.is_ok()) return app.status();
      SearchInput input;
      input.label = std::move(label) +
                    str_format(" seed %llu",
                               static_cast<unsigned long long>(heuristic_seed));
      input.app = std::move(app).value();
      input.params.segments = std::move(segments);
      input.params.seed = heuristic_seed;
      input.params.max_emulations = max_emulations;
      input.params.max_nodes = 200000;
      input.exhaustive_check = exhaustive;
      pool.push_back(std::move(input));
      return Status::ok();
    };
    SEGBUS_RETURN_IF_ERROR(
        add("mp3-s2", apps::mp3_decoder_psdf(36), "2", 64, false));
    SEGBUS_RETURN_IF_ERROR(
        add("mp3-s3", apps::mp3_decoder_psdf(36), "3", 24, false));
    SEGBUS_RETURN_IF_ERROR(
        add("jpeg-s2", apps::jpeg_encoder_psdf(36), "2", 64, false));
    apps::PipelineOptions pipeline;
    pipeline.stages = 6;
    pipeline.compute_ticks = 90 + 20 * copy;
    pipeline.items_per_hop = 360 + 72 * copy;
    SEGBUS_RETURN_IF_ERROR(add("pipeline6-s23",
                               apps::synthetic_pipeline(pipeline), "2,3", 0,
                               true));
    apps::RandomWorkloadOptions random;
    random.seed = 101 + copy;
    random.min_layers = random.max_layers = 3;
    random.min_width = random.max_width = 2;
    SEGBUS_RETURN_IF_ERROR(add("random6-s23", apps::synthetic_random(random),
                               "2,3", 0, true));
  }
  return pool;
}

std::string search_line(const std::string& id, const SearchInput& input,
                        const std::string& psdf_xml) {
  service::JobRequest request;
  request.id = id;
  request.kind = "search";
  request.psdf_xml = psdf_xml;
  request.search = input.params;
  return service::encode_request(request);
}

std::size_t pool_pick(std::uint64_t seed, std::size_t pool_size,
                      std::uint64_t index) {
  std::vector<std::size_t> order(pool_size);
  std::iota(order.begin(), order.end(), 0);
  Xoshiro256 rng(derive_seed(seed, "perfbench/pool-order"));
  for (std::size_t i = pool_size; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order[index % pool_size];
}

}  // namespace perfbench
