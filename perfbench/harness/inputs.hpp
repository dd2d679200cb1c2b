// Seeded input generator. Every scheme, variant and request comes from
// src/apps (the paper's MP3 decoder, JPEG and H.263 encoders, synthetic
// applications) and scen::generate_scenario; the same seed gives the same
// inputs, and nothing is read from disk or the network. The server only
// ever sees the XML and request lines built here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "platform/model.hpp"
#include "psdf/model.hpp"
#include "service/protocol.hpp"
#include "support/status.hpp"

namespace perfbench {

/// One emulatable system: the in-memory models the XML is rendered from,
/// which the reference checks use directly (no XML, service or cache).
struct System {
  std::string label;
  segbus::psdf::PsdfModel app;
  segbus::platform::PlatformModel platform;
  bool reference_timing = false;
};

/// The two scheme documents of one submission.
struct SchemeXml {
  std::string psdf;
  std::string psm;
};

/// How a scheme is rendered. Every form is semantically identical to
/// kExact: same canonical scheme, same digest, same report.
enum class Form : std::uint8_t {
  kExact,       ///< the generator's pretty-printed bytes
  kWhitespace,  ///< other indentation, no XML declaration
  kReordered,   ///< every element's attributes in reverse order
  kRenamed,     ///< processes renamed, flows inserted in reverse order
};
inline constexpr int kFormCount = 4;

/// The paper applications the workloads rotate through, in a fixed order
/// so the cost mix is the same on every seed.
segbus::Result<std::vector<System>> paper_systems();

/// submit_cold input `index`. Of every 16 indices, 12 are MP3 systems, 3
/// seeded scenarios and 1 a JPEG or H.263 system (the heavy ones: a
/// reference-engine H.263 run takes 15x an MP3 run). Paper systems carry
/// per-index compute offsets on their flows, so no two indices of one run
/// share a canonical scheme.
segbus::Result<System> cold_system(const std::vector<System>& paper,
                                   std::uint64_t seed, std::uint64_t index);

/// submit_repeat working set: kRepeatSchemes seeded variants of the paper
/// systems (fewer than the server's cache entries).
inline constexpr std::size_t kRepeatSchemes = 12;
segbus::Result<std::vector<System>> repeat_working_set(
    const std::vector<System>& paper, std::uint64_t seed);

/// The (scheme, form) pair of submit_repeat operation `index`.
struct RepeatPick {
  std::size_t scheme = 0;
  Form form = Form::kExact;
};
RepeatPick repeat_pick(std::uint64_t seed, std::uint64_t index);

/// Renders `system` in `form`.
segbus::Result<SchemeXml> render(const System& system, Form form);

/// A submit request for `xml` (no engine field: the server's default).
std::string submit_line(const std::string& id, const SchemeXml& xml,
                        bool reference_timing);

/// One distinct estimate request of the estimate_fast pool.
struct EstimateInput {
  System system;  ///< as read back from its XML (see as_parsed in the .cpp)
  segbus::service::EstimateParams params;
  bool degenerate = false;  ///< point:1 on both scales
};
inline constexpr std::uint32_t kReplications = 24;
segbus::Result<std::vector<EstimateInput>> estimate_pool(
    const std::vector<System>& paper, std::uint64_t seed);
std::string estimate_line(const std::string& id, const EstimateInput& input,
                          const SchemeXml& xml);

/// One distinct guided-search request of the search_guided pool.
struct SearchInput {
  std::string label;
  segbus::psdf::PsdfModel app;
  segbus::service::SearchParams params;
  /// Small enough for the exhaustive cross-check.
  bool exhaustive_check = false;
};
/// The pool is fixed (fixed applications and heuristic seeds, as the
/// search's cost depends strongly on both); the run seed only orders it.
segbus::Result<std::vector<SearchInput>> search_pool();
std::string search_line(const std::string& id, const SearchInput& input,
                        const std::string& psdf_xml);

/// Operation `index` of a pool workload: a seeded permutation of the pool
/// repeated, so every pool entry carries the same weight on every seed.
std::size_t pool_pick(std::uint64_t seed, std::size_t pool_size,
                      std::uint64_t index);

}  // namespace perfbench
