// Output checks. Every reply is compared with a result computed apart from
// the server (in-process runs on the generator's in-memory models) or
// against properties the method must have. Each check appends a message per
// violation; the self-test (selftest.cpp) feeds each one a wrong reply.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "load.hpp"
#include "support/json.hpp"
#include "support/status.hpp"

namespace perfbench {

/// Collected violations (the run is correct while this stays empty).
class Findings {
 public:
  void add(std::string message);
  bool empty() const noexcept { return count_ == 0; }
  std::size_t count() const noexcept { return count_; }
  /// The first few messages, for stderr.
  const std::vector<std::string>& sample() const noexcept { return sample_; }

 private:
  std::size_t count_ = 0;
  std::vector<std::string> sample_;
};

/// The server's tick budget (segbus_cli serve's default), folded into the
/// digests the server reports.
inline constexpr std::uint64_t kServerMaxTicks = 20'000'000;

// --- submit -----------------------------------------------------------

/// What a plain submit of `system` must answer, computed in-process: a
/// reference-engine run on the in-memory models, their fingerprint and
/// their v2 static bounds.
struct SubmitReference {
  std::string digest;
  std::int64_t execution_ps = 0;
  std::int64_t lower_ps = 0;
  std::int64_t upper_ps = 0;
};
segbus::Result<SubmitReference> submit_reference(const System& system);

/// ok, execution_ps equal to the reference run and inside the static
/// bounds, digest equal to the in-process fingerprint.
void check_submit(const SubmitReference& expected, const Reply& reply,
                  const std::string& what, Findings& findings);

/// Every variant of one canonical scheme answers the report of its first
/// submission, byte for byte.
void check_same_report(std::size_t expected_hash, const Reply& reply,
                       const std::string& what, Findings& findings);

/// The server's `stats` cache section shows exactly these counts.
void check_cache_counts(const segbus::JsonValue& stats,
                        std::uint64_t expected_hits,
                        std::uint64_t expected_misses, Findings& findings);

// --- estimate ---------------------------------------------------------

/// stoch::estimate_inline on the same inputs, serialized like the server's
/// report.
segbus::Result<std::string> estimate_reference(const EstimateInput& input);

/// Properties of one estimate report: exactly the requested replications,
/// p50 <= p95 <= p99, ci_low <= mean <= ci_high.
void check_estimate_properties(const std::string& report,
                               std::uint32_t replications,
                               const std::string& what, Findings& findings);

/// A point:1 estimate's mean equals the plain submit's execution_ps.
void check_degenerate_mean(const std::string& report,
                           std::int64_t submit_execution_ps,
                           const std::string& what, Findings& findings);

// --- search -----------------------------------------------------------

/// In-process references for one search request: the report run_search
/// gives on the same spec, and (when small enough) the exhaustive winner.
struct SearchReference {
  std::string report;
  bool exhaustive = false;
  std::string exhaustive_digest;
  std::int64_t exhaustive_ps = 0;
};
segbus::Result<SearchReference> search_reference(const SearchInput& input,
                                                 unsigned workers);

/// Proven-optimal combos cover feasible_space(processes, segments); the
/// winner's time equals a direct reference-engine emulation of the
/// winning placement; with an exhaustive reference, the winner is its.
void check_search_report(const SearchReference& expected,
                         const SearchInput& input, const std::string& report,
                         const std::string& what, Findings& findings);

/// Byte equality of a reply's report with the reference report.
void check_report_bytes(const std::string& expected, const Reply& reply,
                        const std::string& what, Findings& findings);

}  // namespace perfbench
