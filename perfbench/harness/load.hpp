// Closed-loop load from one process: each connection sends its next request
// only after the previous reply arrived. Latency is timed from send to the
// reply line; building the request and decoding the reply happen outside
// that interval. An untimed warm-up of the same loop comes first: on a
// virtual machine whose CPUs were idle, the first second or so runs several
// times slower than the rest.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// What the checks need from one reply (whole reports are kept only where
/// asked, so a long run does not hold every payload).
struct Reply {
  std::uint64_t index = 0;  ///< operation index (selects the input)
  double latency_ms = 0.0;
  bool timed = false;  ///< sent inside the timed window (after the warm-up)
  bool ok = false;
  std::string error;  ///< transport error or "code: message"
  bool cache_hit = false;
  std::string digest;
  std::int64_t execution_ps = 0;
  std::size_t report_hash = 0;
  std::string report;  ///< only when keep_report(index)
  double queue_ms = 0.0;
  double run_ms = 0.0;
};

struct LoadResult {
  std::vector<Reply> replies;  ///< warm-up and window, by operation index
  double window_s = 0.0;       ///< end of the warm-up to the last reply
};

/// Length of the untimed warm-up that precedes every timed window.
inline constexpr double kWarmupSeconds = 2.0;

struct LoadSpec {
  std::string socket;
  unsigned connections = 4;
  double seconds = 10.0;
  double warmup_seconds = kWarmupSeconds;
  /// Index of the first operation (a later segment of one run continues
  /// where the previous one stopped).
  std::uint64_t first_index = 0;
  /// Called once when the warm-up ends and the timed window starts.
  std::function<void()> at_window_start;
  std::function<std::string(std::uint64_t)> make_line;
  std::function<bool(std::uint64_t)> keep_report;
};

/// Runs the closed loop for `warmup_seconds` and then `seconds` more
/// (requests in flight at the end still complete and count). Operation
/// indices count from `first_index` and run on from the warm-up into the
/// window; every index taken yields one reply.
LoadResult run_closed_loop(const LoadSpec& spec);

/// Decodes one reply line into `reply` (everything but index/latency).
void decode_reply(const std::string& line, bool keep_report, Reply& reply);

/// Nearest-rank percentile of `values` (q in [0, 1]).
double percentile(std::vector<double> values, double q);

}  // namespace perfbench
