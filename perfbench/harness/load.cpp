#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "service/client.hpp"
#include "service/protocol.hpp"

namespace perfbench {

using namespace segbus;
using Clock = std::chrono::steady_clock;

void decode_reply(const std::string& line, bool keep_report, Reply& reply) {
  Result<service::JobResponse> response = service::parse_response(line);
  if (!response.is_ok()) {
    reply.error = "undecodable reply: " + response.status().to_string();
    return;
  }
  reply.ok = response->ok;
  if (!reply.ok) {
    reply.error = response->error_code + ": " + response->error_message;
    return;
  }
  reply.cache_hit = response->cache_hit;
  reply.digest = std::move(response->digest);
  reply.execution_ps = response->execution_time.count();
  reply.report_hash = std::hash<std::string>{}(response->report_json);
  if (keep_report) reply.report = std::move(response->report_json);
  reply.queue_ms = response->queue_ms;
  reply.run_ms = response->run_ms;
}

LoadResult run_closed_loop(const LoadSpec& spec) {
  std::atomic<std::uint64_t> next{spec.first_index};
  std::vector<std::vector<Reply>> per_connection(spec.connections);
  auto span = [](double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  };
  const Clock::time_point window_start =
      Clock::now() + span(spec.warmup_seconds);
  const Clock::time_point deadline = window_start + span(spec.seconds);

  auto connection = [&](std::vector<Reply>& out) {
    Result<service::Client> client = service::Client::connect_unix(spec.socket);
    while (Clock::now() < deadline) {
      const std::uint64_t index = next.fetch_add(1);
      Reply reply;
      reply.index = index;
      if (!client.is_ok()) {
        reply.error = client.status().to_string();
        out.push_back(std::move(reply));
        break;
      }
      const std::string line = spec.make_line(index);
      const Clock::time_point sent = Clock::now();
      reply.timed = sent >= window_start;
      Result<std::string> answer = client->call_raw(line);
      reply.latency_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - sent)
              .count();
      if (!answer.is_ok()) {
        reply.error = answer.status().to_string();
        out.push_back(std::move(reply));
        break;
      }
      decode_reply(*answer, spec.keep_report && spec.keep_report(index),
                   reply);
      out.push_back(std::move(reply));
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(spec.connections);
  for (unsigned c = 0; c < spec.connections; ++c) {
    threads.emplace_back(connection, std::ref(per_connection[c]));
  }
  std::this_thread::sleep_until(window_start);
  if (spec.at_window_start) spec.at_window_start();
  for (std::thread& thread : threads) thread.join();

  LoadResult result;
  result.window_s =
      std::chrono::duration<double>(Clock::now() - window_start).count();
  for (std::vector<Reply>& replies : per_connection) {
    for (Reply& reply : replies) result.replies.push_back(std::move(reply));
  }
  std::sort(result.replies.begin(), result.replies.end(),
            [](const Reply& a, const Reply& b) { return a.index < b.index; });
  return result;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace perfbench
