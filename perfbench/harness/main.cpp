// segbus_perfbench — the repository's benchmark harness.
//
//   segbus_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --server PATH/segbus_cli --work-dir DIR
//   segbus_perfbench --self-test
//
// Starts `segbus_cli serve` as a separate process, drives it over the unix
// socket NDJSON protocol with closed-loop connections from this process,
// checks every reply, and prints one JSON result line last on stdout. With
// --trace 1 the timed window is halved and followed by the traced replay,
// which reports per-layer metrics instead of end-to-end ones. See
// perfbench/README.md for the workloads, metrics and checks.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <unistd.h>

#include "checks.hpp"
#include "inputs.hpp"
#include "load.hpp"
#include "psdf/psdf_xml.hpp"
#include "replay.hpp"
#include "selftest.hpp"
#include "server.hpp"
#include "service/client.hpp"
#include "spans.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "xml/writer.hpp"

namespace perfbench {
namespace {

using namespace segbus;

/// Everything one workload contributes to a run. Hooks left empty do
/// nothing.
struct Workload {
  /// Tail percentile: the highest with at least ten samples beyond it at
  /// the request counts this workload reaches in a run.
  double tail_q = 0.99;
  /// Closed-loop connections, capped at the server's workers. Estimate and
  /// search requests fan out over all the workers by themselves, so one
  /// connection per worker would run workers² threads on `workers` CPUs.
  unsigned connections = 4;
  std::function<std::string(std::uint64_t)> line;
  std::function<bool(std::uint64_t)> keep_report;
  /// Untimed requests on the control connection before the loop starts.
  std::function<void(service::Client&, Findings&)> before;
  /// Untimed requests after the window, while the server still runs.
  std::function<void(service::Client&, const LoadResult&, Findings&)> after;
  /// Checks once the server has stopped.
  std::function<void(const LoadResult&, Findings&)> check;
  /// Per-reply checks too costly to leave for the end. When set, the timed
  /// window is split into kSegments parts and these checks run on each
  /// part's replies while the load pauses, so the same measured seconds
  /// sample a longer stretch of the host's varying speed.
  std::function<void(const std::vector<Reply>&, Findings&)> check_segment;
  /// Estimates a reply stands for (a submit is one; an estimate its
  /// replications; a search its scored leaves).
  std::function<double(const Reply&)> units;
  /// Makes a replayer with fresh state (empty caches); calling it with i
  /// replays operation i through the layers.
  using Step = std::function<Status(std::uint64_t, SpanRecorder&)>;
  std::function<Step()> replayer;
  std::uint64_t replay_ops = 0;
};

inline constexpr int kSegments = 4;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T unwrap(Result<T> result, const std::string& what) {
  if (!result.is_ok()) die(what + ": " + result.status().to_string());
  return std::move(result).value();
}

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Runs fn(i) for i in [0, n) on `threads` threads.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
}

JsonValue call_stats(service::Client& client) {
  service::JobRequest request;
  request.id = "stats";
  request.kind = "stats";
  service::JobResponse response =
      unwrap(client.call(request), "stats request");
  return unwrap(JsonValue::parse(response.report_json), "stats payload");
}

/// A sequential, untimed submit on the control connection.
Reply control_call(service::Client& client, const std::string& line,
                   std::uint64_t index) {
  Reply reply;
  reply.index = index;
  Result<std::string> answer = client.call_raw(line);
  if (!answer.is_ok()) {
    reply.error = answer.status().to_string();
    return reply;
  }
  decode_reply(*answer, /*keep_report=*/true, reply);
  return reply;
}

// --- submit_cold ---------------------------------------------------------

Workload submit_cold(std::uint64_t seed) {
  auto paper = std::make_shared<std::vector<System>>(
      unwrap(paper_systems(), "paper systems"));
  Workload w;
  w.tail_q = 0.99;
  auto line = [paper, seed](std::uint64_t i) {
    const System system = unwrap(cold_system(*paper, seed, i), "cold input");
    return submit_line(str_format("c%llu", static_cast<unsigned long long>(i)),
                       unwrap(render(system, Form::kExact), "render"),
                       system.reference_timing);
  };
  w.line = line;
  w.after = [](service::Client& client, const LoadResult& load,
               Findings& findings) {
    std::uint64_t ok = 0;
    for (const Reply& reply : load.replies) ok += reply.ok ? 1 : 0;
    check_cache_counts(call_stats(client), 0, ok, findings);
  };
  w.check_segment = [paper, seed](const std::vector<Reply>& replies,
                                  Findings& findings) {
    std::mutex mutex;
    parallel_for(replies.size(), hardware_threads(), [&](std::size_t n) {
      const Reply& reply = replies[n];
      const System system =
          unwrap(cold_system(*paper, seed, reply.index), "cold input");
      const SubmitReference expected =
          unwrap(submit_reference(system), "reference run " + system.label);
      Findings local;
      check_submit(expected, reply, system.label, local);
      std::lock_guard<std::mutex> lock(mutex);
      for (const std::string& message : local.sample()) findings.add(message);
    });
  };
  w.check = [](const LoadResult& load, Findings& findings) {
    std::unordered_set<std::string> digests;
    for (const Reply& reply : load.replies) {
      if (reply.ok && !digests.insert(reply.digest).second) {
        findings.add("two cold submissions share digest " + reply.digest);
      }
    }
  };
  w.units = [](const Reply&) { return 1.0; };
  w.replayer = [line] {
    auto cache = std::make_shared<service::ResultCache>(kServerCacheEntries);
    return [line, cache](std::uint64_t i, SpanRecorder& spans) {
      return replay_submit(line(i), *cache, spans);
    };
  };
  w.replay_ops = 96;
  return w;
}

// --- submit_repeat -------------------------------------------------------

Workload submit_repeat(std::uint64_t seed) {
  const std::vector<System> paper = unwrap(paper_systems(), "paper systems");
  auto set = std::make_shared<std::vector<System>>(
      unwrap(repeat_working_set(paper, seed), "working set"));
  // Pre-rendered (scheme, form) lines: the loop only picks and sends.
  auto lines = std::make_shared<std::vector<std::string>>();
  for (const System& system : *set) {
    for (int form = 0; form < kFormCount; ++form) {
      lines->push_back(submit_line(
          "r", unwrap(render(system, static_cast<Form>(form)), "render"),
          system.reference_timing));
    }
  }
  auto line_of = [lines](std::size_t scheme, Form form) -> const std::string& {
    return (*lines)[scheme * kFormCount + static_cast<std::size_t>(form)];
  };
  auto primed = std::make_shared<std::vector<Reply>>();

  Workload w;
  w.tail_q = 0.99;
  w.line = [line_of, seed](std::uint64_t i) {
    const RepeatPick pick = repeat_pick(seed, i);
    return line_of(pick.scheme, pick.form);
  };
  // Priming: each canonical scheme once, in order, so every submission of
  // the loop is a hit and the expected hit count is exact.
  w.before = [set, line_of, primed](service::Client& client,
                                    Findings& findings) {
    for (std::size_t s = 0; s < set->size(); ++s) {
      primed->push_back(control_call(client, line_of(s, Form::kExact), s));
      if (!primed->back().ok) {
        findings.add("priming submit failed: " + primed->back().error);
      } else if (primed->back().cache_hit) {
        findings.add("priming submit of a new scheme was a cache hit");
      }
    }
  };
  w.after = [set](service::Client& client, const LoadResult& load,
                  Findings& findings) {
    const std::uint64_t submissions = set->size() + load.replies.size();
    check_cache_counts(call_stats(client), submissions - set->size(),
                       set->size(), findings);
  };
  w.check = [set, primed, seed](const LoadResult& load, Findings& findings) {
    std::vector<SubmitReference> expected(set->size());
    parallel_for(set->size(), hardware_threads(), [&](std::size_t s) {
      expected[s] = unwrap(submit_reference((*set)[s]), "reference run");
    });
    for (std::size_t s = 0; s < set->size() && s < primed->size(); ++s) {
      check_submit(expected[s], (*primed)[s], (*set)[s].label + " priming",
                   findings);
    }
    for (const Reply& reply : load.replies) {
      const RepeatPick pick = repeat_pick(seed, reply.index);
      const std::string what =
          str_format("%s form %d", (*set)[pick.scheme].label.c_str(),
                     static_cast<int>(pick.form));
      check_submit(expected[pick.scheme], reply, what, findings);
      if (reply.ok && !reply.cache_hit) {
        findings.add(what + ": resubmission missed the cache");
      }
      if (pick.scheme < primed->size()) {
        check_same_report((*primed)[pick.scheme].report_hash, reply, what,
                          findings);
      }
    }
  };
  w.units = [](const Reply&) { return 1.0; };
  // The priming submissions first, as on the server.
  w.replayer = [set, line_of, seed] {
    auto cache = std::make_shared<service::ResultCache>(kServerCacheEntries);
    return [set, line_of, seed, cache](std::uint64_t i, SpanRecorder& spans) {
      if (i < set->size()) {
        return replay_submit(line_of(i, Form::kExact), *cache, spans);
      }
      const RepeatPick pick = repeat_pick(seed, i - set->size());
      return replay_submit(line_of(pick.scheme, pick.form), *cache, spans);
    };
  };
  w.replay_ops = 1500;
  return w;
}

// --- estimate_fast -------------------------------------------------------

Workload estimate_fast(std::uint64_t seed) {
  const std::vector<System> paper = unwrap(paper_systems(), "paper systems");
  auto pool = std::make_shared<std::vector<EstimateInput>>(
      unwrap(estimate_pool(paper, seed), "estimate pool"));
  auto lines = std::make_shared<std::vector<std::string>>();
  auto plain = std::make_shared<std::vector<std::string>>();
  for (const EstimateInput& input : *pool) {
    const SchemeXml xml = unwrap(render(input.system, Form::kExact), "render");
    lines->push_back(estimate_line("e", input, xml));
    plain->push_back(submit_line("p", xml, input.system.reference_timing));
  }
  // In-process references, one per pool entry (computed after the window).
  auto expected = std::make_shared<std::vector<std::string>>(pool->size());
  auto compute_expected = [pool, expected] {
    if (!expected->front().empty()) return;
    parallel_for(pool->size(), hardware_threads(), [&](std::size_t n) {
      (*expected)[n] = unwrap(estimate_reference((*pool)[n]),
                              "estimate_inline " + (*pool)[n].system.label);
    });
  };
  auto plain_replies = std::make_shared<std::map<std::size_t, Reply>>();
  const std::size_t size = pool->size();

  Workload w;
  w.tail_q = 0.90;
  // One request keeps about 3 of 4 CPUs busy.
  w.connections = 1;
  w.line = [lines, seed, size](std::uint64_t i) {
    return (*lines)[pool_pick(seed, size, i)];
  };
  w.keep_report = [size](std::uint64_t i) { return i < size; };
  // The degenerate requests' plain submits, for the point:1 identity.
  w.after = [pool, plain, plain_replies](service::Client& client,
                                         const LoadResult&, Findings&) {
    for (std::size_t n = 0; n < pool->size(); ++n) {
      if ((*pool)[n].degenerate) {
        (*plain_replies)[n] = control_call(client, (*plain)[n], n);
      }
    }
  };
  w.check = [pool, expected, compute_expected, plain_replies, seed, size](
                const LoadResult& load, Findings& findings) {
    compute_expected();
    for (const Reply& reply : load.replies) {
      const std::size_t n = pool_pick(seed, size, reply.index);
      const std::string& what = (*pool)[n].system.label;
      check_report_bytes((*expected)[n], reply, what, findings);
      if (reply.ok && !reply.report.empty()) {
        check_estimate_properties(reply.report, kReplications, what,
                                  findings);
      }
    }
    for (const auto& [n, reply] : *plain_replies) {
      const std::string what = (*pool)[n].system.label + " plain submit";
      if (!reply.ok) {
        findings.add(what + " failed: " + reply.error);
        continue;
      }
      check_submit(unwrap(submit_reference((*pool)[n].system), "reference"),
                   reply, what, findings);
      check_degenerate_mean((*expected)[n], reply.execution_ps, what,
                            findings);
    }
  };
  w.units = [](const Reply& reply) {
    return reply.ok ? static_cast<double>(kReplications) : 0.0;
  };
  w.replayer = [lines, expected, compute_expected, seed,
                size]() -> Workload::Step {
    compute_expected();
    return [lines, expected, seed, size](std::uint64_t i, SpanRecorder& spans) {
      const std::size_t n = pool_pick(seed, size, i);
      return replay_estimate((*lines)[n], (*expected)[n], spans);
    };
  };
  w.replay_ops = 32;
  return w;
}

// --- search_guided -------------------------------------------------------

Workload search_guided(std::uint64_t seed) {
  auto pool = std::make_shared<std::vector<SearchInput>>(
      unwrap(search_pool(), "search pool"));
  auto lines = std::make_shared<std::vector<std::string>>();
  for (const SearchInput& input : *pool) {
    lines->push_back(search_line(
        "q", input, xml::write_document(psdf::to_xml(input.app))));
  }
  auto expected =
      std::make_shared<std::vector<SearchReference>>(pool->size());
  auto units = std::make_shared<std::vector<double>>(pool->size(), 0.0);
  const std::size_t size = pool->size();

  Workload w;
  w.tail_q = 0.90;
  // The bound oracle and heuristics run on one thread between emulation
  // waves, so one request keeps only about 1.4 CPUs busy; two keep 2.5
  // busy and, in paired runs, ran steadier than one or four.
  w.connections = 2;
  w.line = [lines, seed, size](std::uint64_t i) {
    return (*lines)[pool_pick(seed, size, i)];
  };
  w.keep_report = [size](std::uint64_t i) { return i < size; };
  w.check = [pool, expected, units, seed, size](const LoadResult& load,
                                                Findings& findings) {
    // The server's fan-out width, so the references run the same spec.
    parallel_for(size, hardware_threads(), [&](std::size_t n) {
      (*expected)[n] = unwrap(search_reference((*pool)[n], 1),
                              "search reference " + (*pool)[n].label);
      const JsonValue doc =
          unwrap(JsonValue::parse((*expected)[n].report), "search report");
      (*units)[n] = doc.get("totals").get("emulated").as_number() +
                    doc.get("totals").get("deduplicated").as_number();
    });
    for (const Reply& reply : load.replies) {
      const std::size_t n = pool_pick(seed, size, reply.index);
      const std::string& what = (*pool)[n].label;
      check_report_bytes((*expected)[n].report, reply, what, findings);
      if (reply.ok && !reply.report.empty()) {
        check_search_report((*expected)[n], (*pool)[n], reply.report, what,
                            findings);
      }
    }
  };
  w.units = [units, seed, size](const Reply& reply) {
    return reply.ok ? (*units)[pool_pick(seed, size, reply.index)] : 0.0;
  };
  w.replayer = [lines, seed, size]() -> Workload::Step {
    return [lines, seed, size](std::uint64_t i, SpanRecorder& spans) {
      return replay_search((*lines)[pool_pick(seed, size, i)], spans);
    };
  };
  w.replay_ops = 20;
  return w;
}

// --- reporting -----------------------------------------------------------

JsonValue metric(double value, const char* unit) {
  JsonValue m = JsonValue::object();
  m.set("value", JsonValue::number(value));
  m.set("unit", JsonValue::string(unit));
  return m;
}

/// Per-layer metrics from the traced replay (plus the queue/run split the
/// server reported on the traced run's own replies).
JsonValue layer_metrics(const SpanRecorder& spans, const LoadResult& load,
                        double overhead_pct) {
  JsonValue out = JsonValue::object();
  auto per_call = [&](const char* counter, const char* span) {
    const std::uint64_t calls = spans.calls(span);
    return calls == 0 ? 0.0
                      : spans.counter(counter) / static_cast<double>(calls);
  };
  auto us = [&](const char* name, const char* span) {
    out.set(name, metric(spans.mean_self_us(span), "us"));
  };
  double queue_ms = 0.0;
  double run_ms = 0.0;
  std::uint64_t ok = 0;
  for (const Reply& reply : load.replies) {
    if (!reply.ok) continue;
    queue_ms += reply.queue_ms;
    run_ms += reply.run_ms;
    ++ok;
  }
  const double replies = ok == 0 ? 1.0 : static_cast<double>(ok);

  us("service.decode_us", "service.decode");
  us("service.encode_us", "service.encode");
  out.set("service.request_bytes",
          metric(per_call("service.request_bytes", "service.decode"), "B"));
  out.set("service.queue_ms", metric(queue_ms / replies, "ms"));
  out.set("service.run_ms", metric(run_ms / replies, "ms"));
  us("xml.parse_us", "xml.parse");
  out.set("xml.bytes", metric(per_call("xml.bytes", "xml.parse"), "B"));
  out.set("xml.nodes", metric(per_call("xml.nodes", "xml.parse"), "count"));
  us("xml.write_us", "xml.write");
  us("psdf.from_xml_us", "psdf.from_xml");
  us("platform.from_xml_us", "platform.from_xml");
  us("analysis.analyze_us", "analysis.analyze");
  us("core.digest_us", "core.digest");
  out.set("core.canonical_bytes",
          metric(per_call("core.canonical_bytes", "core.digest"), "B"));
  us("service.cache_lookup_us", "service.cache_lookup");
  const double hits = spans.counter("service.cache_hits");
  const double misses = spans.counter("service.cache_misses");
  out.set("service.cache_hits", metric(hits, "count"));
  out.set("service.cache_misses", metric(misses, "count"));
  out.set("service.cache_hit_ratio",
          metric(hits + misses == 0.0 ? 0.0 : hits / (hits + misses),
                 "ratio"));
  us("emu.build_us", "emu.build");
  us("emu.run_us", "emu.run");
  out.set("emu.ticks", metric(per_call("emu.ticks", "emu.run"), "count"));
  out.set("emu.fast_executed_ticks",
          metric(per_call("emu.fast_executed_ticks", "emu.run"), "count"));
  out.set("emu.fast_skipped_ticks",
          metric(per_call("emu.fast_skipped_ticks", "emu.run"), "count"));
  us("core.report_us", "core.report");
  out.set("core.report_bytes",
          metric(per_call("core.report_bytes", "core.report"), "B"));
  us("stoch.realize_us", "stoch.realize");
  const double replications = spans.counter("stoch.replications");
  const double unique = spans.counter("stoch.unique_runs");
  out.set("stoch.replications", metric(replications, "count"));
  out.set("stoch.unique_runs", metric(unique, "count"));
  out.set("stoch.dedup_ratio",
          metric(replications == 0.0 ? 0.0 : 1.0 - unique / replications,
                 "ratio"));
  us("search.run_us", "search.run");
  const double searches = std::max(1.0, spans.counter("search.searches"));
  out.set("search.nodes",
          metric(spans.counter("search.nodes") / searches, "count"));
  out.set("search.bound_pruned",
          metric(spans.counter("search.bound_pruned") / searches, "count"));
  out.set("search.emulated",
          metric(spans.counter("search.emulated") / searches, "count"));
  out.set("search.deduplicated",
          metric(spans.counter("search.deduplicated") / searches, "count"));
  out.set("trace.overhead_pct", metric(overhead_pct, "%"));
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string work_dir = ".";
  bool self_test = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--server") {
      args.server = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      die("unknown flag " + flag);
    }
  }
  return args;
}

int run(const Args& args) {
  Workload w;
  if (args.workload == "submit_cold") {
    w = submit_cold(args.seed);
  } else if (args.workload == "submit_repeat") {
    w = submit_repeat(args.seed);
  } else if (args.workload == "estimate_fast") {
    w = estimate_fast(args.seed);
  } else if (args.workload == "search_guided") {
    w = search_guided(args.seed);
  } else {
    die("unknown workload '" + args.workload + "'");
  }
  if (args.server.empty() || ::access(args.server.c_str(), X_OK) != 0) {
    die("no server binary at '" + args.server + "'");
  }
  const std::string server_binary =
      std::filesystem::absolute(args.server).string();

  // Socket and logs live in a per-run directory; paths inside it stay
  // short, whatever the checkout's location.
  const std::filesystem::path run_dir =
      std::filesystem::absolute(args.work_dir) /
      str_format("%s-seed%llu-%d", args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 static_cast<int>(::getpid()));
  std::filesystem::create_directories(run_dir);
  if (::chdir(run_dir.c_str()) != 0) die("cannot enter " + run_dir.string());

  const unsigned workers = std::min(4u, hardware_threads());
  const unsigned connections = std::min(w.connections, workers);
  Findings findings;
  double setup_s = 0.0;
  std::unique_ptr<ServerProcess> server = unwrap(
      ServerProcess::launch(server_binary, "serve.sock", "server.log",
                            workers, setup_s),
      "server launch");
  service::Client control =
      unwrap(service::Client::connect_unix("serve.sock"), "control connection");
  if (w.before) w.before(control, findings);

  const int segments = w.check_segment ? kSegments : 1;
  LoadSpec spec;
  spec.socket = "serve.sock";
  spec.connections = connections;
  spec.seconds = (args.trace ? args.seconds / 2.0 : args.seconds) / segments;
  spec.make_line = w.line;
  spec.keep_report = w.keep_report;
  double cpu_before = 0.0;
  spec.at_window_start = [&] {
    cpu_before = unwrap(server->cpu_seconds(), "server cpu");
  };
  // The server's CPU time counts inside the windows only.
  LoadResult load;
  double server_cpu_s = 0.0;
  double check_s = 0.0;
  for (int segment = 0; segment < segments; ++segment) {
    spec.first_index = load.replies.size();
    spec.warmup_seconds = segment == 0 ? kWarmupSeconds : 0.0;
    LoadResult part = run_closed_loop(spec);
    server_cpu_s += unwrap(server->cpu_seconds(), "server cpu") - cpu_before;
    if (w.check_segment) {
      const auto check_started = Clock::now();
      w.check_segment(part.replies, findings);
      check_s +=
          std::chrono::duration<double>(Clock::now() - check_started).count();
    }
    load.window_s += part.window_s;
    for (Reply& reply : part.replies) load.replies.push_back(std::move(reply));
  }
  const double peak_rss_mb = unwrap(server->peak_rss_mb(), "server rss");
  if (w.after) w.after(control, load, findings);
  control.close();
  if (Status stopped = server->stop(); !stopped.is_ok()) {
    findings.add("server stop: " + stopped.to_string());
  }
  server.reset();

  std::uint64_t failed = 0;
  double units = 0.0;
  std::vector<double> latencies;
  for (const Reply& reply : load.replies) {
    if (!reply.ok) {
      ++failed;
      if (failed <= 3) {
        std::fprintf(stderr, "perfbench: request %llu failed: %s\n",
                     static_cast<unsigned long long>(reply.index),
                     reply.error.c_str());
      }
      continue;
    }
    if (reply.timed) latencies.push_back(reply.latency_ms);
  }
  const auto check_started = Clock::now();
  if (w.check) w.check(load, findings);
  for (const Reply& reply : load.replies) {
    if (reply.timed) units += w.units(reply);
  }
  check_s +=
      std::chrono::duration<double>(Clock::now() - check_started).count();
  const double ok_ops = static_cast<double>(latencies.size());
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu requests (%.0f completed in the "
               "%.2f s window, %d segment%s), %llu failed, checks %.1f s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), load.replies.size(),
               ok_ops, load.window_s, segments, segments == 1 ? "" : "s",
               static_cast<unsigned long long>(failed), check_s);
  if (ok_ops * (1.0 - w.tail_q) < 10.0) {
    std::fprintf(stderr,
                 "perfbench: warning: only %.0f samples for the p%.0f tail\n",
                 ok_ops, w.tail_q * 100.0);
  }
  for (const std::string& message : findings.sample()) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", message.c_str());
  }
  if (findings.count() > findings.sample().size()) {
    std::fprintf(stderr, "perfbench: ... %zu check failures in all\n",
                 findings.count());
  }

  JsonValue metrics = JsonValue::object();
  if (!args.trace) {
    metrics.set("setup_s", metric(setup_s, "s"));
    metrics.set("ops_per_s", metric(ok_ops / load.window_s, "1/s"));
    metrics.set("op_p50_ms", metric(percentile(latencies, 0.5), "ms"));
    metrics.set("op_tail_ms", metric(percentile(latencies, w.tail_q), "ms"));
    metrics.set("replications_per_s", metric(units / load.window_s, "1/s"));
    metrics.set("server_cpu_ms_per_op",
                metric(server_cpu_s * 1000.0 / std::max(1.0, ok_ops),
                       "ms"));
    metrics.set("server_peak_rss_mb", metric(peak_rss_mb, "MB"));
  } else {
    // After a short untraced warm-up, two replayers step through the same
    // operations in lockstep, one untraced and one traced, alternating
    // which goes first; the time difference is the tracing overhead.
    auto replay = [&](const Workload::Step& step, std::uint64_t i,
                      SpanRecorder& spans) {
      spans.set_request(i);
      const auto started = Clock::now();
      if (Status status = step(i, spans); !status.is_ok()) {
        die("replay: " + status.to_string());
      }
      return std::chrono::duration<double>(Clock::now() - started).count();
    };
    SpanRecorder untraced(false);
    const Workload::Step warm_up = w.replayer();
    for (std::uint64_t i = 0; i < std::max<std::uint64_t>(1, w.replay_ops / 8);
         ++i) {
      replay(warm_up, i, untraced);
    }
    const Workload::Step plain = w.replayer();
    const Workload::Step recorded = w.replayer();
    SpanRecorder traced(true);
    double plain_s = 0.0;
    double traced_s = 0.0;
    for (std::uint64_t i = 0; i < w.replay_ops; ++i) {
      if (i % 2 == 0) {
        plain_s += replay(plain, i, untraced);
        traced_s += replay(recorded, i, traced);
      } else {
        traced_s += replay(recorded, i, traced);
        plain_s += replay(plain, i, untraced);
      }
    }
    const double overhead_pct = (traced_s / plain_s - 1.0) * 100.0;
    std::fprintf(stderr,
                 "perfbench: replay of %llu ops: %.3f s untraced, %.3f s "
                 "traced (%+.2f%%)\n",
                 static_cast<unsigned long long>(w.replay_ops), plain_s,
                 traced_s, overhead_pct);
    const std::filesystem::path spans_path =
        run_dir.parent_path() /
        str_format("spans-%s-seed%llu.json", args.workload.c_str(),
                   static_cast<unsigned long long>(args.seed));
    std::ofstream(spans_path) << traced.to_json().to_string() << '\n';
    std::fprintf(stderr, "perfbench: spans written to %s\n",
                 spans_path.c_str());
    metrics = layer_metrics(traced, load, overhead_pct);
  }
  std::filesystem::current_path(run_dir.parent_path());
  std::filesystem::remove_all(run_dir);

  JsonValue result = JsonValue::object();
  result.set("correct", JsonValue::boolean(findings.empty()));
  result.set("attempted", JsonValue::unsigned_integer(load.replies.size()));
  result.set("failed", JsonValue::unsigned_integer(failed));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.to_string().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  if (args.self_test) return perfbench::run_self_test();
  return perfbench::run(args);
}
