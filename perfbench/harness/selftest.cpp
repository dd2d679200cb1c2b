#include "selftest.hpp"

#include <cstdio>
#include <functional>
#include <string>

#include "checks.hpp"
#include "inputs.hpp"
#include "support/json.hpp"

namespace perfbench {

using namespace segbus;

namespace {

int g_failures = 0;

/// Runs `check` and compares "it found something" with `expect_failure`.
void expect(const char* name, bool expect_failure,
            const std::function<void(Findings&)>& check) {
  Findings findings;
  check(findings);
  const bool failed = !findings.empty();
  const bool behaved = failed == expect_failure;
  if (!behaved) ++g_failures;
  std::string verdict = "accepted";
  if (failed) verdict = "rejected: " + findings.sample().front();
  std::printf("%-4s %-58s %s\n", behaved ? "ok" : "BAD", name,
              verdict.c_str());
}

template <typename T>
bool take(Result<T> result, T& out, const char* what) {
  if (!result.is_ok()) {
    std::printf("BAD  %s: %s\n", what, result.status().to_string().c_str());
    ++g_failures;
    return false;
  }
  out = std::move(result).value();
  return true;
}

/// `report` with one member replaced.
std::string with(const std::string& report, const std::string& key,
                 JsonValue value) {
  JsonValue doc = JsonValue::parse(report).value();
  doc.set(key, std::move(value));
  return doc.to_string();
}

void submit_cases(const std::vector<System>& paper) {
  SubmitReference expected;
  SubmitReference other;
  if (!take(submit_reference(paper[1]), expected, "mp3 s2 reference") ||
      !take(submit_reference(paper[2]), other, "mp3 s3 reference")) {
    return;
  }
  Reply good;
  good.ok = true;
  good.execution_ps = expected.execution_ps;
  good.digest = expected.digest;
  expect("submit: correct reply", false, [&](Findings& f) {
    check_submit(expected, good, "mp3-s2", f);
  });
  Reply off_by_one = good;
  off_by_one.execution_ps += 1;
  expect("submit: execution_ps off by one", true, [&](Findings& f) {
    check_submit(expected, off_by_one, "mp3-s2", f);
  });
  Reply swapped = good;
  swapped.digest = other.digest;
  expect("submit: digest of another scheme", true, [&](Findings& f) {
    check_submit(expected, swapped, "mp3-s2", f);
  });
  // A reference that agrees with a time outside the static bounds: only
  // the bounds check can object.
  SubmitReference loose = expected;
  loose.execution_ps = expected.upper_ps + 1;
  Reply beyond = good;
  beyond.execution_ps = expected.upper_ps + 1;
  expect("submit: time above the v2 upper bound", true, [&](Findings& f) {
    check_submit(loose, beyond, "mp3-s2", f);
  });

  Reply report = good;
  report.report_hash = 42;
  expect("variants: same report", false, [&](Findings& f) {
    check_same_report(42, report, "mp3-s2", f);
  });
  expect("variants: different report bytes", true, [&](Findings& f) {
    check_same_report(43, report, "mp3-s2", f);
  });

  JsonValue stats = JsonValue::object();
  JsonValue cache = JsonValue::object();
  cache.set("hits", JsonValue::unsigned_integer(88));
  cache.set("misses", JsonValue::unsigned_integer(12));
  stats.set("cache", std::move(cache));
  expect("cache: counts as expected", false,
         [&](Findings& f) { check_cache_counts(stats, 88, 12, f); });
  expect("cache: one hit more than the client expects", true,
         [&](Findings& f) { check_cache_counts(stats, 87, 12, f); });
}

void estimate_cases(const std::vector<System>& paper) {
  std::vector<EstimateInput> pool;
  if (!take(estimate_pool(paper, 7), pool, "estimate pool")) return;
  const EstimateInput& input = pool.front();
  std::string report;
  if (!take(estimate_reference(input), report, "estimate_inline")) return;
  Reply reply;
  reply.ok = true;
  reply.report = report;
  expect("estimate: reference report", false, [&](Findings& f) {
    check_report_bytes(report, reply, "estimate", f);
    check_estimate_properties(report, kReplications, "estimate", f);
  });
  // One replication dropped from the samples and the count.
  const JsonValue doc = JsonValue::parse(report).value();
  JsonValue samples = JsonValue::array();
  for (std::size_t i = 0; i + 1 < doc.get("samples").size(); ++i) {
    samples.push(doc.get("samples").at(i));
  }
  std::string dropped = with(report, "samples", std::move(samples));
  dropped = with(dropped, "replications",
                 JsonValue::unsigned_integer(kReplications - 1));
  expect("estimate: a replication dropped", true, [&](Findings& f) {
    check_estimate_properties(dropped, kReplications, "estimate", f);
  });
  const double p99 = doc.get("p99_ps").as_number();
  expect("estimate: p95 above p99", true, [&](Findings& f) {
    check_estimate_properties(
        with(report, "p95_ps", JsonValue::number(p99 + 1.0)), kReplications,
        "estimate", f);
  });
  expect("estimate: mean outside its interval", true, [&](Findings& f) {
    check_estimate_properties(
        with(report, "mean_ps",
             JsonValue::number(doc.get("ci_high_ps").as_number() + 1.0)),
        kReplications, "estimate", f);
  });
  Reply changed = reply;
  changed.report = with(report, "mean_ps",
                        JsonValue::number(doc.get("mean_ps").as_number() + 1));
  expect("estimate: report differs from estimate_inline", true,
         [&](Findings& f) { check_report_bytes(report, changed, "e", f); });

  const EstimateInput& degenerate = pool.back();
  std::string point;
  SubmitReference plain;
  if (!take(estimate_reference(degenerate), point, "point:1 estimate") ||
      !take(submit_reference(degenerate.system), plain, "plain submit")) {
    return;
  }
  expect("estimate: point:1 mean equals the plain submit", false,
         [&](Findings& f) {
           check_degenerate_mean(point, plain.execution_ps, "point", f);
         });
  expect("estimate: point:1 mean off by one", true, [&](Findings& f) {
    check_degenerate_mean(point, plain.execution_ps + 1, "point", f);
  });
}

void search_cases() {
  std::vector<SearchInput> pool;
  if (!take(search_pool(), pool, "search pool")) return;
  const SearchInput* input = nullptr;
  for (const SearchInput& candidate : pool) {
    if (candidate.exhaustive_check) {
      input = &candidate;
      break;
    }
  }
  SearchReference expected;
  if (input == nullptr ||
      !take(search_reference(*input, 1), expected, "search reference")) {
    return;
  }
  expect("search: guided report", false, [&](Findings& f) {
    check_search_report(expected, *input, expected.report, "search", f);
  });
  const JsonValue doc = JsonValue::parse(expected.report).value();
  const JsonValue& winner = doc.get("winner");

  // A worse combo's best, with its true time: a placement that emulates
  // to what it claims but is not the optimum.
  const JsonValue* worse = nullptr;
  for (std::size_t c = 0; c < doc.get("combos").size(); ++c) {
    const JsonValue& best = doc.get("combos").at(c).get("best");
    if (best.is_object() && best.get("execution_time_ps").as_int64() >
                                winner.get("execution_time_ps").as_int64()) {
      worse = &best;
    }
  }
  if (worse != nullptr) {
    expect("search: winner that is not optimal", true, [&](Findings& f) {
      check_search_report(expected, *input,
                          with(expected.report, "winner", *worse), "search",
                          f);
    });
  } else {
    std::printf("BAD  search: no worse combo to plant as the winner\n");
    ++g_failures;
  }
  // The winner's placement with a time one picosecond off: the direct
  // emulation disagrees (the exhaustive reference is dropped so only the
  // emulation check can object).
  JsonValue off = winner;
  off.set("execution_time_ps",
          JsonValue::integer(winner.get("execution_time_ps").as_int64() + 1));
  SearchReference guided_only = expected;
  guided_only.exhaustive = false;
  expect("search: winner time off by one", true, [&](Findings& f) {
    check_search_report(guided_only, *input,
                        with(expected.report, "winner", off), "search", f);
  });
  // A proven-optimal combo that covers one leaf less than its space.
  JsonValue combos = JsonValue::array();
  for (std::size_t c = 0; c < doc.get("combos").size(); ++c) {
    JsonValue combo = doc.get("combos").at(c);
    if (c == 0) {
      combo.set("covered",
                JsonValue::number(combo.get("covered").as_number() - 1.0));
    }
    combos.push(std::move(combo));
  }
  expect("search: proven-optimal combo short of feasible_space", true,
         [&](Findings& f) {
           check_search_report(guided_only, *input,
                               with(expected.report, "combos", combos),
                               "search", f);
         });
}

}  // namespace

int run_self_test() {
  std::vector<System> paper;
  if (take(paper_systems(), paper, "paper systems")) {
    submit_cases(paper);
    estimate_cases(paper);
  }
  search_cases();
  std::printf("%s: %d check(s) misbehaved\n",
              g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
