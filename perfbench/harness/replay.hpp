// The traced replay: the same generated inputs, on one thread, through each
// layer's public functions, with a span around every call and counts at the
// same boundaries. Spans are recorded from the benchmark's own files; the
// program is not instrumented or edited.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "inputs.hpp"
#include "service/cache.hpp"
#include "spans.hpp"
#include "support/status.hpp"

namespace perfbench {

/// One submit request as the server handles it: decode, parse both
/// schemes, build the models, analyze, fingerprint, cache lookup, and on a
/// miss engine build + emulate + report, then encode the reply.
segbus::Status replay_submit(const std::string& line,
                             segbus::service::ResultCache& cache,
                             SpanRecorder& spans);

/// One estimate request: decode and parse, the mean-valued model, then per
/// replication realize -> fingerprint/dedup -> XML -> parse/analyze ->
/// fast-engine emulate -> report, as the estimator's inner jobs do.
/// `report` is the estimate report the reply carries (for the encode).
segbus::Status replay_estimate(const std::string& line,
                               const std::string& report,
                               SpanRecorder& spans);

/// One search request: decode, parse, search::run_search (on one
/// evaluation worker), report, encode.
segbus::Status replay_search(const std::string& line, SpanRecorder& spans);

}  // namespace perfbench
