// In-memory span recorder of the traced replay: one record per layer call
// (name, start, end, parent, request id) plus counters taken at the same
// boundaries. Single-threaded by design — the replay runs on one thread —
// and written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class SpanRecorder {
 public:
  struct Record {
    const char* name = "";
    std::int64_t start_ns = 0;  ///< relative to the recorder's epoch
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;   ///< index of the enclosing span, -1 = root
    std::uint64_t request = 0;  ///< replayed operation index
  };

  /// RAII scope: opens a span on construction, closes it on destruction.
  /// With recording off it does nothing at all (no clock reads), which is
  /// what the untraced pass of the overhead measurement runs.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::int64_t index_ = -1;
  };

  explicit SpanRecorder(bool recording) : recording_(recording) {}

  bool recording() const noexcept { return recording_; }
  void set_request(std::uint64_t request) noexcept { request_ = request; }

  /// Adds `delta` to counter `name` (kept even when not recording, so
  /// both replay passes count the same work).
  void count(const std::string& name, double delta) {
    counters_[name] += delta;
  }
  double counter(const std::string& name) const;

  /// Calls of span `name` and their mean self time in microseconds (the
  /// span's duration minus what its direct children cover).
  std::uint64_t calls(const std::string& name) const;
  double mean_self_us(const std::string& name) const;

  /// {"spans":[...],"counters":{...}} with times in nanoseconds.
  segbus::JsonValue to_json() const;

 private:
  std::int64_t now_ns() const;

  bool recording_;
  Clock::time_point epoch_ = Clock::now();
  std::uint64_t request_ = 0;
  std::vector<Record> records_;
  std::int64_t open_ = -1;  ///< innermost open span
  std::map<std::string, double> counters_;
};

}  // namespace perfbench
