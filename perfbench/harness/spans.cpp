#include "spans.hpp"

#include <string_view>

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name)
    : recorder_(&recorder) {
  if (!recorder.recording_) return;
  index_ = static_cast<std::int64_t>(recorder.records_.size());
  Record record;
  record.name = name;
  record.parent = recorder.open_;
  record.request = recorder.request_;
  recorder.records_.push_back(record);
  recorder.open_ = index_;
  // Start last, so the bookkeeping above is not charged to the span.
  recorder.records_.back().start_ns = recorder.now_ns();
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  Record& record = recorder_->records_[static_cast<std::size_t>(index_)];
  record.end_ns = recorder_->now_ns();
  recorder_->open_ = record.parent;
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

double SpanRecorder::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::uint64_t SpanRecorder::calls(const std::string& name) const {
  std::uint64_t n = 0;
  for (const Record& record : records_) {
    if (name == record.name) ++n;
  }
  return n;
}

double SpanRecorder::mean_self_us(const std::string& name) const {
  std::vector<std::int64_t> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] += records_[i].end_ns - records_[i].start_ns;
    if (records_[i].parent >= 0) {
      self[static_cast<std::size_t>(records_[i].parent)] -=
          records_[i].end_ns - records_[i].start_ns;
    }
  }
  double total_ns = 0.0;
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (name != records_[i].name) continue;
    total_ns += static_cast<double>(self[i]);
    ++n;
  }
  return n == 0 ? 0.0 : total_ns / static_cast<double>(n) / 1000.0;
}

segbus::JsonValue SpanRecorder::to_json() const {
  using segbus::JsonValue;
  JsonValue spans = JsonValue::array();
  for (const Record& record : records_) {
    JsonValue item = JsonValue::object();
    item.set("name", JsonValue::string(record.name));
    item.set("start_ns", JsonValue::integer(record.start_ns));
    item.set("end_ns", JsonValue::integer(record.end_ns));
    item.set("parent", JsonValue::integer(record.parent));
    item.set("request", JsonValue::unsigned_integer(record.request));
    spans.push(std::move(item));
  }
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : counters_) {
    counters.set(name, JsonValue::number(value));
  }
  JsonValue doc = JsonValue::object();
  doc.set("spans", std::move(spans));
  doc.set("counters", std::move(counters));
  return doc;
}

}  // namespace perfbench
