#pragma once

/// \file trace.h
/// Span recorder of the end-to-end benchmark. Spans are recorded from the
/// benchmark's own code around calls into the library — facade calls and
/// direct calls into layer functions — never from inside the library. They
/// are kept in memory (one mutex-guarded append per finished span) and
/// written once at exit as Chrome trace-event JSON, which chrome://tracing
/// and Perfetto open and run.py rolls up into the per-layer table.
///
/// A span's `args` carry numbers measured elsewhere, e.g. the stage
/// seconds of the call's SearchProfile. They stay attributes of the span:
/// the library does not report when each stage started, so the recorder
/// never invents child spans for them.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "report.h"

namespace genie {
namespace e2e {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  /// Library layer the span's time belongs to ("api", "index", ...).
  std::string layer;
  Clock::time_point start{};
  Clock::time_point end{};
  /// Ids come from SpanRecorder::NewId so a parent's id is known before
  /// its children finish; 0 = root.
  uint64_t id = 0;
  uint64_t parent = 0;
  /// Request the span belongs to (arrival ordinal or call ordinal).
  uint64_t request = 0;
  std::vector<std::pair<std::string, double>> args;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  uint64_t NewId() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_id_++;
  }

  /// Stores a finished span (dropped when tracing is off). Assigns an id
  /// when the span has none.
  void Record(Span span) {
    if (!enabled_) return;
    const uint32_t tid = ThreadIndex();
    std::lock_guard<std::mutex> lock(mu_);
    if (span.id == 0) span.id = next_id_++;
    spans_.push_back(Entry{std::move(span), tid});
  }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// timestamps are microseconds since the recorder was created. Returns
  /// false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i].span;
      out += i == 0 ? "\n" : ",\n";
      out += "{\"name\": " + JsonString(span.name) +
             ", \"cat\": " + JsonString(span.layer) +
             ", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
             std::to_string(spans_[i].tid) +
             ", \"ts\": " + JsonNumber(Micros(span.start)) +
             ", \"dur\": " + JsonNumber(Micros(span.end) - Micros(span.start)) +
             ", \"args\": {\"id\": " + std::to_string(span.id) +
             ", \"parent\": " + std::to_string(span.parent) +
             ", \"request\": " + std::to_string(span.request);
      for (const auto& [key, value] : span.args) {
        out += ", " + JsonString(key) + ": " + JsonNumber(value);
      }
      out += "}}";
    }
    out += "\n]}\n";
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << out;
    file.close();
    return static_cast<bool>(file);
  }

 private:
  struct Entry {
    Span span;
    uint32_t tid = 0;
  };

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  /// Small per-thread ordinal for the trace viewer's rows.
  static uint32_t ThreadIndex() {
    static std::mutex mu;
    static uint32_t next = 0;
    thread_local uint32_t index = [] {
      std::lock_guard<std::mutex> lock(mu);
      return next++;
    }();
    return index;
  }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Entry> spans_;
  uint64_t next_id_ = 1;
};

}  // namespace e2e
}  // namespace genie
