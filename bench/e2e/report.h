#pragma once

/// \file report.h
/// Result record of one end-to-end benchmark process: metrics with unit and
/// sample count, unbounded diagnostics, raw layer counters for run.py's
/// rollup, and the run's fingerprint, serialized as one JSON object.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace genie {
namespace e2e {

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

/// Every digit of the double; NaN and infinities are not JSON.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Linear interpolation between closest ranks (p in [0, 1]); 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

class Report {
 public:
  /// A gated end-to-end metric (BENCHMARK.json `end_to_end`).
  void Metric(const std::string& name, double value, const std::string& unit,
              uint64_t samples) {
    metrics_.push_back(Entry{name, value, unit, samples});
  }
  /// Reported with its sample count but never gated (tail percentiles whose
  /// run-to-run spread exceeds any useful bound, generator lateness, ...).
  void Diagnostic(const std::string& name, double value,
                  const std::string& unit, uint64_t samples) {
    diagnostics_.push_back(Entry{name, value, unit, samples});
  }
  /// Raw per-layer input of run.py's rollup (traced runs).
  void Counter(const std::string& name, double value) {
    counters_.emplace_back(name, value);
  }
  void Fingerprint(const std::string& key, const std::string& value) {
    fingerprint_.emplace_back(key, JsonString(value));
  }
  void Fingerprint(const std::string& key, double value) {
    fingerprint_.emplace_back(key, JsonNumber(value));
  }

  void CountAttempted(uint64_t n) { attempted_ += n; }
  void CountFailed(uint64_t n) { failed_ += n; }
  void CountWrong(uint64_t n) { wrong_ += n; }
  uint64_t wrong() const { return wrong_; }
  uint64_t failed() const { return failed_ + wrong_; }

  /// First problems found, for the log (the count is in `wrong`).
  void Note(const std::string& problem) {
    if (notes_.size() < 8) notes_.push_back(problem);
  }

  std::string ToJson() const {
    std::string out = "{\n  \"attempted\": " + std::to_string(attempted_) +
                      ",\n  \"failed\": " + std::to_string(failed()) +
                      ",\n  \"wrong\": " + std::to_string(wrong_) +
                      ",\n  \"correct\": " + (wrong_ == 0 ? "true" : "false") +
                      ",\n  \"fingerprint\": {";
    for (size_t i = 0; i < fingerprint_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + JsonString(fingerprint_[i].first) + ": " +
             fingerprint_[i].second;
    }
    out += "},\n  \"metrics\": " + EntriesJson(metrics_) +
           ",\n  \"diagnostics\": " + EntriesJson(diagnostics_) +
           ",\n  \"counters\": {";
    for (size_t i = 0; i < counters_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + JsonString(counters_[i].first) + ": " +
             JsonNumber(counters_[i].second);
    }
    out += "},\n  \"notes\": [";
    for (size_t i = 0; i < notes_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + JsonString(notes_[i]);
    }
    out += "]\n}\n";
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
    uint64_t samples = 0;
  };

  static std::string EntriesJson(const std::vector<Entry>& entries) {
    std::string out = "{";
    for (size_t i = 0; i < entries.size(); ++i) {
      const Entry& e = entries[i];
      out += (i == 0 ? "" : ", ") + JsonString(e.name) +
             ": {\"value\": " + JsonNumber(e.value) +
             ", \"unit\": " + JsonString(e.unit) +
             ", \"samples\": " + std::to_string(e.samples) + "}";
    }
    return out + "}";
  }

  std::vector<Entry> metrics_;
  std::vector<Entry> diagnostics_;
  std::vector<std::pair<std::string, double>> counters_;
  std::vector<std::pair<std::string, std::string>> fingerprint_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
};

}  // namespace e2e
}  // namespace genie
