// Metrics assembly, exact counts and the trace summary.

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.h"

namespace aquabench {
namespace {

struct SpanSummary {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

}  // namespace

void RoundCounts::Add(const OpOutcome& o) {
  steps += o.steps;
  support += o.support;
  answer_bytes += o.answer_bytes;
  response_bytes += o.response_bytes;
}

std::vector<std::pair<std::string, uint64_t>> RoundCounts::Items() const {
  uint64_t fp = 0;
  if (fingerprint != nullptr && fingerprint->size() == 2) {
    fp = (static_cast<uint64_t>((*fingerprint)[0]) << 32) |
         static_cast<uint64_t>((*fingerprint)[1]);
  }
  return {{"core.steps", steps},
          {"core.support_points", support},
          {"core.answer_bytes", answer_bytes},
          {"server.response_bytes", response_bytes},
          {"storage.bytes_read", storage_bytes},
          {"input_fingerprint", fp}};
}

// ---------------------------------------------------------------------------

void TraceSession::Enable(bool on) {
  if (!active_ || on == installed_) return;
  if (on) {
    aqua::obs::InstallTraceSink(&sink_);
  } else {
    aqua::obs::UninstallTraceSink();
  }
  installed_ = on;
}

void TraceSession::Finish(const std::string& path) {
  Enable(false);
  if (!active_) return;
  if (!path.empty()) {
    const aqua::Status written = sink_.WriteFile(path);
    const std::string outcome = written.ok() ? path : written.ToString();
    std::printf("trace: %zu spans -> %s\n", sink_.size(), outcome.c_str());
  }
  // Self time: a span's duration minus the part its children on the same
  // thread cover (children nest inside their parent's interval).
  std::vector<aqua::obs::TraceEvent> events = sink_.events();
  std::sort(events.begin(), events.end(),
            [](const aqua::obs::TraceEvent& a, const aqua::obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;
            });
  std::map<std::string, SpanSummary> by_name;
  std::vector<double> child_us(events.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    while (!stack.empty()) {
      const auto& top = events[stack.back()];
      if (top.tid == e.tid && e.ts_us < top.ts_us + top.dur_us) break;
      stack.pop_back();
    }
    if (!stack.empty()) child_us[stack.back()] += static_cast<double>(e.dur_us);
    stack.push_back(i);
  }
  for (size_t i = 0; i < events.size(); ++i) {
    SpanSummary& s = by_name[events[i].name];
    ++s.count;
    s.total_ms += static_cast<double>(events[i].dur_us) / 1e3;
    s.self_ms += (static_cast<double>(events[i].dur_us) - child_us[i]) / 1e3;
  }
  std::printf("%-52s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, s] : by_name) {
    std::printf("%-52s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(s.count), s.total_ms,
                s.self_ms);
  }
}

// ---------------------------------------------------------------------------

namespace {

/// Sums consecutive groups of `group` values, then takes the median.
double MedianOfGroups(const std::vector<double>& values, int group) {
  std::vector<double> sums;
  for (size_t i = 0; i + static_cast<size_t>(group) <= values.size();
       i += static_cast<size_t>(group)) {
    double s = 0;
    for (int j = 0; j < group; ++j) s += values[i + static_cast<size_t>(j)];
    sums.push_back(s);
  }
  return Median(sums);
}

double MedianOf(const std::map<Cell, std::vector<double>>& m, Cell cell) {
  const auto it = m.find(cell);
  return it == m.end() ? 0 : Median(it->second);
}

}  // namespace

LayerReport LayerReport::From(const LayerTimes& setup, const LayerTimes& timed,
                              int loads_per_rep) {
  LayerReport r;
  r.csv_read_s = MedianOfGroups(setup.csv_read_s, loads_per_rep);
  r.table_rss_mb = MedianOfGroups(setup.table_rss_mb, loads_per_rep);
  std::vector<double> mapping = setup.mapping_read_ms;
  mapping.insert(mapping.end(), timed.mapping_read_ms.begin(),
                 timed.mapping_read_ms.end());
  r.mapping_read_ms = Median(mapping);
  r.parse_us = Median(timed.parse_us);
  r.bind_us = Median(timed.bind_us);
  r.render_us = Median(timed.render_us);
  r.scan_ms = MedianOf(timed.answer_ms, Cell::kScan);
  r.scan_cells_per_s = timed.scan_s > 0 ? timed.scan_cells / timed.scan_s : 0;
  r.minmax_dist_ms = MedianOf(timed.answer_ms, Cell::kMinMaxDist);
  r.count_dist_uncertain_ms = MedianOf(timed.answer_ms, Cell::kCountUncertain);
  r.count_dist_certain_ms = MedianOf(timed.answer_ms, Cell::kCountCertain);
  r.grouped_ms = MedianOf(timed.answer_ms, Cell::kGrouped);
  r.nested_ms = MedianOf(timed.answer_ms, Cell::kNested);
  return r;
}

void AddEndToEnd(const std::vector<double>& setup_s,
                 const std::vector<double>& first_answer_s,
                 const std::vector<double>& latencies_ms, double elapsed_s,
                 double peak_rss_mb, RunResult* result) {
  auto& m = result->metrics;
  m.push_back({"setup_s", Median(setup_s), "s"});
  m.push_back({"first_answer_s", Median(first_answer_s), "s"});
  m.push_back({"query_p50_ms", Quantile(latencies_ms, 0.5), "ms"});
  m.push_back({"query_p90_ms", Quantile(latencies_ms, 0.9), "ms"});
  m.push_back({"queries_per_s",
               static_cast<double>(latencies_ms.size()) / elapsed_s, "1/s"});
  m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  std::printf("queries=%zu (p90 from %zu samples)\n", latencies_ms.size(),
              latencies_ms.size());
}

void AddLayerMetrics(const LayerReport& r, RunResult* result) {
  auto& m = result->metrics;
  m.push_back({"storage.csv_read_s", r.csv_read_s, "s"});
  m.push_back({"storage.csv_mb_per_s", r.csv_mb_per_s, "MB/s"});
  m.push_back({"storage.table_rss_mb", r.table_rss_mb, "MB"});
  m.push_back({"mapping.read_ms", r.mapping_read_ms, "ms"});
  m.push_back({"query.parse_us", r.parse_us, "us"});
  m.push_back({"reformulate.bind_us", r.bind_us, "us"});
  m.push_back({"core.scan_ms", r.scan_ms, "ms"});
  m.push_back({"core.scan_cells_per_s", r.scan_cells_per_s, "cells/s"});
  m.push_back({"core.minmax_dist_ms", r.minmax_dist_ms, "ms"});
  m.push_back({"core.count_dist_uncertain_ms", r.count_dist_uncertain_ms,
               "ms"});
  m.push_back({"core.count_dist_certain_ms", r.count_dist_certain_ms, "ms"});
  m.push_back({"core.grouped_ms", r.grouped_ms, "ms"});
  m.push_back({"core.nested_ms", r.nested_ms, "ms"});
  m.push_back({"core.steps", static_cast<double>(r.counts.steps), "count"});
  m.push_back({"core.support_points", static_cast<double>(r.counts.support),
               "count"});
  m.push_back({"core.render_us", r.render_us, "us"});
  m.push_back({"core.answer_bytes", static_cast<double>(r.counts.answer_bytes),
               "bytes"});
  m.push_back({"exec.cpu_s", r.cpu_s, "s"});
  m.push_back({"server.overhead_ms", r.server_overhead_ms, "ms"});
  m.push_back({"server.response_bytes",
               static_cast<double>(r.counts.response_bytes), "bytes"});
  m.push_back({"storage.bytes_read",
               static_cast<double>(r.counts.storage_bytes), "bytes"});
  m.push_back({"obs.trace_overhead_pct", r.trace_overhead_pct, "%"});
}

void PrintLatencyTable(
    const std::map<std::string, std::vector<double>>& latencies_ms) {
  std::printf("%-40s %8s %12s\n", "operation", "count", "p50_ms");
  for (const auto& [label, values] : latencies_ms) {
    std::printf("%-40s %8zu %12.3f\n", label.c_str(), values.size(),
                Median(values));
  }
}

double TraceOverheadPct(double traced_s, int traced_rounds, double untraced_s,
                        int untraced_rounds) {
  if (traced_rounds == 0 || untraced_rounds == 0 || untraced_s <= 0) return 0;
  const double traced = traced_s / traced_rounds;
  const double untraced = untraced_s / untraced_rounds;
  return (traced / untraced - 1.0) * 100.0;
}

}  // namespace aquabench
