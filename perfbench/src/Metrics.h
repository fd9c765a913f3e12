//===- perfbench/src/Metrics.h - Reading what the daemon reports -----------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Readers for the daemon's own outputs: the Prometheus `/metrics` text,
/// job status JSON (which nests a `counters` object, so the flat parser
/// of src/support/Json.h does not apply directly), and the flat JSON lines
/// of a job's telemetry.jsonl. Also the benchmark's metric catalogue: the
/// names, units and directions that BENCHMARK.json lists.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// `/metrics` samples keyed by the full series text before the value,
/// e.g. `wootz_counter{scope="server",name="serve.predict.batches"}`.
using Scrape = std::map<std::string, double>;

Scrape parsePrometheus(std::string_view Text);

/// A `wootz_counter` sample by scope and counter name (0 when absent).
double counterValue(const Scrape &S, const std::string &Scope,
                    const std::string &Name);

/// The value of `"Key":` in \p Json at any nesting level (first match),
/// as its raw token text with string quotes removed.
std::optional<std::string> jsonField(std::string_view Json,
                                     const std::string &Key);

/// jsonField() converted to a number.
std::optional<double> jsonNumber(std::string_view Json,
                                 const std::string &Key);

/// The text of the object value of `"Key":{...}` (braces included).
std::optional<std::string> jsonObjectField(std::string_view Json,
                                           const std::string &Key);

/// One metric the benchmark reports.
struct MetricInfo {
  const char *Name;
  const char *Unit;
  const char *Better; ///< "higher" or "lower".
};

/// End-to-end metrics (reported by every untraced run).
const std::vector<MetricInfo> &endToEndMetrics();

/// Per-layer metrics (reported by every traced run).
const std::vector<MetricInfo> &perLayerMetrics();

/// The metric-name rule: starts with a letter or digit, at most 64 of
/// letters, digits, '_', '.' and '-'.
bool validMetricName(std::string_view Name);

/// The unit rule: 1 to 16 of letters, digits, '_', '/', '%', '.', '-'.
bool validMetricUnit(std::string_view Unit);

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
