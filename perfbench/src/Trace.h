//===- perfbench/src/Trace.h - Benchmark-side spans ------------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its HTTP exchanges and its
/// in-process calls into the program's modules, plus spans joined in from
/// the daemon's job telemetry. Kept in memory and written once, at exit,
/// as Chrome trace-event JSON (load it in chrome://tracing or Perfetto).
/// A disabled tracer records nothing and costs one branch per call.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  double Start = 0.0; ///< Seconds since the tracer's origin.
  double End = 0.0;
  int Parent = -1;    ///< Index of the enclosing span, -1 for roots.
  std::string Id;     ///< Request or job id the span belongs to.
  int Lane = 0;       ///< Display lane (client thread, job worker).
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Seconds since the tracer was created.
  double now() const {
    return std::chrono::duration<double>(Clock::now() - Origin).count();
  }

  /// Records a finished span; returns its index (-1 when disabled).
  int add(Span S);

  /// Opens a span now; close it with end(). Returns -1 when disabled.
  int begin(const std::string &Name, int Parent = -1,
            const std::string &Id = std::string(), int Lane = 0);
  void end(int Index);

  std::vector<Span> spans() const;

  /// Per span name: total self time in seconds — each span's duration
  /// minus the part of it its children cover.
  std::map<std::string, double> selfSeconds() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string chromeJson() const;

private:
  using Clock = std::chrono::steady_clock;
  bool Enabled;
  Clock::time_point Origin = Clock::now();
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

/// Times one call of \p Body as a span named \p Name (when tracing) and
/// returns its duration in seconds either way.
template <typename Fn>
double timed(Tracer &T, const std::string &Name, int Parent, Fn &&Body) {
  const double Start = T.now();
  Body();
  const double End = T.now();
  if (T.enabled())
    T.add(Span{Name, Start, End, Parent, std::string(), 0});
  return End - Start;
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
