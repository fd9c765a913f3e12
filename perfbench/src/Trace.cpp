//===- perfbench/src/Trace.cpp --------------------------------------------===//

#include "src/Trace.h"

#include "src/support/Json.h"
#include "src/support/StringUtils.h"

#include <algorithm>

using namespace perfbench;

int Tracer::add(Span S) {
  if (!Enabled)
    return -1;
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size()) - 1;
}

int Tracer::begin(const std::string &Name, int Parent, const std::string &Id,
                  int Lane) {
  if (!Enabled)
    return -1;
  const double Start = now();
  return add(Span{Name, Start, Start, Parent, Id, Lane});
}

void Tracer::end(int Index) {
  if (Index < 0)
    return;
  const double End = now();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[static_cast<size_t>(Index)].End = End;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  const std::vector<Span> All = spans();
  std::vector<std::vector<std::pair<double, double>>> Children(All.size());
  for (const Span &S : All)
    if (S.Parent >= 0 && static_cast<size_t>(S.Parent) < All.size())
      Children[static_cast<size_t>(S.Parent)].emplace_back(S.Start, S.End);

  std::map<std::string, double> Self;
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    // Union of the children's intervals, clipped to the parent, so
    // overlapping children (concurrent job workers) count once.
    std::vector<std::pair<double, double>> &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    double Covered = 0.0, Reach = S.Start;
    for (auto [Start, End] : Kids) {
      Start = std::max(Start, Reach);
      End = std::min(End, S.End);
      if (End > Start) {
        Covered += End - Start;
        Reach = End;
      }
    }
    Self[S.Name] += std::max(0.0, (S.End - S.Start) - Covered);
  }
  return Self;
}

std::string Tracer::chromeJson() const {
  const std::vector<Span> All = spans();
  std::string Out = "{\"traceEvents\":[";
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    wootz::JsonObject Args;
    Args.field("index", static_cast<int64_t>(I))
        .field("parent", static_cast<int64_t>(S.Parent));
    if (!S.Id.empty())
      Args.field("id", S.Id);
    wootz::JsonObject Event;
    Event.field("name", S.Name)
        .field("ph", "X")
        .field("pid", static_cast<int64_t>(1))
        .field("tid", static_cast<int64_t>(S.Lane))
        .field("ts", S.Start * 1e6, 3)
        .field("dur", (S.End - S.Start) * 1e6, 3)
        .fieldRaw("args", Args.str());
    if (I)
      Out += ",\n";
    Out += Event.str();
  }
  Out += "],\"displayTimeUnit\":\"ms\"}\n";
  return Out;
}
