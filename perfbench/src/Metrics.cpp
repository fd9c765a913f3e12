//===- perfbench/src/Metrics.cpp ------------------------------------------===//

#include "src/Metrics.h"

#include <cctype>
#include <cstdlib>

using namespace perfbench;

Scrape perfbench::parsePrometheus(std::string_view Text) {
  Scrape Out;
  while (!Text.empty()) {
    const size_t Newline = Text.find('\n');
    std::string_view Line = Text.substr(0, Newline);
    Text = Newline == std::string_view::npos ? std::string_view()
                                             : Text.substr(Newline + 1);
    if (Line.empty() || Line[0] == '#')
      continue;
    // The value follows the last space (label values never hold one in
    // the series this benchmark reads).
    const size_t Space = Line.rfind(' ');
    if (Space == std::string_view::npos)
      continue;
    const std::string Value(Line.substr(Space + 1));
    Out[std::string(Line.substr(0, Space))] =
        std::strtod(Value.c_str(), nullptr);
  }
  return Out;
}

double perfbench::counterValue(const Scrape &S, const std::string &Scope,
                               const std::string &Name) {
  auto It = S.find("wootz_counter{scope=\"" + Scope + "\",name=\"" + Name +
                   "\"}");
  return It == S.end() ? 0.0 : It->second;
}

std::optional<std::string> perfbench::jsonField(std::string_view Json,
                                                const std::string &Key) {
  const std::string Needle = "\"" + Key + "\"";
  size_t Pos = std::string_view::npos;
  for (size_t At = Json.find(Needle); At != std::string_view::npos;
       At = Json.find(Needle, At + 1)) {
    // A key is followed by a colon (whitespace allowed); a string value
    // that happens to equal the key is not.
    size_t After = At + Needle.size();
    while (After < Json.size() && std::isspace(static_cast<unsigned char>(
                                      Json[After])))
      ++After;
    if (After < Json.size() && Json[After] == ':') {
      Pos = After + 1;
      break;
    }
  }
  if (Pos == std::string_view::npos)
    return std::nullopt;
  while (Pos < Json.size() &&
         std::isspace(static_cast<unsigned char>(Json[Pos])))
    ++Pos;
  if (Pos < Json.size() && Json[Pos] == '"') {
    std::string Value;
    for (++Pos; Pos < Json.size() && Json[Pos] != '"'; ++Pos) {
      if (Json[Pos] == '\\' && Pos + 1 < Json.size())
        ++Pos;
      Value += Json[Pos];
    }
    return Value;
  }
  size_t End = Pos;
  while (End < Json.size() && Json[End] != ',' && Json[End] != '}' &&
         Json[End] != ']' && !std::isspace(static_cast<unsigned char>(
                                 Json[End])))
    ++End;
  return std::string(Json.substr(Pos, End - Pos));
}

std::optional<double> perfbench::jsonNumber(std::string_view Json,
                                            const std::string &Key) {
  const std::optional<std::string> Raw = jsonField(Json, Key);
  if (!Raw || Raw->empty())
    return std::nullopt;
  char *End = nullptr;
  const double Value = std::strtod(Raw->c_str(), &End);
  if (End != Raw->c_str() + Raw->size())
    return std::nullopt;
  return Value;
}

std::optional<std::string>
perfbench::jsonObjectField(std::string_view Json, const std::string &Key) {
  const std::string Needle = "\"" + Key + "\":{";
  const size_t At = Json.find(Needle);
  if (At == std::string_view::npos)
    return std::nullopt;
  const size_t Open = At + Needle.size() - 1;
  int Depth = 0;
  bool InString = false;
  for (size_t Pos = Open; Pos < Json.size(); ++Pos) {
    const char C = Json[Pos];
    if (InString) {
      if (C == '\\')
        ++Pos;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{')
      ++Depth;
    else if (C == '}' && --Depth == 0)
      return std::string(Json.substr(Open, Pos - Open + 1));
  }
  return std::nullopt;
}

const std::vector<MetricInfo> &perfbench::endToEndMetrics() {
  static const std::vector<MetricInfo> Metrics = {
      {"setup_s", "s", "lower"},
      {"p50_ms", "ms", "lower"},
      {"ops_per_s", "1/s", "higher"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return Metrics;
}

const std::vector<MetricInfo> &perfbench::perLayerMetrics() {
  static const std::vector<MetricInfo> Metrics = {
      {"serve.transport_ms", "ms", "lower"},
      {"serve.http.parse_us", "us", "lower"},
      {"serve.predict.decode_us", "us", "lower"},
      {"serve.batcher.wait_ms", "ms", "lower"},
      {"serve.batcher.batch_mean", "count", "higher"},
      {"serve.contexts.reuse_ratio", "ratio", "higher"},
      {"serve.encode_us", "us", "lower"},
      {"nn.forward_ms.b1", "ms", "lower"},
      {"nn.forward_ms.b4", "ms", "lower"},
      {"plan.forward_ms.b1", "ms", "lower"},
      {"plan.forward_ms.b4", "ms", "lower"},
      {"plan.compile_ms", "ms", "lower"},
      {"tensor.gemm_gflops.train", "GFLOP/s", "higher"},
      {"tensor.gemm_gflops.infer", "GFLOP/s", "higher"},
      {"train.teacher_restore_ms", "ms", "lower"},
      {"train.pretrain_s", "s", "lower"},
      {"train.finetune_s", "s", "lower"},
      {"train.blocks_pretrained", "count", "lower"},
      {"train.block_cache.hit_ratio", "ratio", "higher"},
      {"explore.prepare_ms", "ms", "lower"},
      {"explore.worker_idle_frac", "ratio", "lower"},
      {"explore.configs_evaluated", "count", "higher"},
      {"pruning.importance_ms", "ms", "lower"},
      {"identifier.identify_ms", "ms", "lower"},
      {"proto.parse_ms", "ms", "lower"},
      {"compiler.build_ms", "ms", "lower"},
      {"serve.jobs.queue_wait_ms", "ms", "lower"},
      {"serve.jobs.finish_ms", "ms", "lower"},
  };
  return Metrics;
}

static bool nameChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
         C == '.' || C == '-';
}

bool perfbench::validMetricName(std::string_view Name) {
  if (Name.empty() || Name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(Name[0])))
    return false;
  for (char C : Name)
    if (!nameChar(C))
      return false;
  return true;
}

bool perfbench::validMetricUnit(std::string_view Unit) {
  if (Unit.empty() || Unit.size() > 16)
    return false;
  for (char C : Unit)
    if (!nameChar(C) && C != '/' && C != '%')
      return false;
  return true;
}
