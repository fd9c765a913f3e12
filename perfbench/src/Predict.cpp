//===- perfbench/src/Predict.cpp - Prediction traffic ---------------------===//

#include "src/Workloads.h"

#include "src/Metrics.h"

#include "src/models/MiniModels.h"
#include "src/nn/Graph.h"
#include "src/nn/Serialize.h"
#include "src/support/Json.h"
#include "src/support/Rng.h"
#include "src/support/StringUtils.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <mutex>

using namespace perfbench;
using namespace wootz;

namespace {

/// Input pool per model; requests draw (model, input) pairs from it.
constexpr size_t MiniInputs = 32;
constexpr int Classes = 10;

} // namespace

std::vector<float> perfbench::parseInputText(std::string_view Text) {
  std::vector<float> Values;
  while (true) {
    Text = trim(Text);
    if (Text.empty())
      break;
    size_t End = 0;
    while (End < Text.size() &&
           !std::isspace(static_cast<unsigned char>(Text[End])))
      ++End;
    Values.push_back(
        static_cast<float>(parseDouble(Text.substr(0, End)).take()));
    Text = Text.substr(End);
  }
  return Values;
}

namespace {

PredictModel makeModel(const std::string &Id, const std::string &Prototxt,
                       uint64_t WeightSeed, size_t InputCount,
                       Rng &Inputs) {
  PredictModel M;
  M.Id = Id;
  M.Prototxt = Prototxt;
  M.Spec = parseModelSpec(Prototxt).take();
  M.Net = std::make_shared<BuiltNetwork>(
      buildFullNetwork(M.Spec, WeightSeed).take());
  const std::string Bytes =
      serializeTensors(exportWeights(M.Net->Network, FullNetworkPrefix));
  JsonObject Upload;
  Upload.field("id", Id)
      .field("model", Prototxt)
      .field("weights_b64", base64Encode(Bytes));
  M.UploadBody = Upload.str();

  const int C = M.Spec.InputChannels, H = M.Spec.InputHeight,
            W = M.Spec.InputWidth;
  const size_t Count = static_cast<size_t>(C) * H * W;
  ExecContext Ctx(M.Net->Network);
  for (size_t I = 0; I < InputCount; ++I) {
    std::string Text;
    Text.reserve(Count * 8);
    char Buffer[32];
    for (size_t V = 0; V < Count; ++V) {
      std::snprintf(Buffer, sizeof(Buffer), "%s%.4f", V ? " " : "",
                    2.0 * Inputs.nextDouble() - 1.0);
      Text += Buffer;
    }
    const std::vector<float> Values = parseInputText(Text);
    Tensor Sample(Shape{1, C, H, W}, Values);
    Ctx.setInput(M.Net->InputNode, Sample);
    Ctx.forward(M.Net->Network, /*Training=*/false);
    const Tensor &Logits = Ctx.activation(M.Net->LogitsNode);
    M.Reference.emplace_back(Logits.data(), Logits.data() + Logits.size());
    JsonObject Body;
    Body.field("input", Text);
    M.RequestBodies.push_back(Body.str());
    M.Inputs.push_back(std::move(Sample));
  }
  return M;
}

/// Parses the `"logits":[...]` array of a predict answer.
bool parseLogits(const std::string &Body, std::vector<double> &Out) {
  const size_t At = Body.find("\"logits\":[");
  if (At == std::string::npos)
    return false;
  const char *P = Body.c_str() + At + 10;
  while (*P && *P != ']') {
    char *End = nullptr;
    const double V = std::strtod(P, &End);
    if (End == P)
      return false;
    Out.push_back(V);
    P = End;
    if (*P == ',')
      ++P;
  }
  return *P == ']';
}

} // namespace

std::string perfbench::widePrototxt() {
  return miniResNetPrototxt("wide-resnet", 4, 192, 96, Classes);
}

PredictPlan perfbench::makePredictPlan(uint64_t Seed, size_t RequestCount) {
  PredictPlan Plan;
  Rng Inputs(Seed * 0x9e3779b97f4a7c15ull + 17);
  uint64_t Index = 0;
  for (StandardModel Model : standardModels()) {
    Plan.Models.push_back(makeModel("mini" + std::to_string(Index),
                                    standardModelPrototxt(Model, Classes),
                                    Seed * 131 + Index, MiniInputs, Inputs));
    ++Index;
  }
  Rng Picks(Seed * 0xbf58476d1ce4e5b9ull + 3);
  Plan.Requests.reserve(RequestCount);
  for (size_t I = 0; I < RequestCount; ++I) {
    const auto Model =
        static_cast<uint32_t>(Picks.nextBelow(Plan.Models.size()));
    const auto Input = static_cast<uint32_t>(
        Picks.nextBelow(Plan.Models[Model].RequestBodies.size()));
    Plan.Requests.emplace_back(Model, Input);
  }
  return Plan;
}

AnswerCheck perfbench::checkPredictAnswer(
    const std::string &Body, const std::vector<float> &Reference) {
  AnswerCheck Out;
  const std::optional<double> ArgMax = jsonNumber(Body, "argmax");
  const std::optional<double> Batch = jsonNumber(Body, "batch_size");
  std::vector<double> Logits;
  if (!ArgMax || !Batch || !parseLogits(Body, Logits)) {
    Out.Why = "malformed answer";
    return Out;
  }
  Out.BatchSize = static_cast<int>(*Batch);
  if (Logits.size() != Reference.size()) {
    Out.Why = "answer has " + std::to_string(Logits.size()) +
              " logits, reference " + std::to_string(Reference.size());
    return Out;
  }
  auto close = [](double Got, double Want) {
    return std::fabs(Got - Want) <=
           LogitAbsTolerance + LogitRelTolerance * std::fabs(Want);
  };
  size_t RefArgMax = 0;
  for (size_t I = 0; I < Reference.size(); ++I) {
    if (Reference[I] > Reference[RefArgMax])
      RefArgMax = I;
    if (!close(Logits[I], Reference[I])) {
      Out.Why = "logit " + std::to_string(I) + " is " +
                formatDouble(Logits[I], 6) + ", reference " +
                formatDouble(Reference[I], 6);
      return Out;
    }
  }
  const auto Got = static_cast<size_t>(*ArgMax);
  // A different argmax is only acceptable when the reference itself ties
  // the two classes within the logit tolerance.
  if (Got >= Reference.size() ||
      (Got != RefArgMax && !close(Reference[Got], Reference[RefArgMax]))) {
    Out.Why = "argmax " + std::to_string(Got) + ", reference " +
              std::to_string(RefArgMax);
    return Out;
  }
  Out.Ok = true;
  return Out;
}

Error perfbench::setupPredict(int Port, const PredictPlan &Plan) {
  for (const PredictModel &M : Plan.Models) {
    const Exchange Up =
        httpExchange(Port, httpRequest("POST", "/v1/models", M.UploadBody));
    if (Up.Status != 201)
      return Error::failure("upload of " + M.Id + " answered " +
                            std::to_string(Up.Status) + " " + Up.Error +
                            Up.Body);
  }
  // Warm-up: every model answers a few requests before timing starts
  // (first-touch allocation, packed weight panels, pooled contexts).
  for (const PredictModel &M : Plan.Models)
    for (size_t I = 0; I < 4; ++I) {
      const size_t Input = I % M.RequestBodies.size();
      const Exchange X = httpExchange(
          Port, httpRequest("POST", "/v1/models/" + M.Id + "/predict",
                            M.RequestBodies[Input]));
      const AnswerCheck Check =
          X.Status == 200 ? checkPredictAnswer(X.Body, M.Reference[Input])
                          : AnswerCheck();
      if (!Check.Ok)
        return Error::failure("warm-up predict on " + M.Id + " failed: " +
                              std::to_string(X.Status) + " " + X.Error +
                              Check.Why);
    }
  return Error::success();
}

PredictPhase perfbench::runPredict(int Port, const PredictPlan &Plan,
                                   int Clients, Tally &Counts,
                                   Tracer &Trace) {
  // Requests are serialized up front so the timed loop only moves bytes.
  std::vector<std::vector<std::string>> Raw(Plan.Models.size());
  for (size_t M = 0; M < Plan.Models.size(); ++M)
    for (const std::string &Body : Plan.Models[M].RequestBodies)
      Raw[M].push_back(httpRequest(
          "POST", "/v1/models/" + Plan.Models[M].Id + "/predict", Body));

  PredictPhase Phase;
  Phase.Samples.resize(Plan.Requests.size());
  std::mutex NotesMutex;
  const double Start = Trace.now();
  Phase.Threads = runClosedLoop(
      Clients, Plan.Requests.size(), [&](int Thread, size_t Index) {
        const auto [Model, Input] = Plan.Requests[Index];
        const int SpanIndex =
            Trace.begin("client.predict", -1,
                        "req-" + std::to_string(Index), Thread + 1);
        const Exchange X = httpExchange(Port, Raw[Model][Input]);
        Trace.end(SpanIndex);
        AnswerCheck Check;
        if (X.Status == 200)
          Check = checkPredictAnswer(
              X.Body, Plan.Models[Model].Reference[Input]);
        const Outcome O = classify(X, Check.Ok);
        Counts.record(O);
        PredictSample &S = Phase.Samples[Index];
        S.Model = Model;
        S.Seconds = X.Seconds;
        S.BatchSize = Check.BatchSize;
        S.Ok = O == Outcome::Ok;
        if (!S.Ok) {
          std::lock_guard<std::mutex> Lock(NotesMutex);
          if (Phase.FailureNotes.size() < 5)
            Phase.FailureNotes.push_back(
                std::string(outcomeName(O)) + ": status " +
                std::to_string(X.Status) + " " + X.Error + Check.Why);
        }
      });
  Phase.WallSeconds = Trace.now() - Start;
  return Phase;
}
