//===- perfbench/src/Layers.cpp - In-process layer probes -----------------===//
//
// The traced run calls each module's public functions on the run's own
// inputs and times them from here; nothing inside src/ is instrumented.
//
//===----------------------------------------------------------------------===//

#include "src/Stats.h"
#include "src/Workloads.h"

#include "src/compiler/Multiplexing.h"
#include "src/data/Synthetic.h"
#include "src/explore/Engine.h"
#include "src/identifier/Identifier.h"
#include "src/nn/Graph.h"
#include "src/plan/Plan.h"
#include "src/pruning/Importance.h"
#include "src/serve/Http.h"
#include "src/support/Json.h"
#include "src/support/Rng.h"
#include "src/support/StringUtils.h"
#include "src/tensor/Ops.h"
#include "src/train/ModelZoo.h"

#include <cstring>

using namespace perfbench;
using namespace wootz;

namespace {

/// Median seconds of \p Reps calls of \p Body, each call a span.
template <typename Fn>
double medianSeconds(Tracer &Trace, const std::string &Name, int Reps,
                     Fn &&Body) {
  std::vector<double> Seconds;
  Seconds.reserve(static_cast<size_t>(Reps));
  for (int I = 0; I < Reps; ++I)
    Seconds.push_back(timed(Trace, Name, -1, Body));
  return median(Seconds);
}

Tensor batchOf(const std::vector<Tensor> &Inputs, int Batch) {
  const Shape &One = Inputs.front().shape();
  Tensor Out(Shape{Batch, One[1], One[2], One[3]});
  const size_t Stride = Inputs.front().size();
  for (int B = 0; B < Batch; ++B)
    std::memcpy(Out.data() + B * Stride,
                Inputs[static_cast<size_t>(B) % Inputs.size()].data(),
                Stride * sizeof(float));
  return Out;
}

/// Output channels and spatial size of every layer, walked in order.
struct LayerGeometry {
  int Channels = 0, Height = 0, Width = 0;
};

} // namespace

std::map<std::string, double>
perfbench::probeServeCodec(const PredictPlan &Plan, Tracer &Trace) {
  // Only the module calls the predict handler makes are timed: the
  // request parse, the body's flat JSON, each input value's number parse,
  // and the response serialization. The handler's own loops (splitting
  // the input text, formatting the logits) run inside the daemon's
  // request latency and are not copied here.
  std::vector<double> Parse, Decode, Encode;
  // Every distinct request body, up to 64 per model, three passes each.
  for (int Pass = 0; Pass < 3; ++Pass)
    for (const PredictModel &M : Plan.Models)
      for (size_t I = 0; I < M.RequestBodies.size() && I < 64; ++I) {
        const std::string &Body = M.RequestBodies[I];
        const std::string Raw =
            httpRequest("POST", "/v1/models/" + M.Id + "/predict", Body);
        Parse.push_back(timed(Trace, "serve.http.parse", -1, [&] {
          serve::HttpRequest Request = serve::parseHttpRequest(Raw).take();
          if (Request.Body.size() != Body.size())
            reportFatalError("parseHttpRequest lost body bytes");
        }));

        const std::string Input = parseFlatJsonObject(Body).take().at("input");
        const std::vector<std::string> Values = split(Input, ' ');
        Decode.push_back(timed(Trace, "serve.predict.decode", -1, [&] {
          if (parseFlatJsonObject(Body).take().size() != 1)
            reportFatalError("predict body has extra fields");
          for (const std::string &Value : Values)
            (void)parseDouble(Value).take();
        }));

        serve::HttpResponse Response;
        Response.Body = "{\"model\":\"" + M.Id + "\",\"logits\":[";
        for (size_t L = 0; L < M.Reference[I].size(); ++L)
          Response.Body +=
              (L ? "," : "") + formatDouble(M.Reference[I][L], 6);
        Response.Body += "]}\n";
        Encode.push_back(timed(Trace, "serve.encode", -1, [&] {
          if (serve::serializeResponse(Response).empty())
            reportFatalError("empty encoded answer");
        }));
      }
  return {{"serve.http.parse_us", median(Parse) * 1e6},
          {"serve.predict.decode_us", median(Decode) * 1e6},
          {"serve.encode_us", median(Encode) * 1e6}};
}

ModelTimings perfbench::probeModel(const std::string &Prototxt, uint64_t Seed,
                                   const std::vector<int> &Batches,
                                   Tracer &Trace) {
  ModelTimings Out;
  ModelSpec Spec;
  Out.ParseMs = 1e3 * medianSeconds(Trace, "proto.parse", 5, [&] {
                  Spec = parseModelSpec(Prototxt).take();
                });
  std::optional<BuiltNetwork> Net;
  Out.BuildMs = 1e3 * medianSeconds(Trace, "compiler.build", 3, [&] {
                  Net.emplace(buildFullNetwork(Spec, Seed).take());
                });

  Rng Values(Seed);
  std::vector<Tensor> Inputs;
  for (int I = 0; I < 8; ++I) {
    Tensor Sample(
        Shape{1, Spec.InputChannels, Spec.InputHeight, Spec.InputWidth});
    for (size_t V = 0; V < Sample.size(); ++V)
      Sample[V] = 2.0f * Values.nextFloat() - 1.0f;
    Inputs.push_back(std::move(Sample));
  }

  std::optional<ExecPlan> Plan;
  Out.CompileMs = 1e3 * medianSeconds(Trace, "plan.compile", 3, [&] {
                    Plan.emplace(ExecPlan::compile(
                                     Net->Network, Net->InputNode,
                                     Net->LogitsNode, Spec.InputChannels,
                                     Spec.InputHeight, Spec.InputWidth)
                                     .take());
                  });

  ExecContext Ctx(Net->Network);
  PlanContext PlanCtx(*Plan);
  for (int Batch : Batches) {
    const Tensor Input = batchOf(Inputs, Batch);
    // One untimed pass of each engine first: first-touch allocation and
    // weight-panel packing are not per-request costs.
    Ctx.setInput(Net->InputNode, Input);
    Ctx.forward(Net->Network, false);
    (void)PlanCtx.run(Input);
    const int Reps = 15;
    Out.GraphForwardMs[Batch] =
        1e3 * medianSeconds(Trace, "nn.forward.b" + std::to_string(Batch),
                            Reps, [&] {
                              Ctx.setInput(Net->InputNode, Input);
                              Ctx.forward(Net->Network, false);
                            });
    Out.PlanForwardMs[Batch] =
        1e3 * medianSeconds(Trace, "plan.forward.b" + std::to_string(Batch),
                            Reps, [&] { (void)PlanCtx.run(Input); });
  }
  return Out;
}

double perfbench::probeGemmGflops(const ModelSpec &Spec,
                                  const std::vector<int> &Batches,
                                  Tracer &Trace,
                                  const std::string &SpanName) {
  // Walk the layers for each convolution's input channels and output
  // size; the GEMM is weights (out x in*k*k) times columns.
  std::map<std::string, LayerGeometry> Shapes;
  Shapes[Spec.InputName] = {Spec.InputChannels, Spec.InputHeight,
                            Spec.InputWidth};
  struct Gemm {
    int M, K, N;
  };
  std::vector<Gemm> Gemms;
  for (const LayerSpec &L : Spec.Layers) {
    const LayerGeometry In =
        L.Bottoms.empty() ? LayerGeometry() : Shapes[L.Bottoms.front()];
    LayerGeometry Out = In;
    switch (L.Kind) {
    case LayerKind::Convolution:
      Out.Channels = L.NumOutput;
      Out.Height = (In.Height + 2 * L.Pad - L.KernelSize) / L.Stride + 1;
      Out.Width = (In.Width + 2 * L.Pad - L.KernelSize) / L.Stride + 1;
      Gemms.push_back({L.NumOutput, In.Channels * L.KernelSize * L.KernelSize,
                       Out.Height * Out.Width});
      break;
    case LayerKind::Pooling:
      if (L.GlobalPooling)
        Out.Height = Out.Width = 1;
      break;
    case LayerKind::Concat:
      Out.Channels = 0;
      for (const std::string &Bottom : L.Bottoms)
        Out.Channels += Shapes[Bottom].Channels;
      break;
    case LayerKind::InnerProduct:
      Out = {L.NumOutput, 1, 1};
      break;
    default:
      break;
    }
    Shapes[L.Name] = Out;
  }

  double Flops = 0.0, Seconds = 0.0;
  Rng Values(7);
  for (const Gemm &G : Gemms)
    for (int Batch : Batches) {
      const int N = G.N * Batch;
      std::vector<float> A(static_cast<size_t>(G.M) * G.K),
          B(static_cast<size_t>(G.K) * N), C(static_cast<size_t>(G.M) * N);
      for (float &V : A)
        V = Values.nextFloat();
      for (float &V : B)
        V = Values.nextFloat();
      gemm(A.data(), B.data(), C.data(), G.M, G.K, N);
      // Enough repetitions that every shape runs about a millisecond.
      const double Work = 2.0 * G.M * G.K * N;
      const int Reps = std::max(3, static_cast<int>(2e7 / Work));
      Seconds += timed(Trace, SpanName, -1, [&] {
        for (int R = 0; R < Reps; ++R)
          gemm(A.data(), B.data(), C.data(), G.M, G.K, N);
      });
      Flops += Work * Reps;
    }
  return Seconds > 0.0 ? Flops / Seconds / 1e9 : 0.0;
}

Result<std::map<std::string, double>>
perfbench::probeExplore(const ExplorePlan &Plan, const std::string &CacheDir,
                        Tracer &Trace) {
  // The dataset exactly as the daemon's job executor derives it from the
  // job seed, so the teacher checkpoint the jobs left is a cache hit.
  SyntheticSpec DataSpec = standardDatasetSpecs(Plan.DatasetScale)[1];
  DataSpec.Classes = Plan.Spec.Layers.back().NumOutput;
  DataSpec.Height = Plan.Spec.InputHeight;
  DataSpec.Width = Plan.Spec.InputWidth;
  DataSpec.Seed = Plan.JobSeed * 2654435761u + 1;
  const Dataset Data = generateSynthetic(DataSpec);
  const MultiplexingModel Model(Plan.Spec);

  std::map<std::string, double> Out;
  std::optional<FullModel> Teacher;
  std::string Failure;
  Out["train.teacher_restore_ms"] =
      1e3 * medianSeconds(Trace, "train.teacher_restore", 3, [&] {
        Rng Generator(Plan.JobSeed);
        Result<FullModel> Prepared =
            prepareFullModel(Model, Data, Plan.Meta, CacheDir, Generator);
        if (!Prepared)
          Failure = Prepared.message();
        else if (!Prepared->FromCache)
          Failure = "the teacher was not in the daemon's cache";
        else
          Teacher.emplace(Prepared.take());
      });
  if (!Failure.empty())
    return Error::failure("teacher restore: " + Failure);

  PipelineOptions Options;
  Options.CacheDir = CacheDir;
  Out["explore.prepare_ms"] =
      1e3 * medianSeconds(Trace, "explore.prepare", 3, [&] {
        ExplorationEngine Engine(Plan.Spec, Data, Plan.Meta, Options);
        PipelineResult Run;
        Rng Generator(Plan.JobSeed);
        if (Error E = Engine.prepare(Run, Generator))
          Failure = E.message();
      });
  if (!Failure.empty())
    return Error::failure("engine prepare: " + Failure);

  Out["pruning.importance_ms"] =
      1e3 * medianSeconds(Trace, "pruning.importance", 3, [&] {
        if (!scoreFilters(Plan.Spec, Teacher->Network, "full",
                          ImportanceCriterion::L1Norm, &Data))
          Failure = "scoreFilters failed";
      });
  if (!Failure.empty())
    return Error::failure(Failure);

  std::vector<double> Identify;
  for (const ExploreJob &Job : Plan.Jobs)
    Identify.push_back(timed(Trace, "identifier.identify", -1, [&] {
      (void)identifyTuningBlocks(Plan.Spec.moduleCount(), Job.Subspace,
                                 subspaceRateAlphabet(Job.Subspace));
    }));
  Out["identifier.identify_ms"] = 1e3 * mean(Identify);
  return Out;
}
