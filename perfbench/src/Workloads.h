//===- perfbench/src/Workloads.h - What the benchmark sends ----------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two kinds of traffic the benchmark drives against the daemon —
/// prediction requests against uploaded models and fixed-strategy
/// pruning jobs — and the in-process layer probes of the traced run.
/// Every input is a pure function of the workload seed and the run
/// length, so one seed always sends the same work.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "src/Client.h"
#include "src/Trace.h"

#include "src/compiler/GraphBuilder.h"
#include "src/compiler/Solver.h"
#include "src/proto/ModelSpec.h"
#include "src/pruning/PruneConfig.h"
#include "src/support/Error.h"
#include "src/tensor/Tensor.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Prediction traffic
//===----------------------------------------------------------------------===//

/// Logit agreement with the in-process reference: |got - want| <=
/// LogitAbsTolerance + LogitRelTolerance * |want|. The daemon may run a
/// sample inside a batch (different summation order) and prints six
/// decimals.
inline constexpr double LogitAbsTolerance = 1e-4;
inline constexpr double LogitRelTolerance = 1e-4;

/// One uploaded model with its reference network and input pool.
struct PredictModel {
  std::string Id;
  std::string Prototxt;
  wootz::ModelSpec Spec;
  std::shared_ptr<wootz::BuiltNetwork> Net; ///< Same weights as uploaded.
  std::string UploadBody;
  std::vector<std::string> RequestBodies; ///< {"input": "..."} per input.
  std::vector<wootz::Tensor> Inputs;      ///< Parsed as the daemon parses.
  std::vector<std::vector<float>> Reference; ///< Batch-1 logits per input.
};

/// A workload's models plus its fixed request list.
struct PredictPlan {
  std::vector<PredictModel> Models;
  /// (model index, input index) for every request, in the order they are sent.
  std::vector<std::pair<uint32_t, uint32_t>> Requests;
};

/// Splits whitespace-separated values and parses each exactly as the
/// daemon's predict handler does, so the reference sees the same floats.
std::vector<float> parseInputText(std::string_view Text);

/// A wide residual model (8x8 inputs like the minis, but wide enough that
/// a batch-of-4 forward costs several times the batcher's 2 ms companion
/// window), whose conv shapes the inference GEMM probe times.
std::string widePrototxt();

/// Builds the four standard minis (seeded weights), their inputs,
/// reference logits and the request list, one random model per request.
/// Pure in (Seed, RequestCount).
PredictPlan makePredictPlan(uint64_t Seed, size_t RequestCount);

/// Verdict on one predict answer against the reference.
struct AnswerCheck {
  bool Ok = false;
  int BatchSize = 0;
  std::string Why; ///< Set when !Ok.
};

/// Checks a predict response body: argmax equals the reference's (or
/// ties it within tolerance) and every logit agrees within tolerance.
AnswerCheck checkPredictAnswer(const std::string &Body,
                               const std::vector<float> &Reference);

/// Uploads every model (POST /v1/models) and sends each model a few
/// warm-up predictions. Errors on any non-2xx or failed check.
wootz::Error setupPredict(int Port, const PredictPlan &Plan);

/// Per-request record of a predict phase.
struct PredictSample {
  uint32_t Model = 0;
  double Seconds = 0.0;
  int BatchSize = 0;
  bool Ok = false;
};

struct PredictPhase {
  std::vector<PredictSample> Samples;
  double WallSeconds = 0.0;
  int Threads = 0;
  std::vector<std::string> FailureNotes; ///< First few failure reasons.
};

/// Runs the plan's request list closed-loop on \p Clients connections.
PredictPhase runPredict(int Port, const PredictPlan &Plan, int Clients,
                        Tally &Counts, Tracer &Trace);

//===----------------------------------------------------------------------===//
// Pruning jobs
//===----------------------------------------------------------------------===//

struct ExploreJob {
  std::vector<wootz::PruneConfig> Subspace;
  std::string Body;
};

struct ExplorePlan {
  std::string Prototxt;
  wootz::ModelSpec Spec;
  wootz::TrainMeta Meta;
  double DatasetScale = 0.0;
  uint64_t JobSeed = 0;
  std::string Objective;
  double AccuracyFloor = 0.0; ///< The objective's accuracy constraint.
  std::string WarmupBody;     ///< Trains the teacher, fills no block.
  std::vector<ExploreJob> Jobs;
};

/// The fixed job list of a run: \p JobCount jobs whose subspaces are
/// drawn from \p Seed; model, meta and job seed are the same for all.
ExplorePlan makeExplorePlan(uint64_t Seed, size_t JobCount);

/// One span of a job's telemetry.jsonl (seconds since the job started).
struct TelemetrySpan {
  std::string Name;
  double Start = 0.0, End = 0.0, RunSeconds = 0.0;
  int Worker = 0;
};

/// What one finished job reported.
struct JobOutcome {
  std::string Id;
  double Seconds = 0.0; ///< Submit to "done" as the client saw it.
  bool Ok = false;
  std::string Why;
  int64_t ConfigsEvaluated = 0;
  int64_t CacheHit = 0;
  int64_t CacheMiss = 0;
  double SubmittedAt = 0.0, StartedAt = 0.0, FinishedAt = 0.0;
  int Span = -1; ///< The client-side trace span of the job.
  /// One line of the work record: counts plus the result digest.
  std::string WorkLine;
  /// The job's telemetry.jsonl spans (read by traced runs only).
  std::vector<TelemetrySpan> Telemetry;
};

/// Submits \p Body and polls until the job is terminal; checks the
/// answer against \p Expected (configs evaluated, objective met).
JobOutcome runJob(int Port, const std::string &Body, size_t ExpectedConfigs,
                  double AccuracyFloor, Tally &Counts, Tracer &Trace,
                  int Parent);

struct ExplorePhase {
  std::vector<JobOutcome> Jobs;
  double WallSeconds = 0.0;
};

/// Runs the plan's jobs one after another (closed loop, one submitter).
ExplorePhase runExplore(int Port, const ExplorePlan &Plan, Tally &Counts,
                        Tracer &Trace);

/// Reads `<StateDir>/artifacts/<Id>/telemetry.jsonl`.
wootz::Result<std::vector<TelemetrySpan>>
readTelemetry(const std::string &StateDir, const std::string &Id);

//===----------------------------------------------------------------------===//
// In-process layer probes (traced run only)
//===----------------------------------------------------------------------===//

/// Times the serve-path functions (request parse, body decode, answer
/// encode) on the bytes of \p Plan's requests; microseconds per call.
std::map<std::string, double> probeServeCodec(const PredictPlan &Plan,
                                              Tracer &Trace);

/// Per model: eval-mode Graph forward and frozen-plan forward at the
/// given batch sizes, plan compile, network build; milliseconds.
struct ModelTimings {
  std::map<int, double> GraphForwardMs; ///< By batch size.
  std::map<int, double> PlanForwardMs;
  double CompileMs = 0.0;
  double BuildMs = 0.0;
  double ParseMs = 0.0;
};

ModelTimings probeModel(const std::string &Prototxt, uint64_t Seed,
                        const std::vector<int> &Batches, Tracer &Trace);

/// Blocked GEMM throughput at the conv shapes of \p Spec and batch sizes
/// \p Batches (GFLOP/s over all shapes).
double probeGemmGflops(const wootz::ModelSpec &Spec,
                       const std::vector<int> &Batches, Tracer &Trace,
                       const std::string &SpanName);

/// The explore-side probes against a daemon state directory whose
/// teacher cache the jobs filled: teacher restore, engine prepare,
/// filter scoring and tuning-block identification; milliseconds.
wootz::Result<std::map<std::string, double>>
probeExplore(const ExplorePlan &Plan, const std::string &CacheDir,
             Tracer &Trace);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
