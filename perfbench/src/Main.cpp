//===- perfbench/src/Main.cpp - The benchmark program --------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload W --seed N --seconds S --trace 0|1
///             --cli PATH --work DIR [--root DIR]
///
/// Starts the shipped daemon (`--cli`, normally the freshly built
/// wootz_cli) on fresh state directories under --work, sets it up several
/// times, runs workload W for about S seconds of fixed, seed-derived work,
/// checks every answer, and prints as its last stdout line
///
///   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
///
/// with the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1). perfbench/run.py builds the binaries and calls this.
///
//===----------------------------------------------------------------------===//

#include "src/Daemon.h"
#include "src/Metrics.h"
#include "src/Stats.h"
#include "src/Workloads.h"

#include "src/serve/Server.h"
#include "src/support/File.h"
#include "src/support/Hash.h"
#include "src/support/Json.h"
#include "src/support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using namespace wootz;

namespace {

//===----------------------------------------------------------------------===//
// Workload sizes. Work is fixed per (seed, seconds): these nominal rates
// turn the run length into a request or job count once, before anything
// runs, so a slower or faster program does the same work in more or less
// time instead of a different amount of work.
//===----------------------------------------------------------------------===//

constexpr double MinisRequestsPerSecond = 1100.0;
constexpr double JobsPerSecond = 2.7;
/// Connections the predict workloads keep busy (capped at nproc).
constexpr int PredictClients = 4;
/// Set-ups per run; setup_s is their median.
constexpr int PredictSetups = 10;
constexpr int ExploreSetups = 3;
/// Size of the other traffic kind's probe in a traced run.
constexpr size_t ProbeRequestCount = 1200;
constexpr size_t ProbeJobCount = 2;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  int Seconds = 10;
  bool Trace = false;
  std::string Cli;
  std::string Work = ".bench_build/perfbench/work";
  std::string Root = ".";
};

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "explore|predict-minis --seed N --seconds S "
               "--trace 0|1 --cli PATH [--work DIR] [--root DIR]\n",
               Why.c_str());
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value for " + Arg);
    const std::string Value = Argv[++I];
    auto integer = [&]() {
      Result<long long> V = parseInteger(Value);
      if (!V || *V < 0)
        usage("bad value for " + Arg + ": " + Value);
      return *V;
    };
    if (Arg == "--workload")
      O.Workload = Value;
    else if (Arg == "--seed")
      O.Seed = static_cast<uint64_t>(integer());
    else if (Arg == "--seconds")
      O.Seconds = static_cast<int>(std::clamp<long long>(integer(), 1, 600));
    else if (Arg == "--trace")
      O.Trace = integer() != 0;
    else if (Arg == "--cli")
      O.Cli = Value;
    else if (Arg == "--work")
      O.Work = Value;
    else if (Arg == "--root")
      O.Root = Value;
    else
      usage("unknown argument " + Arg);
  }
  if (O.Workload != "explore" && O.Workload != "predict-minis")
    usage("unknown workload '" + O.Workload + "'");
  if (O.Cli.empty())
    usage("--cli is required");
  return O;
}

/// Numbers are printed with every significant digit they carry.
std::string num(double V) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.9g", V);
  return Buffer;
}

std::string numList(const std::vector<double> &Values) {
  std::string Out;
  for (double V : Values)
    Out += (Out.empty() ? "" : ",") + num(V);
  return "[" + Out + "]";
}

std::string hex(uint64_t V) {
  char Buffer[17];
  std::snprintf(Buffer, sizeof(Buffer), "%016llx",
                static_cast<unsigned long long>(V));
  return Buffer;
}

//===----------------------------------------------------------------------===//
// Run metadata
//===----------------------------------------------------------------------===//

/// The commit when the checkout is a git work tree (read from .git
/// directly, never by walking up out of the checkout), else "none".
std::string gitSha(const std::string &Root) {
  Result<std::string> Head = readFile(Root + "/.git/HEAD");
  if (!Head)
    return "none";
  std::string Ref(trim(*Head));
  if (Ref.rfind("ref: ", 0) != 0)
    return Ref;
  Ref = Ref.substr(5);
  if (Result<std::string> Loose = readFile(Root + "/.git/" + Ref))
    return std::string(trim(*Loose));
  if (Result<std::string> Packed = readFile(Root + "/.git/packed-refs"))
    for (const std::string &Line : split(*Packed, '\n'))
      if (Line.size() > 41 && Line.compare(41, std::string::npos, Ref) == 0)
        return Line.substr(0, 40);
  return "unknown";
}

/// A digest of the program's and the benchmark's sources (src/,
/// examples/, perfbench/, the root build file), so runs of checkouts
/// without git metadata can be matched, and a change to how the benchmark
/// drives the daemon starts a new work ledger.
std::string sourceDigest(const std::string &Root) {
  namespace fs = std::filesystem;
  std::vector<std::string> Files;
  std::error_code Ignored;
  for (const char *Dir : {"src", "examples", "perfbench"})
    for (auto It = fs::recursive_directory_iterator(Root + "/" + Dir, Ignored);
         It != fs::recursive_directory_iterator(); It.increment(Ignored))
      if (It->is_regular_file(Ignored))
        Files.push_back(It->path().string());
  Files.push_back(Root + "/CMakeLists.txt");
  std::sort(Files.begin(), Files.end());
  std::string All;
  for (const std::string &Path : Files)
    if (Result<std::string> Text = readFile(Path))
      All += Path.substr(Root.size()) + "\n" + *Text;
  return hex(fnv1a(All));
}

std::string metadataJson(const Options &O) {
  const serve::ServerOptions Defaults;
  const char *KernelWorkers = std::getenv("WOOTZ_KERNEL_WORKERS");
  JsonObject Daemon;
  Daemon.field("command", "wootz_cli serve <port> <state-dir>")
      .field("use_plans", Defaults.Batching.UsePlans)
      .field("max_batch", Defaults.Batching.MaxBatch)
      .field("max_wait_us", Defaults.Batching.MaxWaitMicros)
      .field("batcher_workers", Defaults.Batching.Workers)
      .field("http_workers", Defaults.Http.Workers)
      .field("job_workers", Defaults.Jobs.Workers)
      .field("max_queued_jobs", Defaults.Jobs.MaxQueuedJobs);
  JsonObject Meta;
  Meta.field("workload", O.Workload)
      .field("seed", static_cast<int64_t>(O.Seed))
      .field("seconds", O.Seconds)
      .field("trace", O.Trace)
      .field("git_sha", gitSha(O.Root))
      .field("source_digest", sourceDigest(O.Root))
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .field("client_limit", clientLimit())
      .field("wootz_kernel_workers", KernelWorkers ? KernelWorkers : "unset")
      .fieldRaw("daemon", Daemon.str());
  return Meta.str();
}

//===----------------------------------------------------------------------===//
// Work-repeat guard
//===----------------------------------------------------------------------===//

/// The second check of the work-repeat guard (the first compares the
/// set-ups of one run): compares this run's explore work record with the
/// first run of the same inputs (\p InputDigest: the plan the seed and
/// length produced) on the same program sources in this work directory,
/// or records it. The first run of new sources only records. Returns a
/// description of the difference, empty when the work repeats.
std::string checkWorkRecord(const Options &O, const std::string &InputDigest,
                            const std::string &Record) {
  const std::string Dir = O.Work + "/ledger";
  std::error_code Ignored;
  std::filesystem::create_directories(Dir, Ignored);
  const std::string Path = Dir + "/" + O.Workload + "-seed" +
                           std::to_string(O.Seed) + "-s" +
                           std::to_string(O.Seconds) + "-" +
                           sourceDigest(O.Root) + "-" + InputDigest +
                           ".work";
  if (Result<std::string> Previous = readFile(Path)) {
    if (*Previous == Record)
      return "";
    return "work differs from an earlier run of the same seed (" + Path +
           "):\n--- earlier\n" + *Previous + "--- now\n" + Record;
  }
  (void)static_cast<bool>(writeFileAtomic(Path, Record));
  return "";
}

//===----------------------------------------------------------------------===//
// One run
//===----------------------------------------------------------------------===//

/// Everything the run measured, before it is turned into metrics.
struct RunState {
  Tally Counts;
  std::vector<double> SetupSeconds;
  /// Work line of each set-up's warm-up job (explore): every set-up runs
  /// the same job on a fresh daemon, so they must all agree.
  std::vector<std::string> WarmupWork;
  /// Successful operations per second of the timed phase.
  double OpsPerSecond = 0.0;
  std::optional<PredictPlan> Predict;
  std::optional<ExplorePlan> Explore;
  std::optional<PredictPhase> PredictResult;
  std::optional<ExplorePhase> ExploreResult;
  Scrape PredictBefore, PredictAfter;
  double PeakRssMb = 0.0;
  std::vector<std::string> Problems; ///< Failed checks; run not correct.
};

Scrape scrape(int Port) {
  const Exchange X = httpExchange(Port, httpRequest("GET", "/metrics"));
  return X.Status == 200 ? parsePrometheus(X.Body) : Scrape();
}

double delta(const Scrape &Before, const Scrape &After,
             const std::string &Key) {
  auto get = [&](const Scrape &S) {
    auto It = S.find(Key);
    return It == S.end() ? 0.0 : It->second;
  };
  return get(After) - get(Before);
}

size_t predictCount(const Options &O) {
  return static_cast<size_t>(MinisRequestsPerSecond * O.Seconds);
}

size_t jobCount(const Options &O) {
  return std::max<size_t>(3, static_cast<size_t>(JobsPerSecond * O.Seconds));
}

/// Starts a daemon and brings it to the workload's ready state: models
/// uploaded and warm, or the teacher trained. Returns the set-up seconds.
Result<std::unique_ptr<Daemon>> setUp(const Options &O, RunState &S,
                                      int Index, Tracer &Trace) {
  const std::string StateDir =
      O.Work + "/state/" + O.Workload + "-" + std::to_string(Index);
  const double Start = Trace.now();
  const int Span = Trace.begin("setup", -1, "setup-" + std::to_string(Index));
  Result<std::unique_ptr<Daemon>> D = Daemon::start(O.Cli, StateDir);
  if (!D)
    return D.takeError();
  if (S.Predict) {
    if (Error E = setupPredict((*D)->port(), *S.Predict))
      return E;
  } else {
    Tally Ignored;
    const JobOutcome Warm =
        runJob((*D)->port(), S.Explore->WarmupBody,
               S.Explore->Jobs.front().Subspace.size(),
               S.Explore->AccuracyFloor, Ignored, Trace, Span);
    if (!Warm.Ok)
      return Error::failure("warm-up job: " + Warm.Why);
    S.WarmupWork.push_back(Warm.WorkLine);
  }
  Trace.end(Span);
  S.SetupSeconds.push_back(Trace.now() - Start);
  return D;
}

/// Reads each job's telemetry from the daemon's state directory into the
/// job, and joins its spans into the trace under the client's job span.
void joinTelemetry(ExplorePhase &Phase, const std::string &StateDir,
                   Tracer &Trace, std::vector<std::string> &Problems) {
  const std::vector<Span> Spans = Trace.spans();
  for (JobOutcome &Job : Phase.Jobs) {
    Result<std::vector<TelemetrySpan>> Read =
        readTelemetry(StateDir, Job.Id);
    if (!Read) {
      Problems.push_back("telemetry: " + Read.message());
      continue;
    }
    Job.Telemetry = Read.take();
    const double Origin =
        Job.Span >= 0 ? Spans[static_cast<size_t>(Job.Span)].Start +
                            (Job.StartedAt - Job.SubmittedAt)
                      : 0.0;
    const int JobSpan =
        Trace.add(Span{"daemon.job", Origin,
                       Origin + (Job.FinishedAt - Job.StartedAt), Job.Span,
                       Job.Id, 50});
    for (const TelemetrySpan &T : Job.Telemetry)
      Trace.add(Span{"daemon." + T.Name.substr(0, T.Name.find(':')),
                     Origin + T.Start, Origin + T.End, JobSpan, Job.Id,
                     100 + T.Worker});
  }
}

/// Milliseconds of every successful operation of the timed phase.
std::vector<double> okLatenciesMs(const RunState &S, bool IsExplore) {
  std::vector<double> Latencies;
  if (IsExplore) {
    for (const JobOutcome &J : S.ExploreResult->Jobs)
      if (J.Ok)
        Latencies.push_back(J.Seconds * 1e3);
  } else {
    for (const PredictSample &P : S.PredictResult->Samples)
      if (P.Ok)
        Latencies.push_back(P.Seconds * 1e3);
  }
  return Latencies;
}

/// The end-to-end metrics of the workload's own timed phase.
std::map<std::string, double> endToEnd(const RunState &S, bool IsExplore) {
  return {{"setup_s", median(S.SetupSeconds)},
          {"peak_rss_mb", S.PeakRssMb},
          {"p50_ms", median(okLatenciesMs(S, IsExplore))},
          {"ops_per_s", S.OpsPerSecond}};
}

/// Latency detail beyond the gated metrics: sample count, p90 and the
/// highest percentile the sample supports.
std::string latencyDetail(const RunState &S, bool IsExplore) {
  const std::vector<double> Latencies = okLatenciesMs(S, IsExplore);
  JsonObject Out;
  Out.field("samples", Latencies.size())
      .field("p90_ms", percentile(Latencies, 0.9), 4)
      .field("p90_supported",
             percentileSupported(Latencies.size(), 0.9))
      .field("highest_supported_percentile",
             highestSupportedPercentile(Latencies.size()), 3)
      .field("highest_supported_ms",
             percentile(Latencies,
                        std::max(0.5, highestSupportedPercentile(
                                          Latencies.size()))),
             4);
  return Out.str();
}

/// Per-layer metrics of the traced run.
std::map<std::string, double>
perLayer(const RunState &S, const PredictPlan &Predict,
         const PredictPhase &PredictRun, const ExplorePlan &Explore,
         const ExplorePhase &ExploreRun, const std::string &StateDir,
         Tracer &Trace, std::vector<std::string> &Problems) {
  std::map<std::string, double> Out = probeServeCodec(Predict, Trace);

  // Models: Graph and plan forwards at every batch size the daemon can
  // form from PredictClients connections.
  std::vector<int> Batches;
  for (int B = 1; B <= PredictClients; ++B)
    Batches.push_back(B);
  std::vector<ModelTimings> Models;
  std::vector<double> Parse, Build, Compile, G1, G4, P1, P4;
  for (size_t M = 0; M < Predict.Models.size(); ++M) {
    Models.push_back(probeModel(Predict.Models[M].Prototxt, 7 + M, Batches,
                                Trace));
    const ModelTimings &T = Models.back();
    Parse.push_back(T.ParseMs);
    Build.push_back(T.BuildMs);
    Compile.push_back(T.CompileMs);
    G1.push_back(T.GraphForwardMs.at(1));
    G4.push_back(T.GraphForwardMs.at(4));
    P1.push_back(T.PlanForwardMs.at(1));
    P4.push_back(T.PlanForwardMs.at(4));
  }
  Parse.push_back(1e3 * timed(Trace, "proto.parse", -1, [&] {
                    (void)parseModelSpec(Explore.Prototxt);
                  }));
  Out["proto.parse_ms"] = mean(Parse);
  Out["compiler.build_ms"] = mean(Build);
  Out["plan.compile_ms"] = mean(Compile);
  Out["nn.forward_ms.b1"] = mean(G1);
  Out["nn.forward_ms.b4"] = mean(G4);
  Out["plan.forward_ms.b1"] = mean(P1);
  Out["plan.forward_ms.b4"] = mean(P4);

  // Serve path: what the client saw minus what the daemon measured.
  const std::string ReqSum = "wootz_request_latency_seconds_sum";
  const std::string ReqCount = "wootz_request_latency_seconds_count";
  const std::string PredSum =
      "wootz_predict_latency_seconds_sum{path=\"predict\"}";
  const std::string PredCount =
      "wootz_predict_latency_seconds_count{path=\"predict\"}";
  std::vector<double> Client, Forward;
  for (const PredictSample &P : PredictRun.Samples) {
    if (!P.Ok)
      continue;
    Client.push_back(P.Seconds * 1e3);
    const std::map<int, double> &ByBatch = Models[P.Model].GraphForwardMs;
    auto It = ByBatch.lower_bound(P.BatchSize);
    Forward.push_back(It == ByBatch.end() ? ByBatch.rbegin()->second
                                          : It->second);
  }
  const double Requests = delta(S.PredictBefore, S.PredictAfter, ReqCount);
  const double Predicts = delta(S.PredictBefore, S.PredictAfter, PredCount);
  const double HandlerMs =
      Requests > 0
          ? 1e3 * delta(S.PredictBefore, S.PredictAfter, ReqSum) / Requests
          : 0.0;
  const double PredictMs =
      Predicts > 0
          ? 1e3 * delta(S.PredictBefore, S.PredictAfter, PredSum) / Predicts
          : 0.0;
  Out["serve.transport_ms"] =
      mean(Client) - HandlerMs -
      (Out["serve.http.parse_us"] + Out["serve.encode_us"]) / 1e3;
  Out["serve.batcher.wait_ms"] = PredictMs - mean(Forward);
  auto served = [&](const std::string &Name) {
    return counterValue(S.PredictAfter, "server", Name) -
           counterValue(S.PredictBefore, "server", Name);
  };
  const double BatchCount = served("serve.predict.batches");
  Out["serve.batcher.batch_mean"] =
      BatchCount > 0 ? served("serve.predict.batched_samples") / BatchCount
                     : 0.0;
  const double Created =
      counterValue(S.PredictAfter, "contexts", "serve.contexts.created");
  const double Reused =
      counterValue(S.PredictAfter, "contexts", "serve.contexts.reused");
  Out["serve.contexts.reuse_ratio"] =
      Created + Reused > 0 ? Reused / (Created + Reused) : 0.0;

  // Kernels at the two workloads' shapes.
  Out["tensor.gemm_gflops.train"] =
      probeGemmGflops(Explore.Spec, {8}, Trace, "tensor.gemm.train");
  Out["tensor.gemm_gflops.infer"] = probeGemmGflops(
      parseModelSpec(widePrototxt()).take(), {1, 2, 3, 4}, Trace,
      "tensor.gemm.infer");

  // Jobs: telemetry spans and status stamps.
  std::vector<double> Pretrain, Finetune, Blocks, Idle, Queue, Finish;
  double Hits = 0, Misses = 0, Configs = 0;
  for (const JobOutcome &J : ExploreRun.Jobs) {
    if (J.Telemetry.empty())
      continue;
    double PretrainS = 0, FinetuneS = 0, Busy = 0, LastEval = 0;
    double First = 1e300, Last = 0;
    for (const TelemetrySpan &T : J.Telemetry) {
      if (T.Name.rfind("pretrain:", 0) == 0)
        PretrainS += T.RunSeconds;
      if (T.Name.rfind("eval:", 0) == 0) {
        FinetuneS += T.RunSeconds;
        LastEval = std::max(LastEval, T.End);
      }
      Busy += T.RunSeconds;
      First = std::min(First, T.Start);
      Last = std::max(Last, T.End);
    }
    Pretrain.push_back(PretrainS);
    Finetune.push_back(FinetuneS);
    Blocks.push_back(static_cast<double>(J.CacheMiss));
    // EvalOnly jobs run on the job's two pipeline workers.
    Idle.push_back(Last > First ? 1.0 - Busy / ((Last - First) * 2.0) : 0.0);
    Queue.push_back(1e3 * (J.StartedAt - J.SubmittedAt));
    Finish.push_back(1e3 * ((J.FinishedAt - J.StartedAt) - LastEval));
    Hits += static_cast<double>(J.CacheHit);
    Misses += static_cast<double>(J.CacheMiss);
    Configs += static_cast<double>(J.ConfigsEvaluated);
  }
  Out["train.pretrain_s"] = mean(Pretrain);
  Out["train.finetune_s"] = mean(Finetune);
  Out["train.blocks_pretrained"] = mean(Blocks);
  Out["train.block_cache.hit_ratio"] =
      Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0;
  Out["explore.worker_idle_frac"] = mean(Idle);
  Out["explore.configs_evaluated"] = Configs;
  Out["serve.jobs.queue_wait_ms"] = mean(Queue);
  Out["serve.jobs.finish_ms"] = mean(Finish);

  Result<std::map<std::string, double>> ExploreLayers =
      probeExplore(Explore, StateDir + "/cache", Trace);
  if (!ExploreLayers)
    Problems.push_back(ExploreLayers.message());
  else
    for (const auto &[Name, Value] : *ExploreLayers)
      Out[Name] = Value;
  return Out;
}

std::string metricsJson(const std::vector<MetricInfo> &Catalogue,
                        const std::map<std::string, double> &Values,
                        std::vector<std::string> &Problems) {
  std::string Out = "{";
  for (const MetricInfo &M : Catalogue) {
    auto It = Values.find(M.Name);
    if (It == Values.end()) {
      Problems.push_back(std::string("metric not measured: ") + M.Name);
      continue;
    }
    if (Out.size() > 1)
      Out += ",";
    Out += "\"" + std::string(M.Name) + "\":{\"value\":" + num(It->second) +
           ",\"unit\":\"" + M.Unit + "\"}";
  }
  return Out + "}";
}

/// Stored end-to-end numbers of untraced runs, for the tracing overhead.
std::string resultPath(const Options &O, bool Traced) {
  return O.Work + "/results/" + O.Workload + "-seed" +
         std::to_string(O.Seed) + "-s" + std::to_string(O.Seconds) +
         (Traced ? "-trace1" : "-trace0") + ".json";
}

int run(const Options &O) {
  const bool IsExplore = O.Workload == "explore";
  Tracer Trace(O.Trace);
  RunState S;
  if (IsExplore)
    S.Explore = makeExplorePlan(O.Seed, jobCount(O));
  else
    S.Predict = makePredictPlan(O.Seed, predictCount(O));

  // Set-up is timed several times, each on a fresh daemon (setup_s is
  // the median); the timed phase runs on the last one, which stays up for
  // the traced run's probes.
  const int SetUps = IsExplore ? ExploreSetups : PredictSetups;
  std::unique_ptr<Daemon> D;
  for (int I = 0; I < SetUps; ++I) {
    if (D) {
      if (Error E = D->stop())
        S.Problems.push_back(E.message());
      removeTree(D->stateDir());
    }
    Result<std::unique_ptr<Daemon>> Started = setUp(O, S, I, Trace);
    if (!Started) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   Started.message().c_str());
      return 1;
    }
    D = Started.take();
  }
  const Result<double> SetupRss = D->peakRssMb();

  size_t Succeeded = 0;
  double Wall = 0.0;
  if (IsExplore) {
    S.ExploreResult = runExplore(D->port(), *S.Explore, S.Counts, Trace);
    if (O.Trace)
      joinTelemetry(*S.ExploreResult, D->stateDir(), Trace, S.Problems);
    Wall = S.ExploreResult->WallSeconds;
    for (const JobOutcome &J : S.ExploreResult->Jobs)
      Succeeded += J.Ok;
  } else {
    S.PredictBefore = scrape(D->port());
    S.PredictResult =
        runPredict(D->port(), *S.Predict, PredictClients, S.Counts, Trace);
    S.PredictAfter = scrape(D->port());
    Wall = S.PredictResult->WallSeconds;
    for (const PredictSample &P : S.PredictResult->Samples)
      Succeeded += P.Ok;
  }
  S.OpsPerSecond = Wall > 0.0 ? static_cast<double>(Succeeded) / Wall : 0.0;
  if (Result<double> Peak = D->peakRssMb())
    S.PeakRssMb = *Peak;
  else
    S.Problems.push_back(Peak.message());

  // Answer checks and the work record.
  std::string Work, Detail;
  if (IsExplore) {
    for (const std::string &Line : S.WarmupWork)
      if (Line != S.WarmupWork.front())
        S.Problems.push_back("the warm-up job did different work on two "
                             "set-ups of this run: " +
                             S.WarmupWork.front() + " vs " + Line);
    Work = "warm-up: " + S.WarmupWork.front() + "\n";
    std::string Inputs = S.Explore->WarmupBody;
    for (const ExploreJob &Job : S.Explore->Jobs)
      Inputs += Job.Body;
    std::string Digests, Seconds;
    for (size_t J = 0; J < S.ExploreResult->Jobs.size(); ++J) {
      const JobOutcome &Job = S.ExploreResult->Jobs[J];
      if (!Job.Ok)
        S.Problems.push_back(Job.Why);
      Work += "job " + std::to_string(J) + ": " + Job.WorkLine + "\n";
      Digests += Job.WorkLine + "\n";
      Seconds += (J ? "," : "") + num(Job.Seconds);
    }
    Detail = "\"result_digest\":\"" + hex(fnv1a(Digests)) +
             "\",\"job_seconds\":[" + Seconds + "]";
    const std::string WorkProblem =
        checkWorkRecord(O, hex(fnv1a(Inputs)), Work);
    if (!WorkProblem.empty())
      S.Problems.push_back(WorkProblem);
  } else {
    for (const std::string &Note : S.PredictResult->FailureNotes)
      S.Problems.push_back(Note);
    Detail = "\"client_threads\":" +
             std::to_string(S.PredictResult->Threads);
  }

  const std::map<std::string, double> E2E = endToEnd(S, IsExplore);
  std::string Overhead = "null";
  std::map<std::string, double> Layers;

  if (O.Trace) {
    // The other traffic kind, briefly, so every layer is measured.
    std::optional<PredictPlan> ProbePredict;
    std::optional<ExplorePlan> ProbeExplore;
    PredictPhase ProbeRequests;
    ExplorePhase ProbeJobs;
    Tally ProbeCounts;
    if (IsExplore) {
      ProbePredict = makePredictPlan(O.Seed, ProbeRequestCount);
      if (Error E = setupPredict(D->port(), *ProbePredict))
        S.Problems.push_back("predict probe: " + E.message());
      S.PredictBefore = scrape(D->port());
      ProbeRequests = runPredict(D->port(), *ProbePredict, PredictClients,
                                 ProbeCounts, Trace);
      S.PredictAfter = scrape(D->port());
    } else {
      ProbeExplore = makeExplorePlan(O.Seed, ProbeJobCount);
      const JobOutcome Warm =
          runJob(D->port(), ProbeExplore->WarmupBody,
                 ProbeExplore->Jobs.front().Subspace.size(),
                 ProbeExplore->AccuracyFloor, ProbeCounts, Trace, -1);
      if (!Warm.Ok)
        S.Problems.push_back("job probe warm-up: " + Warm.Why);
      ProbeJobs = runExplore(D->port(), *ProbeExplore, ProbeCounts, Trace);
      joinTelemetry(ProbeJobs, D->stateDir(), Trace, S.Problems);
    }
    if (ProbeCounts.failed() > 0)
      S.Problems.push_back("the traced run's probe traffic had " +
                           std::to_string(ProbeCounts.failed()) +
                           " failures");
    if (Error E = D->stop())
      S.Problems.push_back(E.message());
    Layers = perLayer(S, IsExplore ? *ProbePredict : *S.Predict,
                      IsExplore ? ProbeRequests : *S.PredictResult,
                      IsExplore ? *S.Explore : *ProbeExplore,
                      IsExplore ? *S.ExploreResult : ProbeJobs, D->stateDir(),
                      Trace, S.Problems);

    // Tracing overhead against an untraced run of the same seed.
    if (Result<std::string> Untraced = readFile(resultPath(O, false))) {
      JsonObject Diff;
      for (const char *Name : {"p50_ms", "ops_per_s"})
        if (std::optional<double> Before = jsonNumber(*Untraced, Name))
          Diff.field(std::string(Name) + "_pct",
                     100.0 * (E2E.at(Name) - *Before) / *Before, 3);
      Overhead = Diff.str();
    }

    std::error_code Ignored;
    std::filesystem::create_directories(O.Work + "/traces", Ignored);
    const std::string TracePath = O.Work + "/traces/" + O.Workload +
                                  "-seed" + std::to_string(O.Seed) + ".json";
    (void)static_cast<bool>(writeFile(TracePath, Trace.chromeJson()));
    std::string Self;
    for (const auto &[Name, Seconds] : Trace.selfSeconds())
      Self += (Self.empty() ? "" : ",") + std::string("\"") + Name +
              "\":" + num(Seconds);
    std::fprintf(stderr, "perfbench: trace written to %s\n",
                 TracePath.c_str());
    std::printf("{\"perfbench_self_seconds\":{%s}}\n", Self.c_str());
  } else {
    if (Error E = D->stop())
      S.Problems.push_back(E.message());
  }
  removeTree(D->stateDir());

  // Report.
  std::vector<std::string> Problems = S.Problems;
  const std::string Metrics =
      O.Trace ? metricsJson(perLayerMetrics(), Layers, Problems)
              : metricsJson(endToEndMetrics(), E2E, Problems);
  std::string E2EText;
  for (const auto &[Name, Value] : E2E)
    E2EText += (E2EText.empty() ? "" : ",") + std::string("\"") + Name +
               "\":" + num(Value);
  const std::string Record =
      "{\"meta\":" + metadataJson(O) + ",\"end_to_end\":{" + E2EText +
      "},\"latency\":" + latencyDetail(S, IsExplore) + "," + Detail +
      ",\"setup_seconds\":" + numList(S.SetupSeconds) +
      ",\"rss_mb_after_setup\":" + (SetupRss ? num(*SetupRss) : "null") +
      ",\"tracing_overhead\":" + Overhead + ",\"work\":\"" +
      jsonEscape(Work) + "\"}";
  std::error_code Ignored;
  std::filesystem::create_directories(O.Work + "/results", Ignored);
  (void)static_cast<bool>(writeFile(resultPath(O, O.Trace), Record + "\n"));
  std::printf("{\"perfbench_run\":%s}\n", Record.c_str());

  for (const std::string &P : Problems)
    std::fprintf(stderr, "perfbench: check failed: %s\n", P.c_str());
  const bool Correct = Problems.empty();
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":%s}\n",
              Correct ? "true" : "false",
              static_cast<long long>(S.Counts.Attempted.load()),
              static_cast<long long>(S.Counts.failed()), Metrics.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) { return run(parseArgs(Argc, Argv)); }
