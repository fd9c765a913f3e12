//===- perfbench/src/Explore.cpp - Pruning-job traffic --------------------===//

#include "src/Workloads.h"

#include "src/Metrics.h"

#include "src/models/MiniModels.h"
#include "src/support/File.h"
#include "src/support/Hash.h"
#include "src/support/Json.h"
#include "src/support/Rng.h"
#include "src/support/StringUtils.h"

#include <chrono>
#include <set>
#include <thread>

using namespace perfbench;
using namespace wootz;

namespace {

/// Configurations per job, and the pruning rates each configuration
/// spreads over the modules (cycled when there are more modules).
constexpr size_t ConfigsPerJob = 4;
const std::vector<float> Rates = {0.3f, 0.5f, 0.7f};
/// One job seed for every job: it fixes the dataset and so the teacher.
constexpr uint64_t JobSeed = 11;
constexpr int Classes = 4;
constexpr double DatasetScale = 0.1;
/// The objective's accuracy floor. Every configuration has the same size,
/// so the objective only decides whether a winner exists. Over 171 jobs
/// (seeds 1-3, 20 s runs) the winners reached 0.5625 to 1.0 and the
/// teacher 0.8125 on a 16-example test set; chance is 0.25. The floor sits
/// one example below the lowest winner, so training or pruning that
/// drifts toward chance fails the answer check.
constexpr double AccuracyFloor = 0.5;
/// How often the submitter polls a running job.
constexpr auto PollPeriod = std::chrono::milliseconds(5);

TrainMeta jobMeta() {
  TrainMeta Meta;
  Meta.FullModelSteps = 200;
  Meta.PretrainSteps = 20;
  Meta.FinetuneSteps = 80;
  Meta.EvalEvery = 40;
  Meta.BatchSize = 8;
  return Meta;
}

std::string jobBody(const ExplorePlan &Plan,
                    const std::vector<PruneConfig> &Subspace,
                    bool Composability) {
  JsonObject Body;
  Body.field("model", Plan.Prototxt)
      .field("subspace", printSubspaceSpec(Subspace))
      .field("meta", printTrainMeta(Plan.Meta))
      .field("objective", Plan.Objective)
      .field("composability", Composability ? "true" : "false")
      .field("identifier", Composability ? "true" : "false")
      .field("schedule", "evalonly")
      .field("workers", "2")
      .field("seed", std::to_string(Plan.JobSeed))
      .field("dataset_scale", formatDouble(Plan.DatasetScale, 3));
  return Body.str();
}

} // namespace

ExplorePlan perfbench::makeExplorePlan(uint64_t Seed, size_t JobCount) {
  ExplorePlan Plan;
  Plan.Prototxt = standardModelPrototxt(StandardModel::ResNetA, Classes);
  Plan.Spec = parseModelSpec(Plan.Prototxt).take();
  Plan.Meta = jobMeta();
  Plan.DatasetScale = DatasetScale;
  Plan.JobSeed = JobSeed;
  Plan.AccuracyFloor = AccuracyFloor;
  Plan.Objective = "min ModelSize\nconstraint Accuracy >= " +
                   formatDouble(Plan.AccuracyFloor, 2) + "\n";

  Rng Draw(Seed * 0x94d049bb133111ebull + 5);
  const size_t Modules = static_cast<size_t>(Plan.Spec.moduleCount());
  for (size_t J = 0; J < JobCount; ++J) {
    ExploreJob Job;
    std::set<PruneConfig> Seen;
    // Every configuration permutes one rate vector over the modules (the
    // ResNet modules are alike), so all configurations cost the same to
    // fine-tune and a seed changes only which (module, rate) segments the
    // configurations share — what the identifier and block cache see.
    while (Job.Subspace.size() < ConfigsPerJob) {
      PruneConfig Config(Modules, 0.0f);
      for (size_t M = 0; M < Modules; ++M)
        Config[M] = Rates[M % Rates.size()];
      for (size_t M = Modules; M > 1; --M)
        std::swap(Config[M - 1], Config[Draw.nextBelow(M)]);
      if (Seen.insert(Config).second)
        Job.Subspace.push_back(Config);
    }
    Job.Body = jobBody(Plan, Job.Subspace, /*Composability=*/true);
    Plan.Jobs.push_back(std::move(Job));
  }
  // The warm-up job trains the teacher (the job seed fixes it) and
  // fine-tunes a job's worth of configurations, so the timed jobs find
  // the daemon's threads and memory warm, but it pre-trains no tuning
  // block: the block cache stays empty.
  Plan.WarmupBody =
      jobBody(Plan, Plan.Jobs.front().Subspace, /*Composability=*/false);
  return Plan;
}

JobOutcome perfbench::runJob(int Port, const std::string &Body,
                             size_t ExpectedConfigs, double AccuracyFloor,
                             Tally &Counts, Tracer &Trace, int Parent) {
  JobOutcome Out;
  const double Start = Trace.now();
  const int SubmitSpan = Trace.begin("client.job.submit", Parent);
  const Exchange Submitted =
      httpExchange(Port, httpRequest("POST", "/v1/jobs", Body));
  Trace.end(SubmitSpan);
  if (Submitted.Status != 202) {
    Counts.record(classify(Submitted, false));
    Out.Why = "submit answered " + std::to_string(Submitted.Status) + " " +
              Submitted.Error + Submitted.Body;
    return Out;
  }
  Out.Id = jsonField(Submitted.Body, "id").value_or("");

  // Poll until terminal. Status answers are small; the poll period
  // bounds how late the client sees "done".
  const std::string Poll = httpRequest("GET", "/v1/jobs/" + Out.Id);
  Exchange Status;
  std::string State;
  for (;;) {
    Status = httpExchange(Port, Poll);
    if (Status.Status != 200)
      break;
    State = jsonField(Status.Body, "state").value_or("");
    if (State == "done" || State == "failed" || State == "cancelled")
      break;
    std::this_thread::sleep_for(PollPeriod);
  }
  Out.Seconds = Trace.now() - Start;

  auto number = [&](const char *Key) {
    return jsonNumber(Status.Body, Key).value_or(-1.0);
  };
  Out.ConfigsEvaluated = static_cast<int64_t>(number("configs_evaluated"));
  Out.SubmittedAt = number("submitted_at");
  Out.StartedAt = number("started_at");
  Out.FinishedAt = number("finished_at");
  const std::string Counters =
      jsonObjectField(Status.Body, "counters").value_or("{}");
  Out.CacheHit =
      static_cast<int64_t>(jsonNumber(Counters, "cache.hit").value_or(0));
  Out.CacheMiss =
      static_cast<int64_t>(jsonNumber(Counters, "cache.miss").value_or(0));

  const double WinnerAccuracy = number("winner_accuracy");
  if (Status.Status != 200)
    Out.Why = "status answered " + std::to_string(Status.Status) + " " +
              Status.Error;
  else if (State != "done")
    Out.Why = "job " + Out.Id + " ended " + State + ": " +
              jsonField(Status.Body, "message").value_or("");
  else if (Out.ConfigsEvaluated != static_cast<int64_t>(ExpectedConfigs))
    Out.Why = "job " + Out.Id + " evaluated " +
              std::to_string(Out.ConfigsEvaluated) + " of " +
              std::to_string(ExpectedConfigs) + " configurations";
  else if (number("winner_index") < 0 || WinnerAccuracy < AccuracyFloor)
    Out.Why = "job " + Out.Id + " has no winner meeting the objective";
  Out.Ok = Out.Why.empty();
  Counts.record(classify(Status, Out.Ok));

  // The work record: counts that must repeat exactly for a seed, plus a
  // digest of everything the job decided.
  const std::string Result =
      jsonField(Status.Body, "winner_index").value_or("?") + " " +
      jsonField(Status.Body, "winner_accuracy").value_or("?") + " " +
      jsonField(Status.Body, "winner_size_fraction").value_or("?") + " " +
      jsonField(Status.Body, "full_accuracy").value_or("?");
  char Digest[17];
  std::snprintf(Digest, sizeof(Digest), "%016llx",
                static_cast<unsigned long long>(fnv1a(Result)));
  Out.WorkLine = "configs=" + std::to_string(Out.ConfigsEvaluated) +
                 " blocks_pretrained=" + std::to_string(Out.CacheMiss) +
                 " cache_hit=" + std::to_string(Out.CacheHit) +
                 " cache_miss=" + std::to_string(Out.CacheMiss) +
                 " result=" + Digest;
  return Out;
}

ExplorePhase perfbench::runExplore(int Port, const ExplorePlan &Plan,
                                   Tally &Counts, Tracer &Trace) {
  ExplorePhase Phase;
  const double Start = Trace.now();
  for (size_t J = 0; J < Plan.Jobs.size(); ++J) {
    const int Span =
        Trace.begin("client.job", -1, "plan-" + std::to_string(J));
    Phase.Jobs.push_back(runJob(Port, Plan.Jobs[J].Body,
                                Plan.Jobs[J].Subspace.size(),
                                Plan.AccuracyFloor, Counts, Trace, Span));
    Phase.Jobs.back().Span = Span;
    Trace.end(Span);
  }
  Phase.WallSeconds = Trace.now() - Start;
  return Phase;
}

Result<std::vector<TelemetrySpan>>
perfbench::readTelemetry(const std::string &StateDir, const std::string &Id) {
  Result<std::string> Text =
      readFile(StateDir + "/artifacts/" + Id + "/telemetry.jsonl");
  if (!Text)
    return Text.takeError();
  std::vector<TelemetrySpan> Spans;
  for (const std::string &Line : split(*Text, '\n')) {
    if (Line.empty())
      continue;
    Result<std::map<std::string, std::string>> Fields =
        parseFlatJsonObject(Line);
    if (!Fields)
      return Error::failure("telemetry of " + Id + ": " + Fields.message());
    if (Fields->count("type") == 0 || Fields->at("type") != "span")
      continue;
    auto num = [&](const char *Key) {
      auto It = Fields->find(Key);
      return It == Fields->end() ? 0.0 : std::strtod(It->second.c_str(),
                                                      nullptr);
    };
    TelemetrySpan S;
    S.Name = Fields->count("name") ? Fields->at("name") : "";
    S.Start = num("start");
    S.End = num("end");
    S.RunSeconds = num("run_seconds");
    S.Worker = static_cast<int>(num("worker"));
    Spans.push_back(std::move(S));
  }
  return Spans;
}
