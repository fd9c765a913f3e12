//===- tests/JobQueueTest.cpp - multi-process serving tier tests -----------===//
//
// Covers the scaled-out serving pieces bottom-up: the file-based owner
// lease (acquire / renew / steal / release), the ArtifactStore layout
// with its process registry and rendezvous placement, the durable
// JobQueue (cross-queue visibility, exclusive claims, cancel markers,
// reclaim after lease expiry), worker-count validation on the facade,
// crash recovery with a warm block cache, and two full daemons sharing
// one artifact root end to end (upload-on-A/predict-on-B, submit-on-A/
// execute-on-B, and block reuse across jobs regardless of process).
//
//===----------------------------------------------------------------------===//

#include "src/serve/Server.h"

#include "src/models/MiniModels.h"
#include "src/pruning/PruneConfig.h"
#include "src/support/File.h"
#include "src/support/Json.h"
#include "src/support/Lease.h"
#include "src/support/StringUtils.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <thread>

using namespace wootz;
using namespace wootz::serve;

namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory that cleans up after itself.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name)
      : Path((fs::temp_directory_path() / Name).string()) {
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ignored;
    fs::remove_all(Path, Ignored);
  }
  const std::string &str() const { return Path; }

private:
  std::string Path;
};

/// Sends \p Raw to 127.0.0.1:\p Port and reads until the server closes.
Result<std::string> rawRequest(int Port, const std::string &Raw) {
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Error::failure("socket() failed");
  timeval Timeout{};
  Timeout.tv_sec = 30;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Timeout, sizeof(Timeout));
  sockaddr_in Address{};
  Address.sin_family = AF_INET;
  Address.sin_port = htons(static_cast<uint16_t>(Port));
  Address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Address),
                sizeof(Address)) != 0) {
    ::close(Fd);
    return Error::failure("connect() failed");
  }
  size_t Sent = 0;
  while (Sent < Raw.size()) {
    const ssize_t N = ::send(Fd, Raw.data() + Sent, Raw.size() - Sent, 0);
    if (N <= 0) {
      ::close(Fd);
      return Error::failure("send() failed");
    }
    Sent += static_cast<size_t>(N);
  }
  std::string Response;
  char Buffer[4096];
  while (true) {
    const ssize_t N = ::recv(Fd, Buffer, sizeof(Buffer), 0);
    if (N < 0) {
      if (!Response.empty())
        break;
      ::close(Fd);
      return Error::failure("recv() failed");
    }
    if (N == 0)
      break;
    Response.append(Buffer, static_cast<size_t>(N));
  }
  ::close(Fd);
  if (Response.empty())
    return Error::failure("empty response");
  return Response;
}

std::string makeRequest(const std::string &Method, const std::string &Target,
                        const std::string &Body) {
  return Method + " " + Target + " HTTP/1.1\r\nHost: test\r\n" +
         (Body.empty() ? std::string()
                       : "Content-Length: " + std::to_string(Body.size()) +
                             "\r\n") +
         "\r\n" + Body;
}

int statusOf(const std::string &Response) {
  if (Response.size() < 12 || Response.compare(0, 9, "HTTP/1.1 ") != 0)
    return -1;
  Result<long long> Code = parseInteger(Response.substr(9, 3));
  return Code ? static_cast<int>(*Code) : -1;
}

std::string bodyOf(const std::string &Response) {
  const size_t At = Response.find("\r\n\r\n");
  return At == std::string::npos ? std::string()
                                 : Response.substr(At + 4);
}

/// The raw text of "key": in \p Json up to the next comma/brace — used
/// to compare result summaries byte-for-byte across processes.
std::string jsonField(const std::string &Json, const std::string &Key) {
  const std::string Needle = "\"" + Key + "\":";
  const size_t At = Json.find(Needle);
  if (At == std::string::npos)
    return "";
  const size_t From = At + Needle.size();
  const size_t End = Json.find_first_of(",}", From);
  return Json.substr(From, End - From);
}

//===----------------------------------------------------------------------===//
// Shared tiny inputs (mirrors ServeTest's job fixture).
//===----------------------------------------------------------------------===//

std::string tinyModelText() {
  return standardModelPrototxt(StandardModel::ResNetA, 4);
}

std::string tinyMetaText() {
  TrainMeta Meta;
  Meta.FullModelSteps = 30;
  Meta.PretrainSteps = 12;
  Meta.FinetuneSteps = 8;
  Meta.EvalEvery = 8;
  Meta.BatchSize = 8;
  return printTrainMeta(Meta);
}

std::string tinySubspaceText() {
  Result<ModelSpec> Spec = parseModelSpec(tinyModelText());
  PruneConfig A(Spec->moduleCount(), 0.0f);
  A[0] = 0.5f;
  PruneConfig B(Spec->moduleCount(), 0.0f);
  B[0] = 0.3f;
  return printSubspaceSpec({A, B});
}

std::map<std::string, std::string> tinyJobBody() {
  return {{"model", tinyModelText()},
          {"subspace", tinySubspaceText()},
          {"meta", tinyMetaText()},
          {"objective", "min ModelSize\nconstraint Accuracy >= 0.0\n"},
          {"dataset_scale", "0.1"},
          {"workers", "2"},
          // Per-module blocks: guaranteed pre-training + cache traffic.
          {"identifier", "false"}};
}

std::string tinyJobJson(
    const std::map<std::string, std::string> &Extra = {}) {
  std::map<std::string, std::string> Merged = tinyJobBody();
  for (const auto &[Key, Value] : Extra)
    Merged[Key] = Value;
  JsonObject Body;
  for (const auto &[Key, Value] : Merged)
    Body.field(Key, Value);
  return Body.str();
}

/// Polls \p Manager until \p Id reaches a terminal state.
std::string waitForTerminal(JobManager &Manager, const std::string &Id,
                            int TimeoutSeconds = 180) {
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(TimeoutSeconds);
  while (std::chrono::steady_clock::now() < Deadline) {
    Result<std::string> Status = Manager.statusJson(Id);
    if (!Status)
      return "";
    for (const char *State : {"done", "failed", "cancelled"})
      if (Status->find("\"state\":\"" + std::string(State) + "\"") !=
          std::string::npos)
        return State;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return "timeout";
}

//===----------------------------------------------------------------------===//
// support/Lease
//===----------------------------------------------------------------------===//

TEST(LeaseTest, AcquireIsExclusiveUntilExpiry) {
  ScratchDir Scratch("wootz_lease");
  const std::string Path = Scratch.str() + "/job.lease";

  Result<bool> A = tryAcquireLease(Path, "alpha", 60'000);
  ASSERT_TRUE(static_cast<bool>(A)) << A.message();
  EXPECT_TRUE(*A);

  // A second owner bounces off the unexpired lease.
  Result<bool> B = tryAcquireLease(Path, "beta", 60'000);
  ASSERT_TRUE(static_cast<bool>(B)) << B.message();
  EXPECT_FALSE(*B);

  // The file names the holder and a future expiry.
  Result<LeaseInfo> Held = readLease(Path);
  ASSERT_TRUE(static_cast<bool>(Held)) << Held.message();
  EXPECT_EQ(Held->Owner, "alpha");
  EXPECT_FALSE(Held->expired(unixMillisNow()));

  // Renewal extends; a non-holder cannot renew.
  EXPECT_FALSE(static_cast<bool>(renewLease(Path, "alpha", 60'000)));
  EXPECT_TRUE(static_cast<bool>(renewLease(Path, "beta", 60'000)));

  // Releasing as a non-holder is a no-op; as the holder it removes.
  releaseLease(Path, "beta");
  EXPECT_TRUE(fs::exists(Path));
  releaseLease(Path, "alpha");
  EXPECT_FALSE(fs::exists(Path));
}

TEST(LeaseTest, ExpiredLeaseCanBeStolen) {
  ScratchDir Scratch("wootz_lease_steal");
  const std::string Path = Scratch.str() + "/job.lease";

  Result<bool> A = tryAcquireLease(Path, "dead", 1);
  ASSERT_TRUE(static_cast<bool>(A) && *A);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  Result<bool> B = tryAcquireLease(Path, "live", 60'000);
  ASSERT_TRUE(static_cast<bool>(B)) << B.message();
  EXPECT_TRUE(*B);
  Result<LeaseInfo> Held = readLease(Path);
  ASSERT_TRUE(static_cast<bool>(Held));
  EXPECT_EQ(Held->Owner, "live");
}

//===----------------------------------------------------------------------===//
// ArtifactStore
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, LayoutHeartbeatAndUsage) {
  ScratchDir Scratch("wootz_artifact_store");

  // Disabled store: every path empty, everything owned locally.
  ArtifactStore Disabled;
  EXPECT_FALSE(Disabled.enabled());
  EXPECT_EQ(Disabled.blockCacheDir(), "");
  EXPECT_TRUE(Disabled.ownsLocally("model/x"));

  ArtifactStoreOptions Options;
  Options.Root = Scratch.str();
  Options.ProcessName = "proc-a";
  ArtifactStore Store(Options);
  EXPECT_TRUE(Store.enabled());
  EXPECT_EQ(Store.blockCacheDir(), Scratch.str() + "/block_cache");
  EXPECT_EQ(Store.modelCacheDir(), Scratch.str() + "/cache");
  EXPECT_EQ(Store.jobsDir(), Scratch.str() + "/jobs");
  EXPECT_EQ(Store.artifactsDir(), Scratch.str() + "/artifacts");
  EXPECT_EQ(Store.modelsDir(), Scratch.str() + "/models");

  // Heartbeat registers the process.
  Error Beat = Store.heartbeat();
  ASSERT_FALSE(static_cast<bool>(Beat)) << Beat.message();
  const std::vector<std::string> Active = Store.activeProcesses();
  ASSERT_EQ(Active.size(), 1u);
  EXPECT_EQ(Active[0], "proc-a");

  // usage() counts regular files one level down.
  fs::create_directories(Store.modelCacheDir());
  ASSERT_FALSE(static_cast<bool>(
      writeFile(Store.modelCacheDir() + "/a.bin", "12345")));
  ASSERT_FALSE(static_cast<bool>(
      writeFile(Store.modelCacheDir() + "/b.bin", "123")));
  const ArtifactUsage Usage = ArtifactStore::usage(Store.modelCacheDir());
  EXPECT_EQ(Usage.Entries, 2u);
  EXPECT_EQ(Usage.Bytes, 8u);

  Store.unregisterProcess();
  EXPECT_TRUE(Store.activeProcesses().empty());
}

TEST(ArtifactStoreTest, RendezvousPlacementIsConsistentAndCovering) {
  ScratchDir Scratch("wootz_artifact_placement");
  ArtifactStoreOptions OptionsA;
  OptionsA.Root = Scratch.str();
  OptionsA.ProcessName = "proc-a";
  ArtifactStoreOptions OptionsB = OptionsA;
  OptionsB.ProcessName = "proc-b";

  ArtifactStore A(OptionsA), B(OptionsB);
  ASSERT_FALSE(static_cast<bool>(A.heartbeat()));
  ASSERT_FALSE(static_cast<bool>(B.heartbeat()));
  ASSERT_EQ(A.activeProcesses().size(), 2u);

  size_t OwnedByA = 0, OwnedByB = 0;
  for (int I = 0; I < 64; ++I) {
    const std::string Key = "model/model-" + std::to_string(I);
    // Every process computes the same owner from the registry alone.
    EXPECT_EQ(A.ownerOf(Key), B.ownerOf(Key));
    // Exactly one of the two processes does the eager work.
    EXPECT_NE(A.ownsLocally(Key), B.ownsLocally(Key)) << Key;
    OwnedByA += A.ownsLocally(Key);
    OwnedByB += B.ownsLocally(Key);
  }
  // Rendezvous hashing spreads keys over both processes.
  EXPECT_GT(OwnedByA, 0u);
  EXPECT_GT(OwnedByB, 0u);

  // A dead peer's keys move to the survivor.
  B.unregisterProcess();
  for (int I = 0; I < 64; ++I)
    EXPECT_TRUE(A.ownsLocally("model/model-" + std::to_string(I)));
}

//===----------------------------------------------------------------------===//
// Durable JobQueue
//===----------------------------------------------------------------------===//

JobQueueOptions queueOptions(const std::string &Dir,
                             const std::string &Owner,
                             double LeaseSeconds = 30.0) {
  JobQueueOptions Options;
  Options.Dir = Dir;
  Options.Owner = Owner;
  Options.LeaseSeconds = LeaseSeconds;
  return Options;
}

std::map<std::string, std::string> stubBody() {
  return {{"model", "stub"}, {"subspace", "stub"}};
}

TEST(JobQueueTest, DurableSubmitIsVisibleToAPeerQueue) {
  ScratchDir Scratch("wootz_jobqueue_visible");
  JobQueue A(queueOptions(Scratch.str(), "proc-a"));
  Result<std::string> Id =
      A.submit(stubBody(), "tiny", "fixed", "l1", 2);
  ASSERT_TRUE(static_cast<bool>(Id)) << Id.message();
  EXPECT_EQ(*Id, "proc-a-job-1");

  // A fresh queue on the same directory imports the journal.
  JobQueue B(queueOptions(Scratch.str(), "proc-b"));
  Result<JobRecord> Seen = B.get(*Id);
  ASSERT_TRUE(static_cast<bool>(Seen)) << Seen.message();
  EXPECT_EQ(Seen->State, JobState::Queued);
  EXPECT_EQ(Seen->ModelName, "tiny");
  EXPECT_EQ(Seen->StrategyName, "fixed");
  EXPECT_EQ(Seen->SubspaceConfigs, 2u);
  EXPECT_EQ(Seen->Body.at("model"), "stub");
  EXPECT_FALSE(Seen->Local);
  EXPECT_EQ(B.queuedCount(), 1u);
}

TEST(JobQueueTest, ClaimIsExclusiveAcrossQueues) {
  ScratchDir Scratch("wootz_jobqueue_exclusive");
  JobQueue A(queueOptions(Scratch.str(), "proc-a"));
  JobQueue B(queueOptions(Scratch.str(), "proc-b"));
  Result<std::string> Id = A.submit(stubBody(), "tiny", "fixed", "l1", 1);
  ASSERT_TRUE(static_cast<bool>(Id));
  B.poll();

  std::optional<JobRecord> ByA = A.claim();
  std::optional<JobRecord> ByB = B.claim();
  // Exactly one queue wins the lease.
  EXPECT_NE(ByA.has_value(), ByB.has_value());
  const JobRecord &Won = ByA ? *ByA : *ByB;
  EXPECT_EQ(Won.Id, *Id);
  EXPECT_EQ(Won.State, JobState::Running);
  EXPECT_EQ(Won.Owner, ByA ? "proc-a" : "proc-b");

  // The winner finishes; both queues converge on the terminal state.
  (ByA ? A : B).finish(Won, JobState::Done, "winner at position 0");
  A.poll();
  B.poll();
  EXPECT_EQ(A.get(*Id)->State, JobState::Done);
  EXPECT_EQ(B.get(*Id)->State, JobState::Done);
  EXPECT_TRUE(A.allSettled());
}

TEST(JobQueueTest, CancelMarkerReachesThePeer) {
  ScratchDir Scratch("wootz_jobqueue_cancel");
  JobQueue A(queueOptions(Scratch.str(), "proc-a"));
  JobQueue B(queueOptions(Scratch.str(), "proc-b"));

  // A queued job cancels immediately, on any process.
  Result<std::string> Queued =
      A.submit(stubBody(), "tiny", "fixed", "l1", 1);
  B.poll();
  Result<JobState> AfterQueued = B.requestCancel(*Queued);
  ASSERT_TRUE(static_cast<bool>(AfterQueued));
  EXPECT_EQ(*AfterQueued, JobState::Cancelled);
  A.poll();
  EXPECT_EQ(A.get(*Queued)->State, JobState::Cancelled);
  EXPECT_EQ(A.get(*Queued)->Message, "cancelled while queued");

  // A running job gets a durable marker its owner observes.
  Result<std::string> Running =
      A.submit(stubBody(), "tiny", "fixed", "l1", 1);
  std::optional<JobRecord> Claimed = A.claim();
  ASSERT_TRUE(Claimed.has_value());
  B.poll();
  Result<JobState> AfterRunning = B.requestCancel(*Running);
  ASSERT_TRUE(static_cast<bool>(AfterRunning));
  EXPECT_EQ(*AfterRunning, JobState::Running);
  EXPECT_TRUE(A.cancelRequested(*Running));

  // Unknown ids keep the old message shape.
  Result<JobState> Unknown = B.requestCancel("job-999");
  ASSERT_FALSE(static_cast<bool>(Unknown));
  EXPECT_EQ(Unknown.message(), "no such job 'job-999'");

  A.finish(*Claimed, JobState::Cancelled, "cancelled while running");
}

TEST(JobQueueTest, ExpiredLeaseIsReclaimedByALiveQueue) {
  ScratchDir Scratch("wootz_jobqueue_reclaim");
  std::string Id;
  {
    // The "crashing" owner: claims with a tiny TTL, never finishes.
    JobQueue Dead(queueOptions(Scratch.str(), "dead-proc", 0.05));
    Result<std::string> Submitted =
        Dead.submit(stubBody(), "tiny", "fixed", "l1", 1);
    ASSERT_TRUE(static_cast<bool>(Submitted));
    Id = *Submitted;
    ASSERT_TRUE(Dead.claim().has_value());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  RunLog Log;
  JobQueue Live(queueOptions(Scratch.str(), "live-proc"), &Log);
  // The constructor's poll already reclaimed; a second poll is stable.
  Result<JobRecord> Seen = Live.get(Id);
  ASSERT_TRUE(static_cast<bool>(Seen)) << Seen.message();
  EXPECT_EQ(Seen->State, JobState::Queued);
  EXPECT_EQ(Seen->Reclaims, 1);
  EXPECT_EQ(Seen->Message,
            "reclaimed after lease expiry (owner 'dead-proc')");
  EXPECT_EQ(Log.counters().at("serve.jobs.reclaimed"), 1);

  // And it is claimable here.
  std::optional<JobRecord> Claimed = Live.claim();
  ASSERT_TRUE(Claimed.has_value());
  EXPECT_EQ(Claimed->Owner, "live-proc");
  Live.finish(*Claimed, JobState::Done, "");
}

//===----------------------------------------------------------------------===//
// Facade options validation
//===----------------------------------------------------------------------===//

TEST(JobManagerOptionsTest, NegativeWorkersIsRejected) {
  JobManagerOptions Options;
  Options.Workers = -1;
  JobManager Manager(Options, nullptr, nullptr);
  EXPECT_EQ(Manager.optionsError(),
            "JobManagerOptions::Workers must be non-negative "
            "(0 means one worker per hardware thread)");

  // The server surfaces the error at start() instead of listening.
  ServerOptions Server;
  Server.Jobs.Workers = -2;
  WootzServer Daemon(Server);
  Error Started = Daemon.start();
  ASSERT_TRUE(static_cast<bool>(Started));
  EXPECT_NE(Started.message().find("must be non-negative"),
            std::string::npos);
}

TEST(JobManagerOptionsTest, ZeroWorkersMeansHardwareConcurrency) {
  JobManagerOptions Options;
  Options.Workers = 0;
  JobManager Manager(Options, nullptr, nullptr);
  EXPECT_TRUE(Manager.optionsError().empty());
}

//===----------------------------------------------------------------------===//
// Crash recovery with a warm block cache
//===----------------------------------------------------------------------===//

TEST(JobRecoveryTest, ReclaimedJobRerunsWarmAndMatchesTheColdResult) {
  ScratchDir Scratch("wootz_job_recovery");
  JobManagerOptions Shared;
  Shared.Workers = 1;
  Shared.QueueDir = Scratch.str() + "/jobs";
  Shared.BlockCacheDir = Scratch.str() + "/block_cache";
  Shared.CacheDir = Scratch.str() + "/cache";
  Shared.ArtifactDir = Scratch.str() + "/artifacts";
  Shared.PollSeconds = 0.05;
  // EvalOnly: every configuration is evaluated whatever the timing, so
  // configs_evaluated is comparable. Overlap's first-satisfying
  // cancellation makes that count depend on the two workers' timing.
  std::map<std::string, std::string> Body = tinyJobBody();
  Body["schedule"] = "evalonly";

  // Cold run: executes normally, populating the shared block cache.
  std::string ColdId, ColdStatus;
  {
    JobManagerOptions Options = Shared;
    Options.Owner = "proc-cold";
    RunLog Log;
    JobManager Cold(Options, nullptr, &Log);
    const SubmitOutcome Submitted = Cold.submit(Body);
    ASSERT_EQ(Submitted.Status, 202) << Submitted.Error;
    ColdId = Submitted.Id;
    ASSERT_EQ(waitForTerminal(Cold, ColdId), "done");
    const std::map<std::string, int64_t> Counters =
        Cold.executor().countersFor(ColdId);
    EXPECT_GT(Counters.at("cache.miss"), 0); // Trained its blocks cold.
    ColdStatus = *Cold.statusJson(ColdId);
    Cold.drain();
  }

  // Simulated crash: a raw queue claims an identical job with a tiny
  // lease TTL and dies without finishing — the journal says running,
  // the lease expires, nobody heartbeats.
  std::string CrashedId;
  {
    JobQueue Dead(queueOptions(Shared.QueueDir, "dead-proc", 0.05));
    Result<std::string> Submitted =
        Dead.submit(Body, "resnet_a", "fixed", "l1", 2);
    ASSERT_TRUE(static_cast<bool>(Submitted));
    CrashedId = *Submitted;
    ASSERT_TRUE(Dead.claim().has_value());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  // Restart: a fresh manager reclaims the orphan and reruns it. The
  // warm cache satisfies every block, and the result reproduces the
  // cold run bit-exactly (deterministic training + identical inputs).
  JobManagerOptions Options = Shared;
  Options.Owner = "proc-warm";
  RunLog Log;
  JobManager Warm(Options, nullptr, &Log);
  ASSERT_EQ(waitForTerminal(Warm, CrashedId), "done");
  EXPECT_GE(Log.counters().at("serve.jobs.reclaimed"), 1);
  Result<JobRecord> Reran = Warm.queue().get(CrashedId);
  ASSERT_TRUE(static_cast<bool>(Reran));
  EXPECT_EQ(Reran->Reclaims, 1);
  EXPECT_EQ(Reran->Owner, "proc-warm");

  const std::map<std::string, int64_t> Counters =
      Warm.executor().countersFor(CrashedId);
  EXPECT_GT(Counters.at("cache.hit"), 0);
  EXPECT_EQ(Counters.count("cache.miss"), 0u); // Pre-trained zero blocks.

  const std::string WarmStatus = *Warm.statusJson(CrashedId);
  for (const char *Field :
       {"winner_index", "winner_accuracy", "winner_size_fraction",
        "full_accuracy", "configs_evaluated"})
    EXPECT_EQ(jsonField(WarmStatus, Field), jsonField(ColdStatus, Field))
        << Field;
  Warm.drain();
}

//===----------------------------------------------------------------------===//
// Two daemons, one artifact store
//===----------------------------------------------------------------------===//

TEST(MultiProcessServeTest, TwoDaemonsShareModelsJobsAndBlockCache) {
  ScratchDir Scratch("wootz_two_daemons");

  // Daemon A submits and observes but never executes; daemon B has the
  // only executor — every job accepted by A must run on B.
  ServerOptions OptionsA;
  OptionsA.Artifacts.Root = Scratch.str();
  OptionsA.Artifacts.ProcessName = "proc-a";
  OptionsA.Jobs.ExecuteJobs = false;
  OptionsA.Jobs.PollSeconds = 0.05;
  ServerOptions OptionsB;
  OptionsB.Artifacts.Root = Scratch.str();
  OptionsB.Artifacts.ProcessName = "proc-b";
  OptionsB.Jobs.Workers = 1;
  OptionsB.Jobs.PollSeconds = 0.05;

  WootzServer A(OptionsA);
  ASSERT_FALSE(static_cast<bool>(A.start()));
  WootzServer B(OptionsB);
  ASSERT_FALSE(static_cast<bool>(B.start()));

  // Upload through A, predict through B: the model is persisted under
  // the shared root and lazily restored by the daemon that is asked.
  JsonObject Upload;
  Upload.field("id", "shared-model").field("model", tinyModelText());
  Result<std::string> Uploaded = rawRequest(
      A.port(), makeRequest("POST", "/v1/models", Upload.str()));
  ASSERT_TRUE(static_cast<bool>(Uploaded)) << Uploaded.message();
  ASSERT_EQ(statusOf(*Uploaded), 201) << *Uploaded;

  Result<ModelSpec> Spec = parseModelSpec(tinyModelText());
  std::string Input;
  const int Count =
      Spec->InputChannels * Spec->InputHeight * Spec->InputWidth;
  for (int I = 0; I < Count; ++I)
    Input += (I ? " " : "") + formatDouble(0.01 * (I % 11), 3);
  JsonObject PredictBody;
  PredictBody.field("input", Input);
  Result<std::string> Predicted = rawRequest(
      B.port(), makeRequest("POST", "/v1/models/shared-model/predict",
                            PredictBody.str()));
  ASSERT_TRUE(static_cast<bool>(Predicted)) << Predicted.message();
  ASSERT_EQ(statusOf(*Predicted), 200) << *Predicted;
  EXPECT_GE(B.log().counters().at("serve.models.restored"), 1);

  // Submit a strategy job to A — by uploaded-model id, which B resolves
  // from the shared store at claim time — and wait for B to finish it.
  const std::map<std::string, std::string> JobExtra = {
      {"model", "shared-model"},
      {"strategy", "greedy"},
      {"max_rounds", "2"}};
  Result<std::string> Accepted = rawRequest(
      A.port(), makeRequest("POST", "/v1/jobs", tinyJobJson(JobExtra)));
  ASSERT_TRUE(static_cast<bool>(Accepted)) << Accepted.message();
  ASSERT_EQ(statusOf(*Accepted), 202) << *Accepted;
  const std::string FirstId = jsonField(bodyOf(*Accepted), "id");
  ASSERT_FALSE(FirstId.empty());
  const std::string Id1 = FirstId.substr(1, FirstId.size() - 2); // Unquote.

  ASSERT_EQ(waitForTerminal(A.jobs(), Id1), "done");
  // A never ran it; B did.
  EXPECT_TRUE(A.jobs().executor().countersFor(Id1).empty());
  const std::map<std::string, int64_t> Cold =
      B.jobs().executor().countersFor(Id1);
  ASSERT_FALSE(Cold.empty());
  EXPECT_GT(Cold.at("cache.miss"), 0);
  EXPECT_EQ(B.jobs().queue().get(Id1)->Owner, "proc-b");

  // A second identical job pre-trains zero blocks: every tuning block
  // comes from the shared cache, no matter which process executes.
  Result<std::string> Accepted2 = rawRequest(
      A.port(), makeRequest("POST", "/v1/jobs", tinyJobJson(JobExtra)));
  ASSERT_TRUE(static_cast<bool>(Accepted2));
  ASSERT_EQ(statusOf(*Accepted2), 202) << *Accepted2;
  const std::string SecondId = jsonField(bodyOf(*Accepted2), "id");
  const std::string Id2 = SecondId.substr(1, SecondId.size() - 2);
  ASSERT_EQ(waitForTerminal(A.jobs(), Id2), "done");

  const std::map<std::string, int64_t> Hot =
      B.jobs().executor().countersFor(Id2);
  ASSERT_FALSE(Hot.empty());
  EXPECT_GT(Hot.at("cache.hit"), 0);
  EXPECT_EQ(Hot.count("cache.miss"), 0u);
  EXPECT_GT(Hot.at("strategy.blocks_reused"), 0);

  // Both daemons expose the shared tier on /metrics.
  Result<std::string> Metrics =
      rawRequest(A.port(), makeRequest("GET", "/metrics", ""));
  ASSERT_TRUE(static_cast<bool>(Metrics));
  const std::string Text = bodyOf(*Metrics);
  EXPECT_NE(Text.find("wootz_artifact_processes 2"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("wootz_artifact_entries{tier=\"models\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("wootz_counter{scope=\"contexts\","
                      "name=\"serve.contexts."),
            std::string::npos);

  B.drain();
  A.drain();
}

} // namespace
