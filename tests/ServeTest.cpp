//===- tests/ServeTest.cpp - pruning-as-a-service daemon tests -------------===//
//
// Covers the serve subsystem bottom-up: the HTTP parser against malformed
// and fuzzed input (every violation must be a definite 4xx/5xx, never a
// crash), the router, the Prometheus metrics pieces, the micro-batcher,
// the job manager (lifecycle, cancellation, backpressure, drain), and the
// assembled daemon end to end over real sockets — including a concurrent
// mixed-traffic soak and the graceful-drain guarantee that every accepted
// job reaches a terminal state.
//
//===----------------------------------------------------------------------===//

#include "src/serve/Server.h"

#include "src/compiler/GraphBuilder.h"
#include "src/compiler/Solver.h"
#include "src/data/Synthetic.h"
#include "src/models/MiniModels.h"
#include "src/nn/Serialize.h"
#include "src/pruning/PruneConfig.h"
#include "src/support/File.h"
#include "src/support/Json.h"
#include "src/support/StringUtils.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
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

//===----------------------------------------------------------------------===//
// A minimal blocking HTTP client (tests only).
//===----------------------------------------------------------------------===//

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
      // A server that answers without draining the request (e.g. the
      // early-503 paths) closes with unread data, which the kernel turns
      // into an RST; the response bytes still arrived first, so a reset
      // after data is a completed exchange, not a failure.
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

/// Builds a well-formed request with a body.
std::string makeRequest(const std::string &Method, const std::string &Target,
                        const std::string &Body) {
  return Method + " " + Target + " HTTP/1.1\r\nHost: test\r\n" +
         (Body.empty() ? std::string()
                       : "Content-Length: " + std::to_string(Body.size()) +
                             "\r\n") +
         "\r\n" + Body;
}

/// Status code of a serialized response.
int statusOf(const std::string &Response) {
  if (Response.size() < 12 || Response.compare(0, 9, "HTTP/1.1 ") != 0)
    return -1;
  Result<long long> Code = parseInteger(Response.substr(9, 3));
  return Code ? static_cast<int>(*Code) : -1;
}

/// Body (everything after the blank line) of a serialized response.
std::string bodyOf(const std::string &Response) {
  const size_t At = Response.find("\r\n\r\n");
  return At == std::string::npos ? std::string()
                                 : Response.substr(At + 4);
}

//===----------------------------------------------------------------------===//
// Shared tiny inputs for job tests.
//===----------------------------------------------------------------------===//

std::string tinyModelText() {
  return standardModelPrototxt(StandardModel::ResNetA, 4);
}

std::string tinyMetaText(int FullModelSteps = 30) {
  TrainMeta Meta;
  Meta.FullModelSteps = FullModelSteps;
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

/// Always-satisfied objective: the smallest configuration wins, and under
/// the Overlap schedule everything after it is cascade-cancelled.
std::string easyObjectiveText() {
  return "min ModelSize\nconstraint Accuracy >= 0.0\n";
}

std::map<std::string, std::string> tinyJobBody(int FullModelSteps = 30) {
  return {{"model", tinyModelText()},
          {"subspace", tinySubspaceText()},
          {"meta", tinyMetaText(FullModelSteps)},
          {"objective", easyObjectiveText()},
          {"dataset_scale", "0.1"},
          {"workers", "2"},
          // Per-module blocks: the two-config subspace is too small for
          // the sequitur identifier to find a repeated pattern, and the
          // tests below want guaranteed pre-training + cache traffic.
          {"identifier", "false"}};
}

std::string tinyJobJson() {
  JsonObject Body;
  for (const auto &[Key, Value] : tinyJobBody())
    Body.field(Key, Value);
  return Body.str();
}

/// Polls \p Manager until \p Id reaches a terminal state.
std::string waitForTerminal(JobManager &Manager, const std::string &Id,
                            int TimeoutSeconds = 120) {
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
// HTTP parser
//===----------------------------------------------------------------------===//

TEST(ServeHttpParserTest, ParsesACompleteRequest) {
  Result<HttpRequest> Request = parseHttpRequest(
      "POST /v1/jobs?debug=1 HTTP/1.1\r\nHost: x\r\n"
      "Content-Type: application/json\r\nContent-Length: 4\r\n\r\nbody");
  ASSERT_TRUE(static_cast<bool>(Request)) << Request.message();
  EXPECT_EQ(Request->Method, "POST");
  EXPECT_EQ(Request->Target, "/v1/jobs?debug=1");
  EXPECT_EQ(Request->path(), "/v1/jobs");
  EXPECT_EQ(Request->Body, "body");
  // Header names are lowercased on the way in.
  EXPECT_EQ(Request->header("content-type"), "application/json");
  EXPECT_EQ(Request->header("host"), "x");
}

TEST(ServeHttpParserTest, ParsesIncrementallyByteByByte) {
  const std::string Raw =
      "GET /metrics HTTP/1.1\r\nHost: a\r\nX-Probe: yes\r\n\r\n";
  HttpRequestParser Parser;
  for (size_t I = 0; I + 1 < Raw.size(); ++I)
    ASSERT_NE(Parser.consume(Raw.substr(I, 1)),
              HttpRequestParser::State::Failed)
        << "byte " << I;
  ASSERT_EQ(Parser.consume(Raw.substr(Raw.size() - 1)),
            HttpRequestParser::State::Complete);
  EXPECT_EQ(Parser.take().header("x-probe"), "yes");
}

TEST(ServeHttpParserTest, RejectsGarbageRequestLine) {
  HttpRequestParser Parser;
  EXPECT_EQ(Parser.consume("complete garbage\r\n\r\n"),
            HttpRequestParser::State::Failed);
  EXPECT_GE(Parser.errorStatus(), 400);
  EXPECT_LT(Parser.errorStatus(), 600);
}

TEST(ServeHttpParserTest, RejectsUnsupportedVersion) {
  HttpRequestParser Parser;
  EXPECT_EQ(Parser.consume("GET / HTTP/2.0\r\n\r\n"),
            HttpRequestParser::State::Failed);
  EXPECT_EQ(Parser.errorStatus(), 505);
}

TEST(ServeHttpParserTest, RejectsOversizedHeaderBlock) {
  HttpLimits Limits;
  Limits.MaxHeaderBytes = 64;
  HttpRequestParser Parser(Limits);
  const std::string Big(128, 'a');
  EXPECT_EQ(Parser.consume("GET / HTTP/1.1\r\nX-Big: " + Big + "\r\n\r\n"),
            HttpRequestParser::State::Failed);
  EXPECT_EQ(Parser.errorStatus(), 431);
}

TEST(ServeHttpParserTest, RejectsTooManyHeaders) {
  HttpLimits Limits;
  Limits.MaxHeaderCount = 3;
  HttpRequestParser Parser(Limits);
  std::string Raw = "GET / HTTP/1.1\r\n";
  for (int I = 0; I < 5; ++I)
    Raw += "X-H" + std::to_string(I) + ": v\r\n";
  EXPECT_EQ(Parser.consume(Raw + "\r\n"),
            HttpRequestParser::State::Failed);
  EXPECT_EQ(Parser.errorStatus(), 431);
}

TEST(ServeHttpParserTest, RejectsMalformedContentLength) {
  HttpRequestParser Parser;
  EXPECT_EQ(
      Parser.consume("POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
      HttpRequestParser::State::Failed);
  EXPECT_EQ(Parser.errorStatus(), 400);
}

TEST(ServeHttpParserTest, RejectsOversizedBody) {
  HttpLimits Limits;
  Limits.MaxBodyBytes = 16;
  HttpRequestParser Parser(Limits);
  EXPECT_EQ(
      Parser.consume("POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n"),
      HttpRequestParser::State::Failed);
  EXPECT_EQ(Parser.errorStatus(), 413);
}

TEST(ServeHttpParserTest, RejectsTransferEncoding) {
  HttpRequestParser Parser;
  EXPECT_EQ(Parser.consume("POST / HTTP/1.1\r\n"
                           "Transfer-Encoding: chunked\r\n\r\n"),
            HttpRequestParser::State::Failed);
  EXPECT_EQ(Parser.errorStatus(), 501);
}

TEST(ServeHttpParserTest, RejectsBytesBeyondTheDeclaredBody) {
  HttpRequestParser Parser;
  EXPECT_EQ(Parser.consume("POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                           "\r\nabEXTRA"),
            HttpRequestParser::State::Failed);
  EXPECT_EQ(Parser.errorStatus(), 400);
}

TEST(ServeHttpParserTest, FuzzedGarbageNeverEscapesTheStatusContract) {
  Rng Generator(0xF00D);
  const std::string Seed =
      "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
  for (int Round = 0; Round < 400; ++Round) {
    std::string Raw;
    if (Round % 2 == 0) {
      // Pure random bytes.
      const int Length = 1 + static_cast<int>(Generator.nextBelow(200));
      for (int I = 0; I < Length; ++I)
        Raw += static_cast<char>(Generator.nextBelow(256));
    } else {
      // A valid request with random corruptions.
      Raw = Seed;
      const int Edits = 1 + static_cast<int>(Generator.nextBelow(8));
      for (int I = 0; I < Edits; ++I)
        Raw[Generator.nextBelow(Raw.size())] =
            static_cast<char>(Generator.nextBelow(256));
    }
    HttpRequestParser Parser;
    // Feed in random-sized chunks; the parser must land in a defined
    // state and report a well-formed status when it fails.
    size_t At = 0;
    while (At < Raw.size() &&
           Parser.state() != HttpRequestParser::State::Failed &&
           Parser.state() != HttpRequestParser::State::Complete) {
      const size_t Chunk =
          std::min(Raw.size() - At, 1 + Generator.nextBelow(40));
      Parser.consume(std::string_view(Raw).substr(At, Chunk));
      At += Chunk;
    }
    if (Parser.state() == HttpRequestParser::State::Failed) {
      EXPECT_GE(Parser.errorStatus(), 400);
      EXPECT_LT(Parser.errorStatus(), 600);
    }
  }
}

//===----------------------------------------------------------------------===//
// Router
//===----------------------------------------------------------------------===//

TEST(ServeRouterTest, DispatchesLiteralAndParameterRoutes) {
  Router Routes;
  Routes.add("GET", "/v1/jobs",
             [](const HttpRequest &, const std::vector<std::string> &) {
               HttpResponse Out;
               Out.Body = "list";
               return Out;
             });
  Routes.add("POST", "/v1/models/:id/predict",
             [](const HttpRequest &,
                const std::vector<std::string> &Params) {
               HttpResponse Out;
               Out.Body = "predict:" + Params[0];
               return Out;
             });

  HttpRequest List;
  List.Method = "GET";
  List.Target = "/v1/jobs";
  EXPECT_EQ(Routes.dispatch(List).Body, "list");

  HttpRequest Predict;
  Predict.Method = "POST";
  Predict.Target = "/v1/models/job-7/predict?x=1";
  EXPECT_EQ(Routes.dispatch(Predict).Body, "predict:job-7");
}

TEST(ServeRouterTest, UnknownPathIs404) {
  Router Routes;
  Routes.add("GET", "/a",
             [](const HttpRequest &, const std::vector<std::string> &) {
               return HttpResponse();
             });
  HttpRequest Request;
  Request.Method = "GET";
  Request.Target = "/b";
  EXPECT_EQ(Routes.dispatch(Request).Status, 404);
}

TEST(ServeRouterTest, WrongMethodIs405WithAllow) {
  Router Routes;
  Routes.add("GET", "/thing",
             [](const HttpRequest &, const std::vector<std::string> &) {
               return HttpResponse();
             });
  Routes.add("DELETE", "/thing",
             [](const HttpRequest &, const std::vector<std::string> &) {
               return HttpResponse();
             });
  HttpRequest Request;
  Request.Method = "POST";
  Request.Target = "/thing";
  const HttpResponse Out = Routes.dispatch(Request);
  EXPECT_EQ(Out.Status, 405);
  bool SawAllow = false;
  for (const auto &[Name, Value] : Out.ExtraHeaders)
    if (Name == "Allow") {
      SawAllow = true;
      EXPECT_NE(Value.find("GET"), std::string::npos);
      EXPECT_NE(Value.find("DELETE"), std::string::npos);
    }
  EXPECT_TRUE(SawAllow);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(ServeMetricsTest, HistogramCountsSumAndQuantiles) {
  LatencyHistogram Histogram;
  EXPECT_EQ(Histogram.quantile(0.5), 0.0);
  for (int I = 0; I < 90; ++I)
    Histogram.record(0.002); // (0.001, 0.0025] bucket.
  for (int I = 0; I < 10; ++I)
    Histogram.record(0.2); // (0.1, 0.25] bucket.
  EXPECT_EQ(Histogram.count(), 100);
  EXPECT_NEAR(Histogram.sum(), 90 * 0.002 + 10 * 0.2, 1e-9);
  const double P50 = Histogram.quantile(0.5);
  EXPECT_GT(P50, 0.001);
  EXPECT_LE(P50, 0.0025);
  const double P99 = Histogram.quantile(0.99);
  EXPECT_GT(P99, 0.1);
  EXPECT_LE(P99, 0.25);
}

TEST(ServeMetricsTest, HistogramRendersPrometheusShape) {
  LatencyHistogram Histogram;
  Histogram.record(0.002);
  const std::string Text =
      Histogram.prometheus("x_seconds", "path=\"p\"");
  EXPECT_NE(Text.find("# TYPE x_seconds histogram\n"), std::string::npos);
  EXPECT_NE(Text.find("x_seconds_bucket{path=\"p\",le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("x_seconds_count{path=\"p\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("x_seconds_sum{path=\"p\"} "), std::string::npos);
}

TEST(ServeMetricsTest, CounterMapEmitsOneTypeLineAndEscapesLabels) {
  bool TypeEmitted = false;
  const std::string Text = prometheusCounterMap(
      "wootz_counter", "with\"quote",
      {{"cache.hit", 3}, {"tasks_done", 7}}, TypeEmitted);
  EXPECT_EQ(Text.find("# TYPE wootz_counter counter\n"), 0u);
  // Only one TYPE line even across two samples.
  EXPECT_EQ(Text.rfind("# TYPE"), 0u);
  EXPECT_NE(Text.find("scope=\"with\\\"quote\",name=\"cache.hit\"} 3"),
            std::string::npos);
  EXPECT_NE(Text.find("name=\"tasks_done\"} 7"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// HttpServer (socket level)
//===----------------------------------------------------------------------===//

TEST(ServeHttpServerTest, ServesARequestOverARealSocket) {
  HttpServerOptions Options;
  Options.Workers = 2;
  HttpServer Server(
      Options,
      [](const HttpRequest &Request) {
        HttpResponse Out;
        Out.Body = "echo:" + Request.path();
        return Out;
      },
      nullptr);
  Error Started = Server.start();
  ASSERT_FALSE(static_cast<bool>(Started)) << Started.message();
  ASSERT_GT(Server.port(), 0);

  Result<std::string> Response =
      rawRequest(Server.port(), makeRequest("GET", "/ping", ""));
  ASSERT_TRUE(static_cast<bool>(Response)) << Response.message();
  EXPECT_EQ(statusOf(*Response), 200);
  EXPECT_EQ(bodyOf(*Response), "echo:/ping");
  Server.finishDrain();
}

TEST(ServeHttpServerTest, MalformedRequestsGet4xxNotACrash) {
  HttpServerOptions Options;
  Options.Workers = 2;
  HttpServer Server(
      Options, [](const HttpRequest &) { return HttpResponse(); },
      nullptr);
  ASSERT_FALSE(static_cast<bool>(Server.start()));
  for (const std::string &Raw :
       {std::string("junk\r\n\r\n"),
        std::string("GET / HTTP/3.0\r\n\r\n"),
        std::string("POST / HTTP/1.1\r\nContent-Length: zap\r\n\r\n"),
        std::string("POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcd"),
        std::string("\r\n\r\n")}) {
    Result<std::string> Response = rawRequest(Server.port(), Raw);
    ASSERT_TRUE(static_cast<bool>(Response)) << Response.message();
    EXPECT_GE(statusOf(*Response), 400) << Raw;
    EXPECT_LT(statusOf(*Response), 600) << Raw;
  }
  Server.finishDrain();
}

TEST(ServeHttpServerTest, OverloadIsAnswered503) {
  std::promise<void> Release;
  std::shared_future<void> Released = Release.get_future().share();
  HttpServerOptions Options;
  Options.Workers = 2;
  Options.MaxQueuedConnections = 1;
  HttpServer Server(
      Options,
      [Released](const HttpRequest &) {
        Released.wait();
        return HttpResponse();
      },
      nullptr);
  ASSERT_FALSE(static_cast<bool>(Server.start()));

  std::thread Blocked([&] {
    Result<std::string> Response =
        rawRequest(Server.port(), makeRequest("GET", "/slow", ""));
    EXPECT_TRUE(static_cast<bool>(Response));
  });
  // Wait until the slow request is admitted, then hit the gate.
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (Server.queueDepth() < 1 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GE(Server.queueDepth(), 1u);

  Result<std::string> Overloaded =
      rawRequest(Server.port(), makeRequest("GET", "/fast", ""));

  // Join the helper before asserting so a failure can't return out of
  // the test body past a joinable thread (which would terminate()).
  Release.set_value();
  Blocked.join();

  ASSERT_TRUE(static_cast<bool>(Overloaded)) << Overloaded.message();
  EXPECT_EQ(statusOf(*Overloaded), 503);
  Server.finishDrain();
}

TEST(ServeHttpServerTest, DrainStopsAcceptingNewConnections) {
  HttpServerOptions Options;
  Options.Workers = 2;
  HttpServer Server(
      Options, [](const HttpRequest &) { return HttpResponse(); },
      nullptr);
  ASSERT_FALSE(static_cast<bool>(Server.start()));
  const int Port = Server.port();
  Server.beginDrain();
  // The listen socket is closed: a new connection is refused outright
  // (or, in the accept-race window, answered 503).
  Result<std::string> Response =
      rawRequest(Port, makeRequest("GET", "/late", ""));
  if (Response) {
    EXPECT_EQ(statusOf(*Response), 503);
  }
  Server.finishDrain();
  EXPECT_TRUE(Server.draining());
}

//===----------------------------------------------------------------------===//
// Batcher (needs a real trained network; built once, reused)
//===----------------------------------------------------------------------===//

struct BuiltModel {
  std::shared_ptr<AssembledNetwork> Network;
  int Channels = 3;
  int Height = 8;
  int Width = 8;
  int Classes = 4;
};

/// Trains one tiny pruned network through the pipeline (baseline mode,
/// KeepNetworks) exactly once for all batcher tests.
const BuiltModel &builtModel() {
  static const BuiltModel Model = [] {
    BuiltModel Out;
    Result<ModelSpec> Spec = makeStandardModel(StandardModel::ResNetA, 4);
    EXPECT_TRUE(static_cast<bool>(Spec)) << Spec.message();
    SyntheticSpec DataSpec;
    DataSpec.Classes = 4;
    DataSpec.TrainPerClass = 12;
    DataSpec.TestPerClass = 6;
    DataSpec.Seed = 29;
    const Dataset Data = generateSynthetic(DataSpec);
    TrainMeta Meta;
    Meta.FullModelSteps = 30;
    Meta.FinetuneSteps = 8;
    Meta.EvalEvery = 8;
    PruneConfig Config(Spec->moduleCount(), 0.0f);
    Config[0] = 0.5f;
    PipelineOptions Options;
    Options.KeepNetworks = true;
    Rng Generator(17);
    Result<PipelineResult> Run = runPruningPipeline(
        *Spec, Data, {Config}, Meta, Options, Generator);
    EXPECT_TRUE(static_cast<bool>(Run)) << Run.message();
    if (Run && !Run->Evaluations.empty())
      Out.Network = Run->Evaluations.front().Network;
    Out.Channels = Spec->InputChannels;
    Out.Height = Spec->InputHeight;
    Out.Width = Spec->InputWidth;
    return Out;
  }();
  return Model;
}

Tensor sampleInput(const BuiltModel &Model, float Fill) {
  Tensor Sample(
      Shape{1, Model.Channels, Model.Height, Model.Width});
  for (size_t I = 0; I < Sample.size(); ++I)
    Sample.data()[I] = Fill + 0.001f * static_cast<float>(I % 7);
  return Sample;
}

TEST(ServeBatcherTest, PredictsASingleSample) {
  const BuiltModel &Model = builtModel();
  ASSERT_TRUE(Model.Network);
  RunLog Log;
  Batcher Engine(Model.Network, BatcherOptions(), &Log, nullptr);
  const Tensor Sample = sampleInput(Model, 0.1f);
  Result<Prediction> Out = Engine.predict(Sample);
  ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
  EXPECT_EQ(Out->Logits.shape().rank(), 1);
  EXPECT_EQ(Out->Logits.shape()[0], Model.Classes);
  EXPECT_GE(Out->ArgMax, 0);
  EXPECT_LT(Out->ArgMax, Model.Classes);
  EXPECT_GE(Out->BatchSize, 1);
  Engine.stop();
  EXPECT_EQ(Log.counters().at("serve.predict.requests"), 1);
  EXPECT_EQ(Log.counters().at("serve.predict.batched_samples"), 1);
}

TEST(ServeBatcherTest, CoalescesConcurrentRequestsIntoSharedBatches) {
  const BuiltModel &Model = builtModel();
  ASSERT_TRUE(Model.Network);
  RunLog Log;
  LatencyHistogram Latency;
  BatcherOptions Options;
  Options.MaxBatch = 8;
  Options.MaxWaitMicros = 100000; // Generous: coalescing must win.
  Batcher Engine(Model.Network, Options, &Log, &Latency);

  constexpr int Threads = 6;
  std::vector<Tensor> Samples;
  for (int I = 0; I < Threads; ++I)
    Samples.push_back(sampleInput(Model, 0.05f * static_cast<float>(I)));
  std::atomic<int> MaxBatchSeen{0};
  std::vector<std::thread> Clients;
  for (int I = 0; I < Threads; ++I)
    Clients.emplace_back([&, I] {
      Result<Prediction> Out = Engine.predict(Samples[I]);
      ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
      int Seen = MaxBatchSeen.load();
      while (Out->BatchSize > Seen &&
             !MaxBatchSeen.compare_exchange_weak(Seen, Out->BatchSize)) {
      }
    });
  for (std::thread &Client : Clients)
    Client.join();
  Engine.stop();

  const std::map<std::string, int64_t> Counters = Log.counters();
  EXPECT_EQ(Counters.at("serve.predict.requests"), Threads);
  EXPECT_EQ(Counters.at("serve.predict.batched_samples"), Threads);
  // Every sample rode *some* batch; the latency histogram saw them all.
  EXPECT_EQ(Latency.count(), Threads);
  // Batches never exceed the cap, and at least one forward ran.
  EXPECT_LE(MaxBatchSeen.load(), Options.MaxBatch);
  EXPECT_GE(Counters.at("serve.predict.batches"), 1);
  EXPECT_LE(Counters.at("serve.predict.batches"),
            static_cast<int64_t>(Threads));
}

TEST(ServeBatcherTest, BatchedLogitsMatchSoloInference) {
  const BuiltModel &Model = builtModel();
  ASSERT_TRUE(Model.Network);
  const Tensor Sample = sampleInput(Model, 0.2f);

  Batcher Solo(Model.Network, BatcherOptions(), nullptr, nullptr);
  Result<Prediction> Alone = Solo.predict(Sample);
  ASSERT_TRUE(static_cast<bool>(Alone)) << Alone.message();
  Solo.stop();

  BatcherOptions Options;
  Options.MaxWaitMicros = 100000;
  Batcher Crowded(Model.Network, Options, nullptr, nullptr);
  const Tensor Other = sampleInput(Model, 0.9f);
  Result<Prediction> Together(Error::failure("unset"));
  std::thread Companion([&] {
    Result<Prediction> Ignored = Crowded.predict(Other);
    EXPECT_TRUE(static_cast<bool>(Ignored));
  });
  Together = Crowded.predict(Sample);
  Companion.join();
  Crowded.stop();
  ASSERT_TRUE(static_cast<bool>(Together)) << Together.message();
  // The linger makes the two requests share a forward; riding alone
  // would leave nothing to compare.
  EXPECT_GE(Together->BatchSize, 2);

  // Riding a batch must not change the answer.
  ASSERT_EQ(Together->Logits.size(), Alone->Logits.size());
  for (size_t I = 0; I < Alone->Logits.size(); ++I)
    EXPECT_NEAR(Together->Logits.data()[I], Alone->Logits.data()[I],
                1e-4f)
        << "logit " << I;
  EXPECT_EQ(Together->ArgMax, Alone->ArgMax);
}

TEST(ServeBatcherTest, PlanBackedBatcherMatchesInterpreter) {
  const BuiltModel &Model = builtModel();
  ASSERT_TRUE(Model.Network);
  const Tensor Sample = sampleInput(Model, 0.3f);

  Batcher Interpreted(Model.Network, BatcherOptions(), nullptr, nullptr);
  Result<Prediction> Reference = Interpreted.predict(Sample);
  ASSERT_TRUE(static_cast<bool>(Reference)) << Reference.message();
  Interpreted.stop();

  Result<ExecPlan> Compiled = ExecPlan::compile(
      Model.Network->Network, Model.Network->InputNode,
      Model.Network->LogitsNode, Model.Channels, Model.Height,
      Model.Width);
  ASSERT_TRUE(static_cast<bool>(Compiled)) << Compiled.message();
  auto Plan = std::make_shared<const ExecPlan>(Compiled.take());

  RunLog Log;
  Batcher Planned(Model.Network, BatcherOptions(), &Log, nullptr, Plan);
  Result<Prediction> Out = Planned.predict(Sample);
  ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();

  // A mismatched sample shape must fail that request cleanly, not abort
  // the worker or poison the plan context.
  Tensor Wrong(Shape{1, Model.Channels, Model.Height + 1, Model.Width});
  for (size_t I = 0; I < Wrong.size(); ++I)
    Wrong.data()[I] = 0.3f;
  Result<Prediction> Rejected = Planned.predict(Wrong);
  EXPECT_FALSE(static_cast<bool>(Rejected));
  EXPECT_NE(Rejected.message().find("compiled plan"), std::string::npos);
  Planned.stop();

  // Folding batch norms into convolutions reassociates float math, so
  // the engines agree to 1e-4 rather than bit-for-bit.
  ASSERT_EQ(Out->Logits.size(), Reference->Logits.size());
  for (size_t I = 0; I < Reference->Logits.size(); ++I)
    EXPECT_NEAR(Out->Logits.data()[I], Reference->Logits.data()[I], 1e-4f)
        << "logit " << I;
  EXPECT_EQ(Out->ArgMax, Reference->ArgMax);
  EXPECT_GE(Log.counters().at("serve.predict.plan_batches"), 1);
}

TEST(ServeBatcherTest, RegistryCompilesPlansWhenEnabled) {
  const BuiltModel &Model = builtModel();
  ASSERT_TRUE(Model.Network);
  RunLog Log;
  BatcherOptions Options;
  Options.UsePlans = true;
  ModelRegistry Registry(Options, &Log, nullptr);
  ASSERT_FALSE(static_cast<bool>(Registry.add(
      "frozen", Model.Network, Model.Channels, Model.Height, Model.Width,
      Model.Classes, "test")));

  ServableModel *Servable = Registry.find("frozen");
  ASSERT_NE(Servable, nullptr);
  EXPECT_NE(Servable->Plan, nullptr);
  EXPECT_EQ(Log.counters().at("serve.models.plans_compiled"), 1);

  const Tensor Sample = sampleInput(Model, 0.4f);
  Result<Prediction> Out = Servable->Engine->predict(Sample);
  ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
  EXPECT_EQ(Out->Logits.shape().rank(), 1);
  EXPECT_EQ(Out->Logits.shape()[0], Model.Classes);
  Registry.stopAll();
  EXPECT_GE(Log.counters().at("serve.predict.plan_batches"), 1);
}

TEST(ServeBatcherPoolTest, ConcurrentWorkersAreBitIdenticalToSolo) {
  const BuiltModel &Model = builtModel();
  ASSERT_TRUE(Model.Network);
  constexpr int Requests = 8;
  std::vector<Tensor> Samples;
  for (int I = 0; I < Requests; ++I)
    Samples.push_back(sampleInput(Model, 0.07f * static_cast<float>(I)));

  // Reference: one forward slot, batch-of-one — every sample forwards
  // alone, strictly serially.
  std::vector<Tensor> Reference(Requests);
  {
    BatcherOptions Solo;
    Solo.MaxBatch = 1;
    Solo.Workers = 1;
    Batcher Engine(Model.Network, Solo, nullptr, nullptr);
    for (int I = 0; I < Requests; ++I) {
      Result<Prediction> Out = Engine.predict(Samples[I]);
      ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
      Reference[I] = std::move(Out->Logits);
    }
    Engine.stop();
  }

  // Pool: four forward slots, still batch-of-one, every request in
  // flight at once. Concurrent forwards over the one shared Graph run
  // through private per-forward contexts, so each answer must reproduce
  // the serial logits bit for bit.
  BatcherOptions Pooled;
  Pooled.MaxBatch = 1;
  Pooled.Workers = 4;
  RunLog Log;
  Batcher Engine(Model.Network, Pooled, &Log, nullptr);
  std::vector<Tensor> Got(Requests);
  std::vector<std::string> Errors(Requests);
  std::vector<std::thread> Clients;
  for (int I = 0; I < Requests; ++I)
    Clients.emplace_back([&, I] {
      Result<Prediction> Out = Engine.predict(Samples[I]);
      if (!Out) {
        Errors[I] = Out.message();
        return;
      }
      Got[I] = std::move(Out->Logits);
    });
  for (std::thread &Client : Clients)
    Client.join();
  Engine.stop();

  for (int I = 0; I < Requests; ++I) {
    ASSERT_TRUE(Errors[I].empty()) << Errors[I];
    ASSERT_EQ(Got[I].size(), Reference[I].size());
    for (size_t K = 0; K < Reference[I].size(); ++K)
      EXPECT_EQ(Got[I].data()[K], Reference[I].data()[K])
          << "request " << I << " logit " << K;
  }
  EXPECT_EQ(Log.counters().at("serve.predict.batched_samples"), Requests);
}

TEST(ServeBatcherPoolTest, CoalescedPoolMatchesSoloInference) {
  const BuiltModel &Model = builtModel();
  ASSERT_TRUE(Model.Network);
  constexpr int Requests = 6;
  std::vector<Tensor> Samples;
  for (int I = 0; I < Requests; ++I)
    Samples.push_back(sampleInput(Model, 0.11f * static_cast<float>(I)));

  std::vector<Tensor> Reference(Requests);
  {
    BatcherOptions Solo;
    Solo.MaxBatch = 1;
    Solo.Workers = 1;
    Batcher Engine(Model.Network, Solo, nullptr, nullptr);
    for (int I = 0; I < Requests; ++I) {
      Result<Prediction> Out = Engine.predict(Samples[I]);
      ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
      Reference[I] = std::move(Out->Logits);
    }
    Engine.stop();
  }

  // Two forward slots with real coalescing: requests ride shared batches
  // cut by whichever leader wins the queue. Riding a batch through the
  // pool must not change any answer.
  BatcherOptions Pooled;
  Pooled.MaxBatch = 4;
  Pooled.Workers = 2;
  Pooled.MaxWaitMicros = 50000;
  Batcher Engine(Model.Network, Pooled, nullptr, nullptr);
  std::vector<Tensor> Got(Requests);
  std::vector<int> Sizes(Requests, 0);
  std::vector<std::string> Errors(Requests);
  std::vector<std::thread> Clients;
  for (int I = 0; I < Requests; ++I)
    Clients.emplace_back([&, I] {
      Result<Prediction> Out = Engine.predict(Samples[I]);
      if (!Out) {
        Errors[I] = Out.message();
        return;
      }
      Got[I] = std::move(Out->Logits);
      Sizes[I] = Out->BatchSize;
    });
  for (std::thread &Client : Clients)
    Client.join();
  Engine.stop();

  for (int I = 0; I < Requests; ++I) {
    ASSERT_TRUE(Errors[I].empty()) << Errors[I];
    ASSERT_EQ(Got[I].size(), Reference[I].size());
    for (size_t K = 0; K < Reference[I].size(); ++K)
      EXPECT_NEAR(Got[I].data()[K], Reference[I].data()[K], 1e-4f)
          << "request " << I << " logit " << K;
  }
  // Six requests over two slots with a lingering leader: some answers
  // must come from a shared batch, or the comparison above is solo
  // against solo.
  EXPECT_GE(*std::max_element(Sizes.begin(), Sizes.end()), 2);
}

TEST(ServeBatcherTest, StopFailsFurtherPredictions) {
  const BuiltModel &Model = builtModel();
  ASSERT_TRUE(Model.Network);
  Batcher Engine(Model.Network, BatcherOptions(), nullptr, nullptr);
  Engine.stop();
  const Tensor Sample = sampleInput(Model, 0.3f);
  Result<Prediction> Out = Engine.predict(Sample);
  ASSERT_FALSE(static_cast<bool>(Out));
  EXPECT_NE(Out.message().find("draining"), std::string::npos);
}

TEST(ServeBatcherTest, LonePredictRunsAloneByDefault) {
  // No companion timer by default: a lone request is its own batch.
  EXPECT_EQ(BatcherOptions().MaxWaitMicros, 0);
  const BuiltModel &Model = builtModel();
  ASSERT_TRUE(Model.Network);
  Batcher Engine(Model.Network, BatcherOptions(), nullptr, nullptr);
  Result<Prediction> Out = Engine.predict(sampleInput(Model, 0.6f));
  ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
  EXPECT_EQ(Out->BatchSize, 1);
}

/// A logits layer that blocks every forward until the test opens it, so
/// a test can hold a forward in flight for as long as it needs.
struct ForwardGate {
  std::mutex Mutex;
  std::condition_variable Changed;
  int Entered = 0;
  std::vector<int> BatchSizes; ///< Per forward, in entry order.
  bool Open = false;

  void waitEntered(int Count) {
    std::unique_lock<std::mutex> Lock(Mutex);
    Changed.wait(Lock, [&] { return Entered >= Count; });
  }
  void open() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Open = true;
    Changed.notify_all();
  }
};

class GateLayer : public Layer {
public:
  explicit GateLayer(std::shared_ptr<ForwardGate> Gate)
      : Gate(std::move(Gate)) {}
  std::string kind() const override { return "gate"; }
  Shape outputShape(const std::vector<Shape> &In) const override {
    return Shape{In[0][0], 2};
  }
  void forward(const std::vector<const Tensor *> &Inputs, Tensor &Out,
               LayerScratch &, bool) const override {
    {
      std::unique_lock<std::mutex> Lock(Gate->Mutex);
      ++Gate->Entered;
      Gate->BatchSizes.push_back(Inputs[0]->shape()[0]);
      Gate->Changed.notify_all();
      Gate->Changed.wait(Lock, [&] { return Gate->Open; });
    }
    // Logit row i is (x_i, -x_i), x_i the sample's first value.
    const size_t SampleSize = Inputs[0]->size() / Out.shape()[0];
    for (int I = 0; I < Out.shape()[0]; ++I) {
      const float X = Inputs[0]->data()[I * SampleSize];
      Out.data()[2 * I] = X;
      Out.data()[2 * I + 1] = -X;
    }
  }
  void backward(const std::vector<const Tensor *> &, const Tensor &,
                const Tensor &, LayerScratch &,
                const std::vector<Tensor *> &) override {}

private:
  std::shared_ptr<ForwardGate> Gate;
};

std::shared_ptr<AssembledNetwork>
gatedNetwork(std::shared_ptr<ForwardGate> Gate) {
  auto Net = std::make_shared<AssembledNetwork>();
  Net->Network.addInput("in");
  Net->Network.addNode("logits", std::make_unique<GateLayer>(Gate), {"in"});
  Net->InputNode = "in";
  Net->LogitsNode = "logits";
  return Net;
}

Tensor gatedSample(float First) {
  Tensor Sample(Shape{1, 1, 2, 2});
  Sample.data()[0] = First;
  return Sample;
}

TEST(ServeBatcherTest, StopWaitsForInFlightForwardAndFailsQueued) {
  auto Gate = std::make_shared<ForwardGate>();
  BatcherOptions Options;
  Options.Workers = 1;
  Options.MaxBatch = 1;
  Batcher Engine(gatedNetwork(Gate), Options, nullptr, nullptr);

  const Tensor First = gatedSample(0.5f);
  auto Running = std::async(std::launch::async,
                            [&] { return Engine.predict(First); });
  Gate->waitEntered(1);

  // The only slot is busy, so these queue behind the gated forward.
  const Tensor Second = gatedSample(1.0f), Third = gatedSample(2.0f);
  auto QueuedA = std::async(std::launch::async,
                            [&] { return Engine.predict(Second); });
  auto QueuedB = std::async(std::launch::async,
                            [&] { return Engine.predict(Third); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::atomic<bool> Stopped{false};
  std::thread Stopper([&] {
    Engine.stop();
    Stopped.store(true);
  });
  // Queued samples fail at once, while the forward is still running...
  for (auto *Queued : {&QueuedA, &QueuedB}) {
    ASSERT_EQ(Queued->wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    Result<Prediction> Out = Queued->get();
    ASSERT_FALSE(static_cast<bool>(Out));
    EXPECT_EQ(Out.message(), "model is draining");
  }
  // ...but stop() returns only once that forward is done.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(Stopped.load());
  Gate->open();
  Stopper.join();
  EXPECT_TRUE(Stopped.load());

  Result<Prediction> Finished = Running.get();
  ASSERT_TRUE(static_cast<bool>(Finished)) << Finished.message();
  ASSERT_EQ(Finished->Logits.size(), 2u);
  EXPECT_EQ(Finished->Logits.data()[0], 0.5f);
  EXPECT_EQ(Finished->ArgMax, 0);
  EXPECT_EQ(Gate->Entered, 1);
}

TEST(ServeBatcherTest, RequestsQueuedBehindABusySlotShareTheNextBatch) {
  auto Gate = std::make_shared<ForwardGate>();
  BatcherOptions Options;
  Options.Workers = 1;
  Batcher Engine(gatedNetwork(Gate), Options, nullptr, nullptr);

  const Tensor First = gatedSample(0.0f);
  auto Leader = std::async(std::launch::async,
                           [&] { return Engine.predict(First); });
  Gate->waitEntered(1);

  // No timer: these batch only because the slot is busy while they
  // arrive.
  constexpr int Followers = 3;
  std::vector<Tensor> Samples;
  for (int I = 0; I < Followers; ++I)
    Samples.push_back(gatedSample(static_cast<float>(I + 1)));
  std::vector<std::future<Result<Prediction>>> Queued;
  for (int I = 0; I < Followers; ++I)
    Queued.push_back(std::async(std::launch::async, [&, I] {
      return Engine.predict(Samples[I]);
    }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Gate->open();

  ASSERT_TRUE(static_cast<bool>(Leader.get()));
  for (int I = 0; I < Followers; ++I) {
    Result<Prediction> Out = Queued[I].get();
    ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
    EXPECT_EQ(Out->Logits.data()[0], static_cast<float>(I + 1));
    EXPECT_EQ(Out->BatchSize, Followers);
  }
  Engine.stop();
  EXPECT_EQ(Gate->BatchSizes, (std::vector<int>{1, Followers}));
}

//===----------------------------------------------------------------------===//
// JobManager
//===----------------------------------------------------------------------===//

TEST(ServeJobManagerTest, RejectsMalformedSubmissions) {
  JobManager Manager(JobManagerOptions(), nullptr, nullptr);

  auto Missing = tinyJobBody();
  Missing.erase("objective");
  EXPECT_EQ(Manager.submit(Missing).Status, 400);

  auto BadModel = tinyJobBody();
  BadModel["model"] = "layer { title garbage";
  EXPECT_EQ(Manager.submit(BadModel).Status, 400);

  auto BadSchedule = tinyJobBody();
  BadSchedule["schedule"] = "sometimes";
  EXPECT_EQ(Manager.submit(BadSchedule).Status, 400);

  auto BadWorkers = tinyJobBody();
  BadWorkers["workers"] = "-3";
  EXPECT_EQ(Manager.submit(BadWorkers).Status, 400);

  // Distillation composes with every schedule now (each fine-tune gives
  // the shared teacher a private execution context), so overlap +
  // distill_alpha is legal; only an out-of-range weight is malformed.
  auto BadAlpha = tinyJobBody();
  BadAlpha["distill_alpha"] = "1.5";
  EXPECT_EQ(Manager.submit(BadAlpha).Status, 400);

  auto WrongWidth = tinyJobBody();
  // Parses fine but has too few rates for the model's module count.
  WrongWidth["subspace"] = printSubspaceSpec({PruneConfig(2, 0.5f)});
  const SubmitOutcome Outcome = Manager.submit(WrongWidth);
  EXPECT_EQ(Outcome.Status, 400);
  EXPECT_NE(Outcome.Error.find("modules"), std::string::npos);
}

TEST(ServeJobManagerTest, RunsAJobToDoneAndRegistersTheWinner) {
  ScratchDir Scratch("wootz_serve_jobmanager");
  RunLog Log;
  ModelRegistry Registry(BatcherOptions(), &Log, nullptr);
  JobManagerOptions Options;
  Options.BlockCacheDir = Scratch.str() + "/blocks";
  Options.ArtifactDir = Scratch.str() + "/artifacts";
  JobManager Manager(Options, &Registry, &Log);

  const SubmitOutcome Submitted = Manager.submit(tinyJobBody());
  ASSERT_EQ(Submitted.Status, 202) << Submitted.Error;
  ASSERT_FALSE(Submitted.Id.empty());

  EXPECT_EQ(waitForTerminal(Manager, Submitted.Id), "done");
  Result<std::string> Status = Manager.statusJson(Submitted.Id);
  ASSERT_TRUE(static_cast<bool>(Status));
  // The status JSON carries the result block and live counters.
  EXPECT_NE(Status->find("\"winner_accuracy\""), std::string::npos);
  EXPECT_NE(Status->find("\"counters\":{"), std::string::npos);
  EXPECT_NE(Status->find("tasks_done"), std::string::npos);
  EXPECT_NE(Status->find("\"model\":\"" + Submitted.Id + "\""),
            std::string::npos);

  // The winner is servable.
  ServableModel *Model = Registry.find(Submitted.Id);
  ASSERT_NE(Model, nullptr);
  Tensor Sample(Shape{1, Model->Channels, Model->Height, Model->Width});
  for (size_t I = 0; I < Sample.size(); ++I)
    Sample.data()[I] = 0.1f;
  Result<Prediction> Out = Model->Engine->predict(Sample);
  ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
  EXPECT_LT(Out->ArgMax, Model->Classes);

  // Artifacts landed under the job's directory.
  EXPECT_TRUE(fs::exists(Options.ArtifactDir + "/" + Submitted.Id +
                         "/result.json"));
  EXPECT_TRUE(fs::exists(Options.ArtifactDir + "/" + Submitted.Id +
                         "/telemetry.jsonl"));

  // The submit/complete counters reached the server log.
  EXPECT_EQ(Log.counters().at("serve.jobs.submitted"), 1);
  EXPECT_EQ(Log.counters().at("serve.jobs.completed"), 1);

  Manager.drain();
  Registry.stopAll();
}

TEST(ServeJobManagerTest, QueueBackpressureAnswers429) {
  JobManagerOptions Options;
  Options.Workers = 1;
  Options.MaxQueuedJobs = 1;
  JobManager Manager(Options, nullptr, nullptr);

  // A: slow enough to hold the single worker while we probe the queue.
  const SubmitOutcome A = Manager.submit(tinyJobBody(300));
  ASSERT_EQ(A.Status, 202) << A.Error;
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Manager.runningCount() < 1 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(Manager.runningCount(), 1u);

  const SubmitOutcome B = Manager.submit(tinyJobBody()); // Fills the queue.
  ASSERT_EQ(B.Status, 202) << B.Error;
  const SubmitOutcome C = Manager.submit(tinyJobBody()); // Over the cap.
  EXPECT_EQ(C.Status, 429);
  EXPECT_NE(C.Error.find("queue"), std::string::npos);

  // Cancel everything so teardown is quick; the queued job dies
  // immediately, the running one at its next task boundary.
  Result<std::string> CancelledB = Manager.cancel(B.Id);
  ASSERT_TRUE(static_cast<bool>(CancelledB));
  EXPECT_EQ(*CancelledB, "cancelled");
  Result<std::string> CancelledA = Manager.cancel(A.Id);
  ASSERT_TRUE(static_cast<bool>(CancelledA));
  EXPECT_EQ(waitForTerminal(Manager, A.Id), "cancelled");
  Manager.drain();
}

TEST(ServeJobManagerTest, DrainRunsEveryAcceptedJobToATerminalState) {
  JobManagerOptions Options;
  Options.Workers = 1;
  JobManager Manager(Options, nullptr, nullptr);
  const SubmitOutcome A = Manager.submit(tinyJobBody());
  const SubmitOutcome B = Manager.submit(tinyJobBody());
  ASSERT_EQ(A.Status, 202);
  ASSERT_EQ(B.Status, 202);

  Manager.drain();
  const std::map<std::string, int64_t> States = Manager.stateCounts();
  EXPECT_EQ(States.count("queued"), 0u);
  EXPECT_EQ(States.count("running"), 0u);
  int64_t Terminal = 0;
  for (const auto &[State, Count] : States)
    Terminal += Count;
  EXPECT_EQ(Terminal, 2);

  // Draining managers refuse new work with 503.
  EXPECT_EQ(Manager.submit(tinyJobBody()).Status, 503);
}

TEST(ServeJobManagerTest, CancellingAnUnknownJobErrors) {
  JobManager Manager(JobManagerOptions(), nullptr, nullptr);
  Result<std::string> Out = Manager.cancel("job-999");
  EXPECT_FALSE(static_cast<bool>(Out));
}

//===----------------------------------------------------------------------===//
// End-to-end daemon
//===----------------------------------------------------------------------===//

TEST(ServeEndToEndTest, JobSubmissionPredictionAndMetricsOverHttp) {
  ScratchDir Scratch("wootz_serve_e2e");
  ServerOptions Options;
  Options.Http.Workers = 4;
  Options.Jobs.BlockCacheDir = Scratch.str() + "/blocks";
  Options.Jobs.ArtifactDir = Scratch.str() + "/artifacts";
  WootzServer Server(Options);
  Error Started = Server.start();
  ASSERT_FALSE(static_cast<bool>(Started)) << Started.message();
  const int Port = Server.port();

  // Submit.
  Result<std::string> Accepted = rawRequest(
      Port, makeRequest("POST", "/v1/jobs", tinyJobJson()));
  ASSERT_TRUE(static_cast<bool>(Accepted)) << Accepted.message();
  ASSERT_EQ(statusOf(*Accepted), 202) << *Accepted;
  const std::string AcceptedBody = bodyOf(*Accepted);
  const size_t IdAt = AcceptedBody.find("\"id\":\"");
  ASSERT_NE(IdAt, std::string::npos);
  const std::string Id = AcceptedBody.substr(
      IdAt + 6, AcceptedBody.find('"', IdAt + 6) - (IdAt + 6));

  // Poll over HTTP until done.
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  std::string State;
  while (std::chrono::steady_clock::now() < Deadline) {
    Result<std::string> Status =
        rawRequest(Port, makeRequest("GET", "/v1/jobs/" + Id, ""));
    ASSERT_TRUE(static_cast<bool>(Status)) << Status.message();
    ASSERT_EQ(statusOf(*Status), 200);
    const std::string Body = bodyOf(*Status);
    const size_t StateAt = Body.find("\"state\":\"");
    ASSERT_NE(StateAt, std::string::npos);
    State = Body.substr(StateAt + 9,
                        Body.find('"', StateAt + 9) - (StateAt + 9));
    if (State == "done" || State == "failed" || State == "cancelled")
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(State, "done");

  // The winner is listed and servable.
  Result<std::string> Models =
      rawRequest(Port, makeRequest("GET", "/v1/models", ""));
  ASSERT_TRUE(static_cast<bool>(Models));
  EXPECT_NE(bodyOf(*Models).find("\"id\":\"" + Id + "\""),
            std::string::npos);

  Result<ModelSpec> Spec = parseModelSpec(tinyModelText());
  std::string Input;
  const int Count =
      Spec->InputChannels * Spec->InputHeight * Spec->InputWidth;
  for (int I = 0; I < Count; ++I)
    Input += (I ? " " : "") + formatDouble(0.01 * (I % 11), 3);
  JsonObject PredictBody;
  PredictBody.field("input", Input);
  Result<std::string> Predicted = rawRequest(
      Port, makeRequest("POST", "/v1/models/" + Id + "/predict",
                        PredictBody.str()));
  ASSERT_TRUE(static_cast<bool>(Predicted)) << Predicted.message();
  ASSERT_EQ(statusOf(*Predicted), 200) << *Predicted;
  EXPECT_NE(bodyOf(*Predicted).find("\"argmax\":"), std::string::npos);
  EXPECT_NE(bodyOf(*Predicted).find("\"logits\":["), std::string::npos);

  // Wrong-sized input is a 400, not a crash.
  JsonObject ShortBody;
  ShortBody.field("input", "0.5 0.5");
  Result<std::string> Rejected = rawRequest(
      Port, makeRequest("POST", "/v1/models/" + Id + "/predict",
                        ShortBody.str()));
  ASSERT_TRUE(static_cast<bool>(Rejected));
  EXPECT_EQ(statusOf(*Rejected), 400);

  // /metrics exposes the job's pipeline counters (cache.*, tasks_*),
  // the server gauges, and the latency series.
  Result<std::string> Metrics =
      rawRequest(Port, makeRequest("GET", "/metrics", ""));
  ASSERT_TRUE(static_cast<bool>(Metrics));
  const std::string Text = bodyOf(*Metrics);
  EXPECT_NE(Text.find("wootz_counter{scope=\"jobs\",name=\"cache."),
            std::string::npos);
  EXPECT_NE(Text.find("wootz_counter{scope=\"jobs\",name=\"tasks_done\""),
            std::string::npos);
  EXPECT_NE(Text.find("wootz_counter{scope=\"server\",name=\"http."),
            std::string::npos);
  EXPECT_NE(Text.find("wootz_jobs_state{state=\"done\"} 1"),
            std::string::npos);
  EXPECT_NE(Text.find("wootz_request_latency_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(Text.find("wootz_predict_latency_seconds_bucket{"
                      "path=\"predict\""),
            std::string::npos);
  EXPECT_NE(Text.find("wootz_latency_quantile_seconds{path=\"predict\","
                      "q=\"0.50\"}"),
            std::string::npos);

  Server.drain();
}

TEST(ServeEndToEndTest, ApiErrorsAreWellFormed) {
  WootzServer Server(ServerOptions{});
  ASSERT_FALSE(static_cast<bool>(Server.start()));
  const int Port = Server.port();

  struct Case {
    std::string Request;
    int Status;
  };
  const std::vector<Case> Cases = {
      {makeRequest("GET", "/nope", ""), 404},
      {makeRequest("PUT", "/v1/jobs", ""), 405},
      {makeRequest("GET", "/v1/jobs/job-42", ""), 404},
      {makeRequest("DELETE", "/v1/jobs/job-42", ""), 404},
      {makeRequest("POST", "/v1/models/ghost/predict", "{}"), 404},
      {makeRequest("POST", "/v1/jobs", "this is not json"), 400},
      {makeRequest("POST", "/v1/jobs", "{\"model\":\"x\"}"), 400},
      {"gibberish\r\n\r\n", 400},
  };
  for (const Case &C : Cases) {
    Result<std::string> Response = rawRequest(Port, C.Request);
    ASSERT_TRUE(static_cast<bool>(Response)) << Response.message();
    EXPECT_EQ(statusOf(*Response), C.Status) << C.Request;
    // Every error body is JSON with an "error" key.
    EXPECT_NE(bodyOf(*Response).find("\"error\":"), std::string::npos)
        << C.Request;
  }
  Server.drain();
}

TEST(ServeEndToEndTest, ConcurrentMixedClientSoak) {
  WootzServer Server(ServerOptions{});
  ASSERT_FALSE(static_cast<bool>(Server.start()));
  const int Port = Server.port();

  constexpr int Clients = 10;
  constexpr int RequestsPerClient = 6;
  std::atomic<int> Answered{0};
  std::atomic<int> Malformed{0};
  std::vector<std::thread> Threads;
  for (int Client = 0; Client < Clients; ++Client)
    Threads.emplace_back([&, Client] {
      for (int I = 0; I < RequestsPerClient; ++I) {
        std::string Raw;
        switch ((Client + I) % 5) {
        case 0:
          Raw = makeRequest("GET", "/healthz", "");
          break;
        case 1:
          Raw = makeRequest("GET", "/metrics", "");
          break;
        case 2:
          Raw = makeRequest("GET", "/v1/jobs", "");
          break;
        case 3:
          Raw = makeRequest("GET", "/definitely/not/там", "");
          break;
        default:
          Raw = "x43 GARBAGE !!\r\n\r\n";
        }
        Result<std::string> Response = rawRequest(Port, Raw);
        ASSERT_TRUE(static_cast<bool>(Response)) << Response.message();
        const int Status = statusOf(*Response);
        // Every connection gets a well-formed HTTP answer: success,
        // a definite client error, or explicit backpressure — never
        // a dropped connection or a mangled response.
        if (Status >= 200 && Status < 600)
          ++Answered;
        else
          ++Malformed;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Answered.load(), Clients * RequestsPerClient);
  EXPECT_EQ(Malformed.load(), 0);

  // The server survived: it still answers and counted the traffic.
  Result<std::string> Health =
      rawRequest(Port, makeRequest("GET", "/healthz", ""));
  ASSERT_TRUE(static_cast<bool>(Health));
  EXPECT_EQ(statusOf(*Health), 200);
  // http.accepted counts every admitted connection, parsed or not (the
  // garbage requests land in http.malformed rather than http.requests).
  EXPECT_GE(Server.log().counters().at("http.accepted"),
            static_cast<int64_t>(Clients * RequestsPerClient));
  Server.drain();
}

TEST(ServeEndToEndTest, GracefulDrainFinishesAcceptedJobs) {
  ServerOptions Options;
  WootzServer Server(Options);
  ASSERT_FALSE(static_cast<bool>(Server.start()));
  const int Port = Server.port();

  Result<std::string> Accepted = rawRequest(
      Port, makeRequest("POST", "/v1/jobs", tinyJobJson()));
  ASSERT_TRUE(static_cast<bool>(Accepted));
  ASSERT_EQ(statusOf(*Accepted), 202);

  // Drain immediately: the accepted job must still run to completion.
  Server.drain();
  const std::map<std::string, int64_t> States =
      Server.jobs().stateCounts();
  EXPECT_EQ(States.count("queued"), 0u);
  EXPECT_EQ(States.count("running"), 0u);
  ASSERT_NE(States.count("done"), 0u);
  EXPECT_EQ(States.at("done"), 1);

  // After drain the port no longer accepts work.
  Result<std::string> Refused =
      rawRequest(Port, makeRequest("GET", "/healthz", ""));
  if (Refused) {
    EXPECT_EQ(statusOf(*Refused), 503);
  }

  // Idempotent.
  Server.drain();
}

//===----------------------------------------------------------------------===//
// Model upload: ModelStore and the /v1/models ingestion API
//===----------------------------------------------------------------------===//

/// Registry + store pair over a scratch directory.
struct StoreHarness {
  RunLog Log;
  ModelRegistry Registry;
  ModelStore Store;

  explicit StoreHarness(const std::string &Dir,
                        ModelStoreOptions Options = ModelStoreOptions())
      : Registry(BatcherOptions(), &Log, nullptr),
        Store(
            [&] {
              Options.Dir = Dir;
              return Options;
            }(),
            &Registry, &Log) {}
  ~StoreHarness() { Registry.stopAll(); }

  int64_t counter(const std::string &Name) const {
    const auto Counters = Log.counters();
    const auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }
};

/// Deterministic input for the tiny model.
Tensor uploadSampleInput() {
  Result<ModelSpec> Spec = parseModelSpec(tinyModelText());
  Tensor Sample(Shape{1, Spec->InputChannels, Spec->InputHeight,
                      Spec->InputWidth});
  for (size_t I = 0; I < Sample.size(); ++I)
    Sample.data()[I] = 0.01f * static_cast<float>(I % 13) - 0.05f;
  return Sample;
}

/// Logits of registered model \p Id on \p Sample.
Tensor predictLogits(ModelRegistry &Registry, const std::string &Id,
                     const Tensor &Sample) {
  ServableModel *Model = Registry.find(Id);
  EXPECT_NE(Model, nullptr) << Id;
  if (!Model)
    return Tensor();
  Result<Prediction> Out = Model->Engine->predict(Sample);
  EXPECT_TRUE(static_cast<bool>(Out)) << Out.message();
  return Out ? Out->Logits : Tensor();
}

TEST(ServeModelStoreTest, UploadRegistersAndServes) {
  ScratchDir Scratch("wootz_store_basic");
  StoreHarness Harness(Scratch.str());
  const UploadOutcome Out = Harness.Store.upload(
      {{"model", tinyModelText()}, {"id", "demo"}});
  ASSERT_EQ(Out.Status, 201) << Out.Error;
  EXPECT_EQ(Out.Id, "demo");
  EXPECT_TRUE(Harness.Store.has("demo"));
  EXPECT_EQ(Harness.Store.count(), 1u);
  EXPECT_EQ(Harness.counter("serve.models.uploaded"), 1);

  ServableModel *Model = Harness.Registry.find("demo");
  ASSERT_NE(Model, nullptr);
  EXPECT_EQ(Model->Origin, "uploaded (random init)");
  const Tensor Logits =
      predictLogits(Harness.Registry, "demo", uploadSampleInput());
  ASSERT_EQ(Logits.shape().rank(), 1);
  Result<ModelSpec> Spec = parseModelSpec(tinyModelText());
  EXPECT_EQ(Logits.shape()[0], Spec->Layers.back().NumOutput);

  // The stored Prototxt round-trips for job targeting.
  Result<std::string> Stored = Harness.Store.prototxtFor("demo");
  ASSERT_TRUE(static_cast<bool>(Stored)) << Stored.message();
  EXPECT_EQ(*Stored, tinyModelText());
}

TEST(ServeModelStoreTest, ImportedWeightsReproduceSourceLogits) {
  ScratchDir Scratch("wootz_store_weights");
  StoreHarness Harness(Scratch.str());

  // A reference upload built with seed 123, and a weight bundle exported
  // from an identical local build.
  Result<ModelSpec> Spec = parseModelSpec(tinyModelText());
  ASSERT_TRUE(static_cast<bool>(Spec)) << Spec.message();
  Result<BuiltNetwork> Source = buildFullNetwork(*Spec, 123);
  ASSERT_TRUE(static_cast<bool>(Source)) << Source.message();
  const std::string Bundle = serializeTensors(
      exportWeights(Source->Network, FullNetworkPrefix));

  ASSERT_EQ(Harness.Store
                .upload({{"model", tinyModelText()},
                         {"id", "reference"},
                         {"seed", "123"}})
                .Status,
            201);
  // The import path uses a different seed, so matching logits can only
  // come from the imported bundle, not from a lucky initialization.
  const UploadOutcome Imported = Harness.Store.upload(
      {{"model", tinyModelText()},
       {"id", "imported"},
       {"seed", "7"},
       {"weights_b64", base64Encode(Bundle)}});
  ASSERT_EQ(Imported.Status, 201) << Imported.Error;
  EXPECT_EQ(Harness.Registry.find("imported")->Origin,
            "uploaded (imported weights)");

  const Tensor Sample = uploadSampleInput();
  const Tensor Reference =
      predictLogits(Harness.Registry, "reference", Sample);
  const Tensor Actual = predictLogits(Harness.Registry, "imported", Sample);
  ASSERT_EQ(Actual.shape(), Reference.shape());
  for (size_t I = 0; I < Reference.size(); ++I)
    EXPECT_EQ(Actual.data()[I], Reference.data()[I]) << "logit " << I;
}

TEST(ServeModelStoreTest, RejectsTheWholeBadInputLadder) {
  ScratchDir Scratch("wootz_store_reject");
  ModelStoreOptions Small;
  Small.MaxModels = 2;
  StoreHarness Harness(Scratch.str(), Small);

  // Missing model text.
  EXPECT_EQ(Harness.Store.upload({{"id", "x"}}).Status, 400);
  // Unparsable Prototxt.
  EXPECT_EQ(Harness.Store.upload({{"model", "not a prototxt {"}}).Status,
            400);
  // Path-traversal id.
  EXPECT_EQ(
      Harness.Store.upload({{"model", tinyModelText()}, {"id", "../evil"}})
          .Status,
      400);
  // Malformed base64.
  EXPECT_EQ(Harness.Store
                .upload({{"model", tinyModelText()},
                         {"weights_b64", "!!!not base64!!!"}})
                .Status,
            400);
  // A structurally valid bundle whose shapes belong to a different
  // network (8 classes vs 5).
  Result<ModelSpec> Other = parseModelSpec(
      standardModelPrototxt(StandardModel::InceptionA, 8));
  ASSERT_TRUE(static_cast<bool>(Other)) << Other.message();
  Result<BuiltNetwork> OtherNet = buildFullNetwork(*Other, 3);
  ASSERT_TRUE(static_cast<bool>(OtherNet)) << OtherNet.message();
  const UploadOutcome WrongShapes = Harness.Store.upload(
      {{"model", tinyModelText()},
       {"weights_b64",
        base64Encode(serializeTensors(
            exportWeights(OtherNet->Network, FullNetworkPrefix)))}});
  EXPECT_EQ(WrongShapes.Status, 400);
  EXPECT_FALSE(WrongShapes.Error.empty());
  // Truncated bundle bytes.
  EXPECT_EQ(Harness.Store
                .upload({{"model", tinyModelText()},
                         {"weights_b64", base64Encode("WOOTZCK2????")}})
                .Status,
            400);

  // Nothing above registered anything.
  EXPECT_EQ(Harness.Store.count(), 0u);
  EXPECT_EQ(Harness.counter("serve.models.uploaded"), 0);
  EXPECT_GE(Harness.counter("serve.models.upload_rejected"), 6);

  // Duplicates and the store cap.
  ASSERT_EQ(Harness.Store.upload({{"model", tinyModelText()},
                                  {"id", "dup"}})
                .Status,
            201);
  EXPECT_EQ(Harness.Store.upload({{"model", tinyModelText()},
                                  {"id", "dup"}})
                .Status,
            409);
  ASSERT_EQ(Harness.Store.upload({{"model", tinyModelText()}}).Status,
            201);
  EXPECT_EQ(Harness.Store.upload({{"model", tinyModelText()}}).Status,
            429);
}

TEST(ServeModelStoreTest, OversizedFieldsAre413) {
  ScratchDir Scratch("wootz_store_oversize");
  ModelStoreOptions Tiny;
  Tiny.MaxPrototxtBytes = 64;
  Tiny.MaxWeightBytes = 16;
  StoreHarness Harness(Scratch.str(), Tiny);
  EXPECT_EQ(Harness.Store.upload({{"model", tinyModelText()}}).Status,
            413);
  EXPECT_EQ(Harness.Store
                .upload({{"model", "x"},
                         {"weights_b64",
                          base64Encode(std::string(1024, 'w'))}})
                .Status,
            413);
}

TEST(ServeModelStoreTest, RemoveForgetsRegistryStoreAndDisk) {
  ScratchDir Scratch("wootz_store_remove");
  StoreHarness Harness(Scratch.str());
  ASSERT_EQ(Harness.Store.upload({{"model", tinyModelText()},
                                  {"id", "gone"}})
                .Status,
            201);
  ASSERT_NE(Harness.Registry.find("gone"), nullptr);
  ASSERT_TRUE(fs::exists(Scratch.str() + "/gone/model.prototxt"));

  Error Removed = Harness.Store.remove("gone");
  ASSERT_FALSE(static_cast<bool>(Removed)) << Removed.message();
  EXPECT_FALSE(Harness.Store.has("gone"));
  EXPECT_EQ(Harness.Registry.find("gone"), nullptr);
  EXPECT_FALSE(fs::exists(Scratch.str() + "/gone"));

  Error Again = Harness.Store.remove("gone");
  EXPECT_TRUE(static_cast<bool>(Again));
}

TEST(ServeModelStoreTest, RestartRestoresBitIdentically) {
  ScratchDir Scratch("wootz_store_restart");
  const Tensor Sample = uploadSampleInput();
  Tensor Before;
  {
    StoreHarness First(Scratch.str());
    ASSERT_EQ(First.Store.upload({{"model", tinyModelText()},
                                  {"id", "persist1"},
                                  {"seed", "31"}})
                  .Status,
              201);
    Before = predictLogits(First.Registry, "persist1", Sample);
    ASSERT_GT(Before.size(), 0u);
  }

  StoreHarness Second(Scratch.str());
  EXPECT_EQ(Second.Store.loadFromDisk(), 1u);
  EXPECT_TRUE(Second.Store.has("persist1"));
  EXPECT_EQ(Second.counter("serve.models.restored"), 1);
  ServableModel *Model = Second.Registry.find("persist1");
  ASSERT_NE(Model, nullptr);
  EXPECT_EQ(Model->Origin, "restored upload");

  // Random-init uploads persist their materialized weights, so the
  // restored model is bit-identical, not merely same-architecture.
  const Tensor After = predictLogits(Second.Registry, "persist1", Sample);
  ASSERT_EQ(After.shape(), Before.shape());
  for (size_t I = 0; I < Before.size(); ++I)
    EXPECT_EQ(After.data()[I], Before.data()[I]) << "logit " << I;
}

TEST(ServeModelStoreTest, RestoreSkipsCorruptEntries) {
  ScratchDir Scratch("wootz_store_corrupt");
  {
    StoreHarness First(Scratch.str());
    ASSERT_EQ(First.Store.upload({{"model", tinyModelText()},
                                  {"id", "healthy"}})
                  .Status,
              201);
  }
  fs::create_directories(Scratch.str() + "/broken");
  ASSERT_FALSE(static_cast<bool>(writeFile(
      Scratch.str() + "/broken/model.prototxt", tinyModelText())));
  ASSERT_FALSE(static_cast<bool>(writeFile(
      Scratch.str() + "/broken/weights.ck", "not a checkpoint")));

  StoreHarness Second(Scratch.str());
  EXPECT_EQ(Second.Store.loadFromDisk(), 1u);
  EXPECT_TRUE(Second.Store.has("healthy"));
  EXPECT_FALSE(Second.Store.has("broken"));
  EXPECT_EQ(Second.counter("serve.models.restore_failed"), 1);
}

TEST(ServeEndToEndTest, UploadPruneAndPredictOverHttp) {
  ScratchDir Scratch("wootz_upload_e2e");
  ServerOptions Options;
  Options.Jobs.BlockCacheDir = Scratch.str() + "/blocks";
  Options.Uploads.Dir = Scratch.str() + "/models";
  WootzServer Server(Options);
  ASSERT_FALSE(static_cast<bool>(Server.start()));
  const int Port = Server.port();

  // Upload.
  JsonObject Upload;
  Upload.field("model", tinyModelText()).field("id", "uploaded-net");
  Result<std::string> Created = rawRequest(
      Port, makeRequest("POST", "/v1/models", Upload.str()));
  ASSERT_TRUE(static_cast<bool>(Created)) << Created.message();
  ASSERT_EQ(statusOf(*Created), 201) << *Created;
  EXPECT_NE(bodyOf(*Created).find(
                "\"predict_url\":\"/v1/models/uploaded-net/predict\""),
            std::string::npos);

  // Listed alongside any other servable model.
  Result<std::string> Models =
      rawRequest(Port, makeRequest("GET", "/v1/models", ""));
  ASSERT_TRUE(static_cast<bool>(Models));
  EXPECT_NE(bodyOf(*Models).find("\"id\":\"uploaded-net\""),
            std::string::npos);

  // Immediately predictable.
  Result<ModelSpec> Spec = parseModelSpec(tinyModelText());
  std::string Input;
  const int Count =
      Spec->InputChannels * Spec->InputHeight * Spec->InputWidth;
  for (int I = 0; I < Count; ++I)
    Input += (I ? " " : "") + formatDouble(0.02 * (I % 7), 3);
  JsonObject PredictBody;
  PredictBody.field("input", Input);
  Result<std::string> Predicted = rawRequest(
      Port, makeRequest("POST", "/v1/models/uploaded-net/predict",
                        PredictBody.str()));
  ASSERT_TRUE(static_cast<bool>(Predicted)) << Predicted.message();
  ASSERT_EQ(statusOf(*Predicted), 200) << *Predicted;

  // A pruning job can target the upload by id.
  JsonObject JobBody;
  for (const auto &[Key, Value] : tinyJobBody())
    JobBody.field(Key == "model" ? "model" : Key,
                  Key == "model" ? "uploaded-net" : Value);
  Result<std::string> Accepted = rawRequest(
      Port, makeRequest("POST", "/v1/jobs", JobBody.str()));
  ASSERT_TRUE(static_cast<bool>(Accepted)) << Accepted.message();
  ASSERT_EQ(statusOf(*Accepted), 202) << *Accepted;
  const std::string AcceptedBody = bodyOf(*Accepted);
  const size_t IdAt = AcceptedBody.find("\"id\":\"");
  ASSERT_NE(IdAt, std::string::npos);
  const std::string JobId = AcceptedBody.substr(
      IdAt + 6, AcceptedBody.find('"', IdAt + 6) - (IdAt + 6));
  EXPECT_EQ(waitForTerminal(Server.jobs(), JobId), "done");

  // Malformed uploads are clean 4xx.
  JsonObject Bad;
  Bad.field("model", "layer { garbage");
  Result<std::string> Rejected = rawRequest(
      Port, makeRequest("POST", "/v1/models", Bad.str()));
  ASSERT_TRUE(static_cast<bool>(Rejected));
  EXPECT_EQ(statusOf(*Rejected), 400);
  Result<std::string> Duplicate = rawRequest(
      Port, makeRequest("POST", "/v1/models", Upload.str()));
  ASSERT_TRUE(static_cast<bool>(Duplicate));
  EXPECT_EQ(statusOf(*Duplicate), 409);

  // The ingestion counters surface in /metrics.
  Result<std::string> Metrics =
      rawRequest(Port, makeRequest("GET", "/metrics", ""));
  ASSERT_TRUE(static_cast<bool>(Metrics));
  EXPECT_NE(bodyOf(*Metrics).find("name=\"serve.models.uploaded\"} 1"),
            std::string::npos);
  EXPECT_NE(bodyOf(*Metrics).find(
                "name=\"serve.models.upload_rejected\"} 2"),
            std::string::npos);

  // DELETE unregisters: predict then answers 404.
  Result<std::string> Deleted = rawRequest(
      Port, makeRequest("DELETE", "/v1/models/uploaded-net", ""));
  ASSERT_TRUE(static_cast<bool>(Deleted));
  EXPECT_EQ(statusOf(*Deleted), 200) << *Deleted;
  Result<std::string> Gone = rawRequest(
      Port, makeRequest("POST", "/v1/models/uploaded-net/predict",
                        PredictBody.str()));
  ASSERT_TRUE(static_cast<bool>(Gone));
  EXPECT_EQ(statusOf(*Gone), 404);
  Result<std::string> DeleteAgain = rawRequest(
      Port, makeRequest("DELETE", "/v1/models/uploaded-net", ""));
  ASSERT_TRUE(static_cast<bool>(DeleteAgain));
  EXPECT_EQ(statusOf(*DeleteAgain), 404);

  Server.drain();
}

} // namespace
