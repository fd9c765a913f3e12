//===- perfbench/tests/PerfbenchTest.cpp - The benchmark's own tests ------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers the parts of the benchmark that could go wrong silently:
// percentile selection, failure accounting, the metric catalogue against
// BENCHMARK.json, the connection cap, answer checks and self time.
// Build and run with `python3 perfbench/run.py --self-test`.
//
//===----------------------------------------------------------------------===//

#include "src/Client.h"
#include "src/Metrics.h"
#include "src/Stats.h"
#include "src/Trace.h"
#include "src/Workloads.h"

#include "src/support/File.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <functional>
#include <netinet/in.h>
#include <set>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace perfbench;

namespace {

/// A loopback server that hands every accepted connection to Handle on
/// its own thread. Stops (and joins everything) on destruction.
class ScriptedServer {
public:
  explicit ScriptedServer(std::function<void(int Fd, int Index)> Handle)
      : Handle(std::move(Handle)) {
    Listen = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Address{};
    Address.sin_family = AF_INET;
    Address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t Length = sizeof(Address);
    EXPECT_EQ(::bind(Listen, reinterpret_cast<sockaddr *>(&Address),
                     sizeof(Address)),
              0);
    EXPECT_EQ(::listen(Listen, 128), 0);
    ::getsockname(Listen, reinterpret_cast<sockaddr *>(&Address), &Length);
    Port = ntohs(Address.sin_port);
    Acceptor = std::thread([this] {
      for (int Index = 0;; ++Index) {
        const int Fd = ::accept(Listen, nullptr, nullptr);
        if (Fd < 0)
          return;
        Handlers.emplace_back([this, Fd, Index] {
          this->Handle(Fd, Index);
          ::close(Fd);
        });
      }
    });
  }

  ~ScriptedServer() {
    ::shutdown(Listen, SHUT_RDWR);
    ::close(Listen);
    Acceptor.join();
    for (std::thread &T : Handlers)
      T.join();
  }

  ScriptedServer(const ScriptedServer &) = delete;
  ScriptedServer &operator=(const ScriptedServer &) = delete;

  int port() const { return Port; }

private:
  std::function<void(int, int)> Handle;
  int Listen = -1;
  int Port = 0;
  std::vector<std::thread> Handlers; ///< Touched only by the acceptor.
  std::thread Acceptor;
};

/// Reads one request head (and its small body) off \p Fd.
void drainRequest(int Fd) {
  std::string Seen;
  char Buffer[4096];
  while (Seen.find("\r\n\r\n") == std::string::npos) {
    const ssize_t N = ::recv(Fd, Buffer, sizeof(Buffer), 0);
    if (N <= 0)
      return;
    Seen.append(Buffer, static_cast<size_t>(N));
  }
}

void respond(int Fd, int Status, const std::string &Body) {
  const std::string Raw = "HTTP/1.1 " + std::to_string(Status) +
                          " X\r\nContent-Type: application/json\r\n"
                          "Content-Length: " +
                          std::to_string(Body.size()) +
                          "\r\nConnection: close\r\n\r\n" + Body;
  ::send(Fd, Raw.data(), Raw.size(), MSG_NOSIGNAL);
}

} // namespace

//===----------------------------------------------------------------------===//
// Percentiles
//===----------------------------------------------------------------------===//

TEST(PerfbenchStats, NearestRankPercentile) {
  std::vector<double> Values;
  for (int I = 100; I >= 1; --I)
    Values.push_back(I);
  EXPECT_EQ(percentile(Values, 0.5), 50);
  EXPECT_EQ(percentile(Values, 0.9), 90);
  EXPECT_EQ(percentile(Values, 0.99), 99);
  EXPECT_EQ(percentile(Values, 1.0), 100);
  EXPECT_EQ(percentile({7.0}, 0.9), 7.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(PerfbenchStats, TenSamplesBeyondTheReportedPercentile) {
  EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
  EXPECT_TRUE(percentileSupported(100, 0.9));
  EXPECT_EQ(samplesBeyond(99, 0.9), 9u);
  EXPECT_FALSE(percentileSupported(99, 0.9));
  EXPECT_TRUE(percentileSupported(20, 0.5));
  EXPECT_FALSE(percentileSupported(19, 0.5));
  EXPECT_TRUE(percentileSupported(1000, 0.99));
  EXPECT_FALSE(percentileSupported(1000, 0.999));
  EXPECT_EQ(highestSupportedPercentile(10000), 0.999);
  EXPECT_EQ(highestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(highestSupportedPercentile(150), 0.9);
  EXPECT_EQ(highestSupportedPercentile(25), 0.5);
  EXPECT_EQ(highestSupportedPercentile(15), 0.0);
}

TEST(PerfbenchStats, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

//===----------------------------------------------------------------------===//
// Failure accounting
//===----------------------------------------------------------------------===//

TEST(PerfbenchClient, ClassifiesEveryFailureKind) {
  Exchange X;
  X.Status = 429;
  EXPECT_EQ(classify(X, true), Outcome::Refused);
  X.Status = 503;
  EXPECT_EQ(classify(X, true), Outcome::Refused);
  X.Status = 500;
  EXPECT_EQ(classify(X, true), Outcome::HttpError);
  X.Status = 0;
  EXPECT_EQ(classify(X, true), Outcome::TransportError);
  X.Status = 200;
  EXPECT_EQ(classify(X, false), Outcome::CheckFailed);
  EXPECT_EQ(classify(X, true), Outcome::Ok);
}

TEST(PerfbenchClient, RefusalsResetsAndWrongLogitsAllCountAsFailed) {
  const std::vector<float> Reference = {0.5f, 2.0f, -1.0f};
  const std::string Good =
      "{\"model\":\"m\",\"argmax\":1,\"batch_size\":2,"
      "\"logits\":[0.500000,2.000000,-1.000000]}";
  const std::string Wrong =
      "{\"model\":\"m\",\"argmax\":1,\"batch_size\":2,"
      "\"logits\":[0.500000,2.010000,-1.000000]}";
  // Connection I gets script I.
  ScriptedServer Server([&](int Fd, int Index) {
    drainRequest(Fd);
    switch (Index) {
    case 0:
      respond(Fd, 429, "{\"error\":\"model overloaded\"}");
      break;
    case 1:
      respond(Fd, 503, "{\"error\":\"draining\"}");
      break;
    case 2: {
      // Abortive close: the client sees a reset, not an answer.
      linger Abort{1, 0};
      ::setsockopt(Fd, SOL_SOCKET, SO_LINGER, &Abort, sizeof(Abort));
      break;
    }
    case 3:
      respond(Fd, 200, Wrong);
      break;
    default:
      respond(Fd, 200, Good);
      break;
    }
  });

  Tally Counts;
  for (int I = 0; I < 5; ++I) {
    const Exchange X = httpExchange(
        Server.port(), httpRequest("POST", "/v1/models/m/predict", "{}"),
        5000);
    const bool AnswerOk =
        X.Status == 200 && checkPredictAnswer(X.Body, Reference).Ok;
    Counts.record(classify(X, AnswerOk));
  }
  EXPECT_EQ(Counts.Attempted, 5);
  EXPECT_EQ(Counts.Refused, 2);
  EXPECT_EQ(Counts.TransportErrors, 1);
  EXPECT_EQ(Counts.CheckFailures, 1);
  EXPECT_EQ(Counts.Succeeded, 1);
  EXPECT_EQ(Counts.failed(), 4);
}

TEST(PerfbenchClient, AnswerCheckTolerances) {
  const std::vector<float> Reference = {1.0f, 1.00005f, -3.0f};
  auto body = [](const std::string &ArgMax, const std::string &Logits) {
    return "{\"argmax\":" + ArgMax + ",\"batch_size\":1,\"logits\":[" +
           Logits + "]}";
  };
  EXPECT_TRUE(checkPredictAnswer(body("1", "1.000000,1.000050,-3.000000"),
                                 Reference)
                  .Ok);
  // Within tolerance of each other, so either argmax is acceptable.
  EXPECT_TRUE(checkPredictAnswer(body("0", "1.000010,1.000040,-3.000000"),
                                 Reference)
                  .Ok);
  EXPECT_FALSE(checkPredictAnswer(body("2", "1.000000,1.000050,-3.000000"),
                                  Reference)
                   .Ok);
  EXPECT_FALSE(checkPredictAnswer(body("1", "1.000000,1.000050,-2.990000"),
                                  Reference)
                   .Ok);
  EXPECT_FALSE(checkPredictAnswer(body("1", "1.000000,1.000050"), Reference)
                   .Ok);
  EXPECT_FALSE(checkPredictAnswer("{\"error\":\"x\"}", Reference).Ok);
}

//===----------------------------------------------------------------------===//
// Connection cap
//===----------------------------------------------------------------------===//

TEST(PerfbenchClient, ClosedLoopNeverExceedsHardwareThreads) {
  std::atomic<int> InFlight{0}, Peak{0};
  std::vector<std::atomic<int>> Done(500);
  const int Threads = runClosedLoop(64, Done.size(), [&](int, size_t I) {
    const int Now = ++InFlight;
    int Seen = Peak.load();
    while (Now > Seen && !Peak.compare_exchange_weak(Seen, Now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    ++Done[I];
    --InFlight;
  });
  EXPECT_LE(Threads, clientLimit());
  EXPECT_LE(Peak.load(), clientLimit());
  for (const std::atomic<int> &D : Done)
    EXPECT_EQ(D.load(), 1); // Every operation ran exactly once.
}

TEST(PerfbenchClient, GeneratorOpensAtMostNprocConnections) {
  std::atomic<int> Open{0}, Peak{0};
  ScriptedServer Server([&](int Fd, int) {
    const int Now = ++Open;
    int Seen = Peak.load();
    while (Now > Seen && !Peak.compare_exchange_weak(Seen, Now)) {
    }
    drainRequest(Fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    --Open;
    respond(Fd, 200, "{}");
  });
  Tally Counts;
  runClosedLoop(4 * clientLimit() + 3, 120, [&](int, size_t) {
    const Exchange X =
        httpExchange(Server.port(), httpRequest("GET", "/healthz"));
    Counts.record(classify(X, true));
  });
  EXPECT_EQ(Counts.Succeeded, 120);
  EXPECT_GE(Peak.load(), 1);
  EXPECT_LE(Peak.load(), clientLimit());
}

//===----------------------------------------------------------------------===//
// Metric names
//===----------------------------------------------------------------------===//

TEST(PerfbenchMetrics, NamePattern) {
  EXPECT_TRUE(validMetricName("p50_ms"));
  EXPECT_TRUE(validMetricName("nn.forward_ms.b1"));
  EXPECT_TRUE(validMetricName("9lives-x"));
  EXPECT_FALSE(validMetricName(""));
  EXPECT_FALSE(validMetricName("_hidden"));
  EXPECT_FALSE(validMetricName(".dot"));
  EXPECT_FALSE(validMetricName("has space"));
  EXPECT_FALSE(validMetricName("slash/ed"));
  EXPECT_FALSE(validMetricName(std::string(65, 'a')));
  EXPECT_TRUE(validMetricName(std::string(64, 'a')));
  EXPECT_TRUE(validMetricUnit("GFLOP/s"));
  EXPECT_TRUE(validMetricUnit("%"));
  EXPECT_FALSE(validMetricUnit(""));
  EXPECT_FALSE(validMetricUnit("m s"));
  EXPECT_FALSE(validMetricUnit(std::string(17, 's')));
}

TEST(PerfbenchMetrics, CatalogueIsValidAndMatchesBenchmarkJson) {
  wootz::Result<std::string> Spec = wootz::readFile(PERFBENCH_SPEC);
  ASSERT_TRUE(static_cast<bool>(Spec)) << Spec.message();
  const size_t PerLayerAt = Spec->find("\"per_layer\"");
  const size_t EndToEndAt = Spec->find("\"end_to_end\"");
  ASSERT_NE(PerLayerAt, std::string::npos);
  ASSERT_NE(EndToEndAt, std::string::npos);

  std::set<std::string> Names;
  auto check = [&](const std::vector<MetricInfo> &Catalogue,
                   size_t SectionAt) {
    for (const MetricInfo &M : Catalogue) {
      EXPECT_TRUE(validMetricName(M.Name)) << M.Name;
      EXPECT_TRUE(validMetricUnit(M.Unit)) << M.Unit;
      EXPECT_TRUE(std::string(M.Better) == "higher" ||
                  std::string(M.Better) == "lower");
      EXPECT_TRUE(Names.insert(M.Name).second) << "duplicate " << M.Name;
      // The entry in BENCHMARK.json's section, with the same unit and
      // direction.
      const size_t At =
          Spec->find("\"name\": \"" + std::string(M.Name) + "\"", SectionAt);
      ASSERT_NE(At, std::string::npos) << M.Name << " not in BENCHMARK.json";
      const std::string Entry =
          Spec->substr(At, Spec->find('}', At) - At);
      EXPECT_EQ(jsonField("{" + Entry + "}", "unit").value_or(""), M.Unit)
          << M.Name;
      EXPECT_EQ(jsonField("{" + Entry + "}", "better").value_or(""),
                M.Better)
          << M.Name;
    }
  };
  check(endToEndMetrics(), EndToEndAt);
  check(perLayerMetrics(), PerLayerAt);

  // And nothing in BENCHMARK.json that the benchmark does not report.
  size_t Listed = 0;
  for (size_t At = Spec->find("\"name\": \"", EndToEndAt);
       At != std::string::npos; At = Spec->find("\"name\": \"", At + 1))
    ++Listed;
  EXPECT_EQ(Listed, Names.size());
}

//===----------------------------------------------------------------------===//
// Daemon output readers and spans
//===----------------------------------------------------------------------===//

TEST(PerfbenchMetrics, ReadsNestedStatusAndPrometheus) {
  const std::string Status =
      "{\"id\":\"job-2\",\"state\":\"done\",\"configs_evaluated\":4,"
      "\"counters\":{\"cache.hit\":3,\"cache.miss\":1},\"message\":\"a\\\"b\"}";
  EXPECT_EQ(jsonField(Status, "state").value_or(""), "done");
  EXPECT_EQ(jsonNumber(Status, "configs_evaluated").value_or(0), 4);
  EXPECT_EQ(jsonField(Status, "message").value_or(""), "a\"b");
  const std::string Counters = jsonObjectField(Status, "counters").value();
  EXPECT_EQ(jsonNumber(Counters, "cache.hit").value_or(0), 3);
  EXPECT_FALSE(jsonNumber(Status, "missing").has_value());

  const Scrape S = parsePrometheus(
      "# TYPE wootz_counter counter\n"
      "wootz_counter{scope=\"server\",name=\"serve.predict.batches\"} 12\n"
      "wootz_request_latency_seconds_sum 0.250000\n");
  EXPECT_EQ(counterValue(S, "server", "serve.predict.batches"), 12);
  EXPECT_EQ(counterValue(S, "server", "absent"), 0);
  EXPECT_EQ(S.at("wootz_request_latency_seconds_sum"), 0.25);
}

TEST(PerfbenchTrace, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer T(true);
  const int Root = T.add(Span{"root", 0.0, 10.0, -1, "", 0});
  T.add(Span{"child", 1.0, 3.0, Root, "", 0});
  T.add(Span{"child", 2.0, 5.0, Root, "", 0}); // Overlaps the first.
  T.add(Span{"child", 9.0, 12.0, Root, "", 0}); // Clipped at the parent.
  const std::map<std::string, double> Self = T.selfSeconds();
  EXPECT_DOUBLE_EQ(Self.at("root"), 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(Self.at("child"), 2.0 + 3.0 + 3.0);
  EXPECT_NE(T.chromeJson().find("\"ph\":\"X\""), std::string::npos);

  Tracer Off(false);
  EXPECT_EQ(Off.begin("x"), -1);
  EXPECT_TRUE(Off.spans().empty());
}

TEST(PerfbenchWorkloads, PlansArePureInTheSeed) {
  const ExplorePlan A = makeExplorePlan(5, 4), B = makeExplorePlan(5, 4),
                    C = makeExplorePlan(6, 4);
  ASSERT_EQ(A.Jobs.size(), 4u);
  for (size_t J = 0; J < A.Jobs.size(); ++J)
    EXPECT_EQ(A.Jobs[J].Body, B.Jobs[J].Body);
  bool Differs = false;
  for (size_t J = 0; J < A.Jobs.size(); ++J)
    Differs |= A.Jobs[J].Body != C.Jobs[J].Body;
  EXPECT_TRUE(Differs);

  const PredictPlan P = makePredictPlan(3, 50),
                    Q = makePredictPlan(3, 50);
  EXPECT_EQ(P.Requests, Q.Requests);
  ASSERT_EQ(P.Models.size(), 4u);
  EXPECT_EQ(P.Models[0].UploadBody, Q.Models[0].UploadBody);
  EXPECT_EQ(P.Models[2].Reference, Q.Models[2].Reference);
}
