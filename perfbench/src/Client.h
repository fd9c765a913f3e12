//===- perfbench/src/Client.h - Loopback HTTP load generation --------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generator side of the benchmark: one blocking HTTP/1.1 exchange
/// per connection (the daemon answers `Connection: close`), the rule that
/// turns an exchange plus its answer check into success or failure, and a
/// closed loop that never runs more client threads — and so never holds
/// more connections open — than the machine has hardware threads.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CLIENT_H
#define PERFBENCH_CLIENT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace perfbench {

/// One request/response over a fresh connection.
struct Exchange {
  /// HTTP status; 0 when the transport failed (refused, reset, timeout).
  int Status = 0;
  std::string Body;
  /// Transport failure description (empty on success).
  std::string Error;
  /// From before connect() to the last response byte.
  double Seconds = 0.0;
};

/// Serializes a request with Content-Length and `Connection: close`.
std::string httpRequest(const std::string &Method, const std::string &Target,
                        const std::string &Body = std::string());

/// Sends \p Raw to 127.0.0.1:\p Port and reads the answer until the
/// server closes. Never throws; transport problems land in Error.
Exchange httpExchange(int Port, const std::string &Raw,
                      int TimeoutMillis = 30000);

/// Why an operation counted as failed (or that it did not).
enum class Outcome {
  Ok,
  Refused,        ///< 429 or 503: the daemon shed the request.
  HttpError,      ///< Any other non-200 status.
  TransportError, ///< Refused or reset connection, timeout, short read.
  CheckFailed,    ///< 200, but the answer did not pass its check.
};

const char *outcomeName(Outcome O);

/// Classifies one exchange; \p AnswerOk is the answer check's verdict
/// (consulted only for 200 answers).
Outcome classify(const Exchange &X, bool AnswerOk);

/// Attempted/succeeded/failed accounting, safe to bump from any thread.
struct Tally {
  std::atomic<int64_t> Attempted{0};
  std::atomic<int64_t> Succeeded{0};
  std::atomic<int64_t> Refused{0};
  std::atomic<int64_t> HttpErrors{0};
  std::atomic<int64_t> TransportErrors{0};
  std::atomic<int64_t> CheckFailures{0};

  void record(Outcome O);
  int64_t failed() const {
    return Refused + HttpErrors + TransportErrors + CheckFailures;
  }
};

/// The client-thread cap: the machine's hardware threads (at least 1).
int clientLimit();

/// Closed loop: min(\p Clients, clientLimit()) threads; thread T runs
/// \p Body(T, I) for I = 0, 1, ... while I * threads + T < \p Total, each
/// call finishing before the thread's next one starts. Returns the
/// thread count used.
int runClosedLoop(int Clients, size_t Total,
                  const std::function<void(int Thread, size_t Index)> &Body);

} // namespace perfbench

#endif // PERFBENCH_CLIENT_H
