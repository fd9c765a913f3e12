//===- perfbench/src/Client.cpp -------------------------------------------===//

#include "src/Client.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace perfbench;

std::string perfbench::httpRequest(const std::string &Method,
                                   const std::string &Target,
                                   const std::string &Body) {
  std::string Raw = Method + " " + Target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n";
  if (!Body.empty() || Method == "POST")
    Raw += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(Body.size()) + "\r\n";
  Raw += "\r\n";
  Raw += Body;
  return Raw;
}

namespace {
/// Closes the descriptor on every path out of httpExchange.
struct Socket {
  int Fd = -1;
  ~Socket() {
    if (Fd >= 0)
      ::close(Fd);
  }
};
} // namespace

Exchange perfbench::httpExchange(int Port, const std::string &Raw,
                                 int TimeoutMillis) {
  using Clock = std::chrono::steady_clock;
  Exchange Out;
  const auto Start = Clock::now();
  auto finish = [&](std::string Error) {
    Out.Error = std::move(Error);
    Out.Seconds =
        std::chrono::duration<double>(Clock::now() - Start).count();
    return Out;
  };

  Socket S;
  S.Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (S.Fd < 0)
    return finish(std::string("socket: ") + std::strerror(errno));
  timeval Timeout{};
  Timeout.tv_sec = TimeoutMillis / 1000;
  Timeout.tv_usec = (TimeoutMillis % 1000) * 1000;
  ::setsockopt(S.Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  ::setsockopt(S.Fd, SOL_SOCKET, SO_SNDTIMEO, &Timeout, sizeof(Timeout));
  const int One = 1;
  ::setsockopt(S.Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));

  sockaddr_in Address{};
  Address.sin_family = AF_INET;
  Address.sin_port = htons(static_cast<uint16_t>(Port));
  Address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(S.Fd, reinterpret_cast<sockaddr *>(&Address),
                sizeof(Address)) != 0)
    return finish(std::string("connect: ") + std::strerror(errno));

  size_t Sent = 0;
  while (Sent < Raw.size()) {
    const ssize_t N =
        ::send(S.Fd, Raw.data() + Sent, Raw.size() - Sent, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    // The daemon may answer (503, 413) and close before reading the
    // whole request; keep whatever response it sent.
    if (N <= 0)
      break;
    Sent += static_cast<size_t>(N);
  }

  std::string Response;
  char Buffer[16384];
  bool Reset = false;
  for (;;) {
    const ssize_t N = ::recv(S.Fd, Buffer, sizeof(Buffer), 0);
    if (N > 0) {
      Response.append(Buffer, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    Reset = N < 0;
    break;
  }

  const size_t HeadEnd = Response.find("\r\n\r\n");
  if (Response.compare(0, 5, "HTTP/") != 0 || HeadEnd == std::string::npos)
    return finish(Reset ? std::string("connection reset: ") +
                              std::strerror(errno)
                        : std::string("short response"));
  const size_t Space = Response.find(' ');
  Out.Status = std::atoi(Response.c_str() + Space + 1);
  Out.Body = Response.substr(HeadEnd + 4);
  // A body shorter than its Content-Length is a truncated answer.
  const std::string Marker = "Content-Length: ";
  const size_t At = Response.find(Marker);
  if (At != std::string::npos && At < HeadEnd) {
    const size_t Length =
        std::strtoul(Response.c_str() + At + Marker.size(), nullptr, 10);
    if (Out.Body.size() < Length) {
      Out.Status = 0;
      return finish("truncated body");
    }
  }
  return finish("");
}

const char *perfbench::outcomeName(Outcome O) {
  switch (O) {
  case Outcome::Ok:
    return "ok";
  case Outcome::Refused:
    return "refused";
  case Outcome::HttpError:
    return "http_error";
  case Outcome::TransportError:
    return "transport_error";
  case Outcome::CheckFailed:
    return "check_failed";
  }
  return "unknown";
}

Outcome perfbench::classify(const Exchange &X, bool AnswerOk) {
  if (X.Status == 0)
    return Outcome::TransportError;
  if (X.Status == 429 || X.Status == 503)
    return Outcome::Refused;
  if (X.Status != 200 && X.Status != 201 && X.Status != 202)
    return Outcome::HttpError;
  return AnswerOk ? Outcome::Ok : Outcome::CheckFailed;
}

void Tally::record(Outcome O) {
  ++Attempted;
  switch (O) {
  case Outcome::Ok:
    ++Succeeded;
    break;
  case Outcome::Refused:
    ++Refused;
    break;
  case Outcome::HttpError:
    ++HttpErrors;
    break;
  case Outcome::TransportError:
    ++TransportErrors;
    break;
  case Outcome::CheckFailed:
    ++CheckFailures;
    break;
  }
}

int perfbench::clientLimit() {
  return static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
}

int perfbench::runClosedLoop(
    int Clients, size_t Total,
    const std::function<void(int Thread, size_t Index)> &Body) {
  const int Threads = std::max(1, std::min(Clients, clientLimit()));
  std::vector<std::thread> Pool;
  Pool.reserve(static_cast<size_t>(Threads));
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (size_t I = 0;; ++I) {
        const size_t Global = I * static_cast<size_t>(Threads) +
                              static_cast<size_t>(T);
        if (Global >= Total)
          break;
        Body(T, Global);
      }
    });
  for (std::thread &Thread : Pool)
    Thread.join();
  return Threads;
}
