//===- perfbench/src/Daemon.cpp -------------------------------------------===//

#include "src/Daemon.h"

#include "src/Client.h"

#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <netinet/in.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

extern char **environ;

using namespace perfbench;
using wootz::Error;
using wootz::Result;

/// The daemon currently running (the benchmark runs one at a time), so a
/// benchmark stopped by a signal takes its daemon down with it.
static std::atomic<pid_t> LivePid{-1};

extern "C" void onStopSignal(int Signal) {
  const pid_t Pid = LivePid.load();
  if (Pid > 0) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
  }
  ::signal(Signal, SIG_DFL);
  ::raise(Signal);
}

void perfbench::removeTree(const std::string &Path) {
  std::error_code Ignored;
  std::filesystem::remove_all(Path, Ignored);
}

/// Asks the kernel for a free loopback port. The port is released before
/// the daemon binds it; start() retries on the rare collision.
static int freePort() {
  const int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return 0;
  sockaddr_in Address{};
  Address.sin_family = AF_INET;
  Address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Address.sin_port = 0;
  socklen_t Length = sizeof(Address);
  int Port = 0;
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Address), sizeof(Address)) ==
          0 &&
      ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Address), &Length) ==
          0)
    Port = ntohs(Address.sin_port);
  ::close(Fd);
  return Port;
}

Result<std::unique_ptr<Daemon>> Daemon::start(const std::string &Cli,
                                              const std::string &StateDir,
                                              double ReadySeconds) {
  using Clock = std::chrono::steady_clock;
  removeTree(StateDir);
  std::error_code FsError;
  std::filesystem::create_directories(
      std::filesystem::path(StateDir).parent_path(), FsError);
  const std::string LogPath = StateDir + ".log";
  for (int Signal : {SIGTERM, SIGINT, SIGHUP})
    std::signal(Signal, onStopSignal);

  for (int Attempt = 0; Attempt < 3; ++Attempt) {
    std::unique_ptr<Daemon> D(new Daemon());
    D->StateDir = StateDir;
    D->Port = freePort();
    if (D->Port == 0)
      return Error::failure("no free loopback port");

    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO,
                                     LogPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&Actions, STDOUT_FILENO, STDERR_FILENO);
    const std::string PortText = std::to_string(D->Port);
    std::vector<char *> Argv = {const_cast<char *>(Cli.c_str()),
                                const_cast<char *>("serve"),
                                const_cast<char *>(PortText.c_str()),
                                const_cast<char *>(StateDir.c_str()),
                                nullptr};
    const int Spawned = posix_spawn(&D->Pid, Cli.c_str(), &Actions, nullptr,
                                    Argv.data(), environ);
    posix_spawn_file_actions_destroy(&Actions);
    if (Spawned != 0) {
      D->Pid = -1;
      return Error::failure("cannot start " + Cli + ": " +
                            std::strerror(Spawned));
    }
    LivePid.store(D->Pid);

    const auto Deadline =
        Clock::now() + std::chrono::duration<double>(ReadySeconds);
    bool Exited = false;
    while (Clock::now() < Deadline) {
      int Status = 0;
      if (::waitpid(D->Pid, &Status, WNOHANG) == D->Pid) {
        D->Pid = -1;
        LivePid.store(-1);
        Exited = true;
        break;
      }
      const Exchange Health =
          httpExchange(D->Port, httpRequest("GET", "/healthz"), 2000);
      if (Health.Status == 200)
        return D;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!Exited)
      return Error::failure("daemon not ready within " +
                            std::to_string(ReadySeconds) + " s (log: " +
                            LogPath + ")");
    // Exited before answering: most likely the port was taken between
    // freePort() and bind. Try another one.
  }
  return Error::failure("daemon exited during start-up (log: " + LogPath +
                        ")");
}

Daemon::~Daemon() { (void)static_cast<bool>(stop(10.0)); }

Result<double> Daemon::peakRssMb() const {
  std::ifstream Status("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(Status, Line)) {
    if (Line.rfind("VmHWM:", 0) != 0)
      continue;
    const double Kb = std::strtod(Line.c_str() + 6, nullptr);
    return Kb / 1024.0;
  }
  return Error::failure("no VmHWM for pid " + std::to_string(Pid));
}

Error Daemon::stop(double GraceSeconds) {
  if (Pid <= 0)
    return Error::success();
  using Clock = std::chrono::steady_clock;
  ::kill(Pid, SIGTERM);
  const auto Deadline =
      Clock::now() + std::chrono::duration<double>(GraceSeconds);
  int Status = 0;
  bool Killed = false;
  for (;;) {
    const pid_t Done = ::waitpid(Pid, &Status, WNOHANG);
    if (Done == Pid || (Done < 0 && errno != EINTR))
      break;
    if (Clock::now() >= Deadline && !Killed) {
      ::kill(Pid, SIGKILL);
      Killed = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Pid = -1;
  LivePid.store(-1);
  if (Killed)
    return Error::failure("daemon did not drain in time; killed");
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return Error::failure("daemon exited abnormally (status " +
                          std::to_string(Status) + ")");
  return Error::success();
}
