//===- perfbench/src/Daemon.h - The daemon under test as a child process ---===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Starts `wootz_cli serve <port> <state-dir>` exactly as shipped (no
/// options beyond the port and a fresh state directory), waits until
/// /healthz answers, reads the daemon's peak resident set from
/// /proc/<pid>/status, and stops it with SIGTERM (the daemon drains), or
/// SIGKILL when it does not exit in time. The child is always reaped.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DAEMON_H
#define PERFBENCH_DAEMON_H

#include "src/support/Error.h"

#include <memory>
#include <string>
#include <sys/types.h>

namespace perfbench {

class Daemon {
public:
  /// Launches \p Cli on a free loopback port with \p StateDir (created
  /// fresh: any previous contents are removed) and waits up to
  /// \p ReadySeconds for /healthz. The daemon's stdout and stderr go to
  /// `<StateDir>.log`.
  static wootz::Result<std::unique_ptr<Daemon>>
  start(const std::string &Cli, const std::string &StateDir,
        double ReadySeconds = 30.0);

  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  int port() const { return Port; }
  const std::string &stateDir() const { return StateDir; }

  /// The daemon's VmHWM in MB (MiB), read from /proc/<pid>/status.
  wootz::Result<double> peakRssMb() const;

  /// SIGTERM, wait up to \p GraceSeconds for the drain, then SIGKILL.
  /// Reaps the child; idempotent. Fails when the daemon had to be killed
  /// or exited with a non-zero status.
  wootz::Error stop(double GraceSeconds = 60.0);

private:
  Daemon() = default;

  pid_t Pid = -1;
  int Port = 0;
  std::string StateDir;
};

/// Removes \p Path recursively; missing paths are fine.
void removeTree(const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_DAEMON_H
