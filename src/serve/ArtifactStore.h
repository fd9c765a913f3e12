//===- serve/ArtifactStore.h - Shared multi-process artifact tier ----------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared state tier that lets N serve daemons behave like one
/// deployment: a single rooted directory layout holding everything that
/// used to be scattered across per-daemon options (the cross-run tuning
/// BlockCache, the trained-full-model cache, per-job artifacts, the
/// durable job queue, and uploaded models), plus a process registry with
/// heartbeat files and consistent-hash model placement.
///
/// Layout under one Root:
///
///   <Root>/block_cache/   cross-run tuning blocks (train/BlockCache)
///   <Root>/cache/         trained-full-model checkpoints
///   <Root>/jobs/          JobQueue journals, leases, cancel markers
///   <Root>/artifacts/     per-job result.json / telemetry.jsonl / plan.json
///   <Root>/models/        uploaded models (serve/ModelStore)
///   <Root>/registry/      one heartbeat file per live process
///
/// Every layer underneath already writes atomically (temp+rename) and
/// validates contents (WOOTZCK2 CRC), which is what makes the same
/// directory safe for concurrent daemons: a reader observes complete
/// files or none, and corrupt entries degrade to cache misses.
///
/// Placement is rendezvous (highest-random-weight) hashing over the
/// *registered, unexpired* processes: every process computes the same
/// owner for a key from the registry directory alone, no coordinator,
/// and a process death only moves the keys it owned. ownerOf() steers
/// eager work (which daemon restores/compiles a model at startup);
/// correctness never depends on it — any process can lazily restore any
/// model and claim any job.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_SERVE_ARTIFACTSTORE_H
#define WOOTZ_SERVE_ARTIFACTSTORE_H

#include "src/runtime/RunLog.h"
#include "src/support/Error.h"
#include "src/train/BlockCache.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace wootz {
namespace serve {

/// Shared-tier knobs.
struct ArtifactStoreOptions {
  /// Root directory; empty disables the store (all paths empty).
  std::string Root;
  /// This process's registered identity; empty generates
  /// "proc-<pid>-<n>" (unique per store instance, so tests and benches
  /// can run several "daemons" inside one OS process).
  std::string ProcessName;
  /// Registration heartbeat TTL: a process whose heartbeat file is
  /// older than this drops out of placement.
  double ProcessTtlSeconds = 15.0;
  /// Size cap handed to the shared BlockCache (0 = unlimited).
  uint64_t BlockCacheMaxBytes = 0;
};

/// Cumulative on-disk usage of one tier directory.
struct ArtifactUsage {
  uint64_t Entries = 0;
  uint64_t Bytes = 0;
};

/// The rooted layout + process registry. Thread-safe; one instance per
/// daemon, shared by JobManager/ModelStore/metrics.
class ArtifactStore {
public:
  /// A disabled store: every path accessor returns "".
  ArtifactStore() = default;

  explicit ArtifactStore(ArtifactStoreOptions Options,
                         RunLog *Log = nullptr);
  ~ArtifactStore();

  ArtifactStore(const ArtifactStore &) = delete;
  ArtifactStore &operator=(const ArtifactStore &) = delete;

  bool enabled() const { return !Options.Root.empty(); }
  const std::string &root() const { return Options.Root; }
  const std::string &processName() const { return Options.ProcessName; }

  // The rooted layout ("" when disabled).
  std::string blockCacheDir() const { return sub("block_cache"); }
  std::string modelCacheDir() const { return sub("cache"); }
  std::string jobsDir() const { return sub("jobs"); }
  std::string artifactsDir() const { return sub("artifacts"); }
  std::string modelsDir() const { return sub("models"); }
  std::string registryDir() const { return sub("registry"); }

  /// The BlockCache configuration of the shared tier.
  CacheConfig blockCacheConfig() const;

  /// Writes this process's heartbeat file (registration is just the
  /// first heartbeat). Call periodically — at least once per
  /// ProcessTtlSeconds — to stay in placement.
  Error heartbeat();

  /// Removes this process from the registry (destructor does too).
  void unregisterProcess();

  /// Registered processes whose heartbeat has not expired, sorted.
  std::vector<std::string> activeProcesses() const;

  /// The active process that places \p Key, by rendezvous hashing; ""
  /// when the store is disabled or no process is registered. Every
  /// process sharing the root computes the same answer.
  std::string ownerOf(const std::string &Key) const;

  /// True when this process should do eager work for \p Key: the store
  /// is disabled, this process is unregistered, or ownerOf() names it.
  bool ownsLocally(const std::string &Key) const;

  /// Entry count and byte total under \p Dir (one level, regular files)
  /// — the /metrics feed for the shared cache directories.
  static ArtifactUsage usage(const std::string &Dir);

private:
  std::string sub(const char *Name) const {
    return Options.Root.empty() ? std::string()
                                : Options.Root + "/" + Name;
  }
  std::string heartbeatPath() const {
    return registryDir() + "/" + Options.ProcessName + ".json";
  }

  ArtifactStoreOptions Options;
  RunLog *Log = nullptr;
  /// Set by heartbeat(), which runs on the server's thread at startup
  /// and on the executor's maintenance thread afterwards.
  std::atomic<bool> Registered{false};
};

} // namespace serve
} // namespace wootz

#endif // WOOTZ_SERVE_ARTIFACTSTORE_H
