//===- serve/Batcher.h - Dynamic micro-batched inference -------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inference path of the serve daemon. Each servable model owns one
/// Batcher, which owns no threads: every forward runs on a request
/// thread. predict() queues its sample; when fewer than Workers forwards
/// are running on the model, the caller becomes a leader, cuts up to
/// MaxBatch queued samples in FIFO order, runs one eval-mode forward
/// through a context borrowed from a ContextPool, and fans the logit
/// rows back out. The other callers (followers) wait; a follower whose
/// sample is still queued when a slot frees leads next. Batches form
/// from load: requests that arrive while every slot is busy ride the
/// next forward together, and a lone request runs at once. A non-zero
/// MaxWaitMicros makes each leader linger that long for companions
/// before it cuts its batch.
///
/// A bounded pending queue turns overload into an immediate
/// "overloaded" error (the HTTP layer maps it to 429) instead of
/// unbounded memory growth.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_SERVE_BATCHER_H
#define WOOTZ_SERVE_BATCHER_H

#include "src/plan/Plan.h"
#include "src/runtime/RunLog.h"
#include "src/serve/ContextPool.h"
#include "src/serve/Metrics.h"
#include "src/support/Error.h"
#include "src/train/Assembly.h"

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wootz {
namespace serve {

/// Batching policy knobs.
struct BatcherOptions {
  /// Largest batch a single forward pass may carry.
  int MaxBatch = 8;
  /// How long a leader lingers for companions before it cuts its batch.
  /// 0 cuts at once: batches then form only from requests that queued
  /// while every forward slot was busy.
  int MaxWaitMicros = 0;
  /// Pending-request cap; beyond it predict() fails fast ("overloaded").
  size_t MaxQueuedRequests = 64;
  /// Concurrent forwards per model. Each runs on its leader's thread
  /// through a private context over the shared Graph.
  int Workers = 2;
  /// Freeze each registered model into a static ExecPlan at add() time
  /// and serve through PlanContexts, whose panels were packed at freeze.
  /// A graph the plan compiler rejects serves through the Graph
  /// interpreter instead (the registry bumps `serve.models.plan_fallback`).
  /// false serves every model through the interpreter.
  bool UsePlans = true;
  /// Trim policy of the context pool the forwards borrow from.
  ContextPoolOptions Pool;
};

/// What one prediction returns.
struct Prediction {
  Tensor Logits; ///< Rank-1, one value per class.
  int ArgMax = 0;
  /// Size of the batch this request rode in (the occupancy signal).
  int BatchSize = 1;
};

/// One model's batching inference engine.
class Batcher {
public:
  /// Takes shared ownership of \p Network; \p Log (optional) receives
  /// `serve.predict.*` counters, \p Latency (optional) per-request
  /// forward latencies. When \p Plan is non-null every forward executes
  /// it through a private PlanContext instead of interpreting the
  /// Graph; the network is still kept alive for provenance.
  /// \p Pool (optional) supplies per-batch execution contexts; without
  /// it the batcher borrows from a private pool of its own.
  Batcher(std::shared_ptr<AssembledNetwork> Network, BatcherOptions Options,
          RunLog *Log, LatencyHistogram *Latency,
          std::shared_ptr<const ExecPlan> Plan = nullptr,
          ContextPool *Pool = nullptr);
  ~Batcher();

  Batcher(const Batcher &) = delete;
  Batcher &operator=(const Batcher &) = delete;

  /// Runs \p Sample (shape [1, C, H, W]) through the model, riding a
  /// shared batch when traffic allows. Blocks until the result is ready,
  /// running forwards on the calling thread while it leads; fails fast
  /// when the queue is full or the batcher is stopping.
  Result<Prediction> predict(const Tensor &Sample);

  /// Rejects new work and fails everything still queued ("draining"),
  /// then waits until no forward is in flight. Idempotent.
  void stop();

private:
  struct Pending {
    const Tensor *Sample = nullptr;
    Tensor Logits;
    int BatchSize = 0;
    std::string Error; ///< Non-empty on failure.
    bool Taken = false; ///< Cut into a batch (no longer queued).
    bool Done = false;
  };

  /// Called with \p Lock held: takes a forward slot, lingers for
  /// companions when MaxWaitMicros asks, cuts a batch and runs it with
  /// the lock released, then gives the slot back and wakes the
  /// followers.
  void lead(std::unique_lock<std::mutex> &Lock);
  void runBatch(ExecContext &Ctx, std::vector<Pending *> &Batch);
  void runBatch(PlanContext &Ctx, std::vector<Pending *> &Batch);
  /// Assembles one NCHW input tensor from the batch's [1,C,H,W] samples.
  static Tensor assembleBatch(const std::vector<Pending *> &Batch);
  /// Shape-checks \p Logits and copies each row back to its request.
  void fanOut(const Tensor &Logits, std::vector<Pending *> &Batch);

  std::shared_ptr<AssembledNetwork> Network;
  std::shared_ptr<const ExecPlan> Plan;
  BatcherOptions Options;
  RunLog *Log = nullptr;
  LatencyHistogram *Latency = nullptr;
  /// Used when no registry pool is given; declared after Network so its
  /// contexts die before the graph they are bound to.
  ContextPool OwnContexts;
  ContextPool *Pool = nullptr;

  std::mutex Mutex;
  std::condition_variable Arrived;  ///< A sample queued (lingering leaders).
  std::condition_variable Finished; ///< A slot freed or samples finished.
  std::deque<Pending *> Queue;
  int Running = 0; ///< Forward slots held by leaders.
  bool Stopping = false;
};

/// A registered model: its network, expected input shape, and batcher.
struct ServableModel {
  std::string Id;
  int Channels = 0;
  int Height = 0;
  int Width = 0;
  int Classes = 0;
  /// Provenance note surfaced in the model listing ("job job-3 winner",
  /// "preloaded full model", ...).
  std::string Origin;
  /// The frozen static plan compiled at registration; null when
  /// BatcherOptions::UsePlans is off or the compiler rejected the graph,
  /// and the batcher interprets the Graph.
  std::shared_ptr<const ExecPlan> Plan;
  std::unique_ptr<Batcher> Engine;
};

/// Thread-safe id -> ServableModel table. Removed models are retired,
/// not destroyed — their engines stop (in-flight predicts fail cleanly)
/// but the objects live until the registry does, so find() results held
/// by concurrent request handlers stay valid until stopAll().
class ModelRegistry {
public:
  explicit ModelRegistry(BatcherOptions Batching, RunLog *Log,
                         LatencyHistogram *Latency)
      : Batching(Batching), Log(Log), Latency(Latency),
        Contexts(Batching.Pool) {}

  /// Engines stop (waiting out the forwards that use the context pool)
  /// before the pool's contexts are torn down, which in turn happens
  /// while the model graphs are still alive.
  ~ModelRegistry() {
    stopAll();
    Contexts.clear();
  }

  /// Registers \p Network under \p Id with the given input geometry.
  /// Fails if the id is taken.
  Error add(const std::string &Id,
            std::shared_ptr<AssembledNetwork> Network, int Channels,
            int Height, int Width, int Classes, std::string Origin);

  /// Unregisters \p Id: its engine stops (queued predicts fail with
  /// "model is draining") and the id becomes free again. The
  /// ServableModel object is retired rather than destroyed; see the
  /// class comment.
  Error remove(const std::string &Id);

  /// Looks up a model; nullptr when absent.
  ServableModel *find(const std::string &Id);

  /// Registered ids, insertion-ordered.
  std::vector<std::string> ids() const;

  size_t count() const;

  /// Stops every batcher (drain step). Idempotent.
  void stopAll();

  /// serve.contexts.* counters of the shared pool (the /metrics feed).
  std::map<std::string, int64_t> contextCounters() const {
    return Contexts.counters();
  }

private:
  BatcherOptions Batching;
  RunLog *Log = nullptr;
  LatencyHistogram *Latency = nullptr;
  /// Declared before the model tables: destroyed after them in reverse
  /// order, but the destructor clears it explicitly first — see above.
  ContextPool Contexts;
  mutable std::mutex Mutex;
  std::vector<std::string> Order;
  std::map<std::string, std::unique_ptr<ServableModel>> Models;
  /// Removed models, kept alive so raw pointers from find() never dangle.
  std::vector<std::unique_ptr<ServableModel>> Retired;
};

} // namespace serve
} // namespace wootz

#endif // WOOTZ_SERVE_BATCHER_H
