//===- serve/Batcher.cpp ---------------------------------------------------===//

#include "src/serve/Batcher.h"

#include <algorithm>
#include <chrono>
#include <cstring>

using namespace wootz;
using namespace wootz::serve;

Batcher::Batcher(std::shared_ptr<AssembledNetwork> Network,
                 BatcherOptions Options, RunLog *Log,
                 LatencyHistogram *Latency,
                 std::shared_ptr<const ExecPlan> Plan, ContextPool *Pool)
    : Network(std::move(Network)), Plan(std::move(Plan)), Options(Options),
      Log(Log), Latency(Latency), OwnContexts(Options.Pool),
      Pool(Pool ? Pool : &OwnContexts) {
  assert(this->Network && "batcher needs a network");
}

Batcher::~Batcher() { stop(); }

Result<Prediction> Batcher::predict(const Tensor &Sample) {
  assert(Sample.shape().rank() == 4 && Sample.shape()[0] == 1 &&
         "predict takes a single [1,C,H,W] sample");
  const auto Start = std::chrono::steady_clock::now();
  Pending Mine;
  Mine.Sample = &Sample;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    if (Stopping)
      return Error::failure("model is draining");
    if (Queue.size() >= Options.MaxQueuedRequests)
      return Error::failure("model overloaded");
    Queue.push_back(&Mine);
    Arrived.notify_all();
    // Lead while our sample is queued and a slot is free; otherwise
    // follow until a slot frees or whichever leader took it finishes.
    // A leader keeps leading until its own sample is done, since FIFO
    // order may put it in a later batch than the first one it cuts.
    while (!Mine.Done) {
      if (!Mine.Taken && Running < std::max(1, Options.Workers))
        lead(Lock);
      else
        Finished.wait(Lock);
    }
  }
  if (!Mine.Error.empty())
    return Error::failure(Mine.Error);

  Prediction Out;
  Out.Logits = std::move(Mine.Logits);
  Out.BatchSize = Mine.BatchSize;
  for (size_t I = 1; I < Out.Logits.size(); ++I)
    if (Out.Logits[I] > Out.Logits[Out.ArgMax])
      Out.ArgMax = static_cast<int>(I);
  if (Latency)
    Latency->record(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Start)
                        .count());
  if (Log)
    Log->bump("serve.predict.requests");
  return Out;
}

void Batcher::lead(std::unique_lock<std::mutex> &Lock) {
  ++Running;
  const size_t Cap = static_cast<size_t>(std::max(1, Options.MaxBatch));
  // Optional linger: give companions MaxWaitMicros to arrive, but never
  // more, and stop waiting once a full batch is queued.
  if (Options.MaxWaitMicros > 0)
    Arrived.wait_until(Lock,
                       std::chrono::steady_clock::now() +
                           std::chrono::microseconds(Options.MaxWaitMicros),
                       [&] { return Stopping || Queue.size() >= Cap; });
  std::vector<Pending *> Batch;
  while (!Queue.empty() && Batch.size() < Cap) {
    Pending *P = Queue.front();
    Queue.pop_front();
    P->Taken = true;
    Batch.push_back(P);
  }
  // The linger releases the lock, so another leader or stop() may have
  // emptied the queue meanwhile: then just give the slot back.
  if (!Batch.empty()) {
    // Forwards run unlocked, each through a context borrowed for this
    // batch: the model's parameters are read-only during serving, so
    // concurrent leaders share one Graph (or frozen ExecPlan) without
    // copying a weight.
    Lock.unlock();
    {
      ContextPool::Lease Lease = Pool->acquire(Network, Plan.get());
      if (Plan)
        runBatch(Lease.plan(), Batch);
      else
        runBatch(Lease.exec(), Batch);
    }
    Lock.lock();
    for (Pending *P : Batch)
      P->Done = true;
  }
  --Running;
  Finished.notify_all();
}

Tensor Batcher::assembleBatch(const std::vector<Pending *> &Batch) {
  const Shape &One = Batch.front()->Sample->shape();
  Tensor Input(
      Shape{static_cast<int>(Batch.size()), One[1], One[2], One[3]});
  const size_t SampleSize = Batch.front()->Sample->size();
  for (size_t I = 0; I < Batch.size(); ++I)
    std::memcpy(Input.data() + I * SampleSize, Batch[I]->Sample->data(),
                SampleSize * sizeof(float));
  return Input;
}

void Batcher::fanOut(const Tensor &Logits, std::vector<Pending *> &Batch) {
  const int Count = static_cast<int>(Batch.size());
  if (Logits.shape().rank() != 2 || Logits.shape()[0] != Count) {
    for (Pending *P : Batch)
      P->Error = "model produced logits of unexpected shape " +
                 Logits.shape().str();
    return;
  }
  const int Classes = Logits.shape()[1];
  for (int I = 0; I < Count; ++I) {
    Pending &P = *Batch[static_cast<size_t>(I)];
    P.Logits = Tensor(Shape{Classes});
    std::memcpy(P.Logits.data(),
                Logits.data() + static_cast<size_t>(I) * Classes,
                static_cast<size_t>(Classes) * sizeof(float));
    P.BatchSize = Count;
  }
  if (Log) {
    Log->bump("serve.predict.batches");
    Log->bump("serve.predict.batched_samples", Count);
    if (Count > 1)
      Log->bump("serve.predict.coalesced", Count - 1);
  }
}

void Batcher::runBatch(ExecContext &Ctx, std::vector<Pending *> &Batch) {
  Tensor Input = assembleBatch(Batch);

  const Graph &Net = Network->Network;
  Ctx.setInput(Network->InputNode, std::move(Input));
  Ctx.forward(Net, /*Training=*/false);
  // User-named logits node: resolve through the checked accessor so a
  // bad name surfaces as a clean per-request error, never an abort.
  Result<const Tensor *> Found = Ctx.findActivation(Network->LogitsNode);
  if (!Found) {
    for (Pending *P : Batch)
      P->Error = Found.message();
    return;
  }
  fanOut(**Found, Batch);
}

void Batcher::runBatch(PlanContext &Ctx, std::vector<Pending *> &Batch) {
  const Tensor Input = assembleBatch(Batch);
  // The plan was compiled against the model's registered input extents,
  // so the only surprise a request can spring is a mismatched sample
  // shape; fail the batch cleanly rather than tripping the assertion.
  const Shape &S = Input.shape();
  const ExecPlan &P = *Ctx.plan();
  if (S[1] != P.inputChannels() || S[2] != P.inputHeight() ||
      S[3] != P.inputWidth()) {
    for (Pending *Req : Batch)
      Req->Error = "sample shape " + S.str() +
                   " does not match the compiled plan's input extents";
    return;
  }
  fanOut(Ctx.run(Input), Batch);
  if (Log)
    Log->bump("serve.predict.plan_batches");
}

void Batcher::stop() {
  std::unique_lock<std::mutex> Lock(Mutex);
  if (!Stopping) {
    Stopping = true;
    // Everything still queued fails fast: drain means "finish what is
    // running, refuse the rest", and these have not started.
    for (Pending *P : Queue) {
      P->Error = "model is draining";
      P->Done = true;
    }
    Queue.clear();
    Arrived.notify_all();
    Finished.notify_all();
  }
  // Forwards in flight run on their leaders' threads; wait them out.
  Finished.wait(Lock, [&] { return Running == 0; });
}

//===----------------------------------------------------------------------===//
// ModelRegistry
//===----------------------------------------------------------------------===//

Error ModelRegistry::add(const std::string &Id,
                         std::shared_ptr<AssembledNetwork> Network,
                         int Channels, int Height, int Width, int Classes,
                         std::string Origin) {
  if (!Network)
    return Error::failure("cannot register a null network");
  auto Model = std::make_unique<ServableModel>();
  Model->Id = Id;
  Model->Channels = Channels;
  Model->Height = Height;
  Model->Width = Width;
  Model->Classes = Classes;
  Model->Origin = std::move(Origin);
  if (Batching.UsePlans) {
    // Freeze the model once, at registration: every forward then
    // executes the shared immutable plan through a private PlanContext.
    // A graph the plan compiler cannot lower (exotic layer kinds) is not
    // an error — it just serves through the interpreter.
    Result<ExecPlan> Compiled = ExecPlan::compile(
        Network->Network, Network->InputNode, Network->LogitsNode,
        Channels, Height, Width);
    if (Compiled)
      Model->Plan = std::make_shared<const ExecPlan>(Compiled.take());
    if (Log)
      Log->bump(Model->Plan ? "serve.models.plans_compiled"
                            : "serve.models.plan_fallback");
  }
  Model->Engine = std::make_unique<Batcher>(
      std::move(Network), Batching, Log, Latency, Model->Plan, &Contexts);
  std::lock_guard<std::mutex> Lock(Mutex);
  auto [It, Inserted] = Models.emplace(Id, std::move(Model));
  (void)It;
  if (!Inserted)
    return Error::failure("model id '" + Id + "' is already registered");
  Order.push_back(Id);
  if (Log)
    Log->bump("serve.models.registered");
  return Error::success();
}

Error ModelRegistry::remove(const std::string &Id) {
  std::unique_ptr<ServableModel> Victim;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Models.find(Id);
    if (It == Models.end())
      return Error::failure("unknown model '" + Id + "'");
    Victim = std::move(It->second);
    Models.erase(It);
    Order.erase(std::remove(Order.begin(), Order.end(), Id), Order.end());
  }
  // Stop outside the lock: predict() callers inside the engine must be
  // able to finish while we wait for their forwards.
  Victim->Engine->stop();
  std::lock_guard<std::mutex> Lock(Mutex);
  Retired.push_back(std::move(Victim));
  if (Log)
    Log->bump("serve.models.removed");
  return Error::success();
}

ServableModel *ModelRegistry::find(const std::string &Id) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Models.find(Id);
  return It == Models.end() ? nullptr : It->second.get();
}

std::vector<std::string> ModelRegistry::ids() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Order;
}

size_t ModelRegistry::count() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Models.size();
}

void ModelRegistry::stopAll() {
  std::vector<ServableModel *> All;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (auto &[Id, Model] : Models)
      All.push_back(Model.get());
  }
  for (ServableModel *Model : All)
    Model->Engine->stop();
}
