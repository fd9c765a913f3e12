//===- train/Pretrainer.cpp -----------------------------------------------------===//

#include "src/train/Pretrainer.h"

#include "src/nn/Loss.h"
#include "src/nn/Optimizer.h"
#include "src/pruning/Transfer.h"
#include "src/support/Hash.h"
#include "src/support/Stopwatch.h"

using namespace wootz;

uint64_t wootz::pretrainGroupSeed(uint64_t BaseSeed,
                                  const std::vector<TuningBlock> &Group) {
  Fnv1a Digest;
  Digest.mix(BaseSeed);
  for (const TuningBlock &Block : Group)
    Digest.mix(Block.id());
  return Digest.digest();
}

Result<GroupPretrainStats> wootz::pretrainGroup(
    const MultiplexingModel &Model, Graph &FullTrained,
    const std::string &FullPrefix, const std::vector<TuningBlock> &Group,
    const Dataset &Data, const TrainMeta &Meta, CheckpointStore &Store,
    Rng &Generator, const FilterScores *Scores, BlockCache *Cache) {
  const ModelSpec &Spec = Model.spec();
  Stopwatch GroupTimer;
  GroupPretrainStats Stats;

  Graph Network;
  PruneInfo Info;
  Info.Blocks = Group;
  Result<BuildResult> Built =
      Model.build(Network, BuildMode::PreTrain, Info, "full", Generator);
  if (!Built)
    return Built.takeError();

  // Teacher weights come from the trained full model; each student
  // starts from its l1-inherited slice of the teacher.
  transferWeights(Spec, FilterSelections(), FullTrained, FullPrefix,
                  Network, "full");
  for (const BlockPort &Port : Built->Ports) {
    PruneConfig BlockConfig = unprunedConfig(Spec);
    for (int M = 0; M < Port.Block.moduleCount(); ++M)
      BlockConfig[Port.Block.FirstModule + M] = Port.Block.Rates[M];
    const FilterSelections Selections =
        Scores ? selectionsFromScores(Spec, BlockConfig, *Scores)
               : selectFiltersByL1(Spec, BlockConfig, FullTrained,
                                   FullPrefix);
    transferWeights(Spec, Selections, FullTrained, FullPrefix, Network,
                    Port.Prefix, &Port.Layers);
  }

  BatchSampler Sampler(Data.Train, Meta.BatchSize, Generator.fork());
  SgdOptimizer Optimizer(Meta.PretrainLearningRate, Meta.Momentum,
                         Meta.WeightDecay);
  const std::vector<Param *> Params = Network.trainableParams();
  // The group network is local to this call; one context carries the
  // shared teacher forward plus every student's pass, and its move-in
  // input path avoids copying the batch each step.
  ExecContext &Ctx = Network.defaultContext();
  Tensor GradOut;

  for (int Step = 1; Step <= Meta.PretrainSteps; ++Step) {
    Batch Mini = Sampler.next();
    Ctx.setInput(Built->InputNode, std::move(Mini.Images));
    Ctx.forward(Network, /*Training=*/true);
    Network.zeroGrads();
    double StepLoss = 0.0;
    for (const BlockPort &Port : Built->Ports) {
      StepLoss += l2Reconstruction(Ctx.activation(Port.StudentOut),
                                   Ctx.activation(Port.TeacherOut),
                                   GradOut);
      Ctx.seedGradient(Port.StudentOut, GradOut);
    }
    Ctx.backward(Network);
    Optimizer.step(Params);
    StepLoss /= static_cast<double>(Built->Ports.size());
    if (Step == 1)
      Stats.FirstLoss = StepLoss;
    if (Step == Meta.PretrainSteps)
      Stats.LastLoss = StepLoss;
  }

  for (const BlockPort &Port : Built->Ports) {
    Store.capture(Port.Block.id(), Network, Port.Prefix, Port.Layers);
    if (Cache) {
      // Cache publication failing (disk full, read-only mount) must not
      // fail the training run: the block is safely in the store.
      Error E = Cache->publish(Port.Block.id(), Store);
      (void)static_cast<bool>(E);
    }
  }
  Stats.Seconds = GroupTimer.seconds();
  return Stats;
}

Result<PretrainStats> wootz::pretrainBlocks(
    const MultiplexingModel &Model, Graph &FullTrained,
    const std::string &FullPrefix, const std::vector<TuningBlock> &Blocks,
    const Dataset &Data, const TrainMeta &Meta, CheckpointStore &Store,
    Rng &Generator, const FilterScores *Scores, RunLog *Log,
    BlockCache *Cache, size_t FirstGroupIndex) {
  Stopwatch TotalTimer;
  PretrainStats Stats;

  // Drawn unconditionally so the caller's generator advances the same
  // whether every block trains, some load from the cache, or none are
  // pending — a warm run must reproduce the cold run's later draws.
  const uint64_t BaseSeed = Generator.next();

  // Identity blocks reuse the teacher's weights; already-stored blocks
  // are shared across calls (the cross-network reuse the paper banks
  // on); blocks found in the cross-run cache load from disk instead of
  // training.
  std::vector<TuningBlock> Pending;
  for (const TuningBlock &Block : Blocks) {
    if (Block.isIdentity() || Store.contains(Block.id()))
      continue;
    if (Cache && Cache->fetch(Block.id(), Store))
      continue;
    Pending.push_back(Block);
  }
  Stats.BlockCount = static_cast<int>(Pending.size());
  if (Pending.empty())
    return Stats;

  const std::vector<std::vector<TuningBlock>> Groups =
      partitionIntoGroups(std::move(Pending));
  Stats.GroupCount = static_cast<int>(Groups.size());

  for (size_t GroupIndex = 0; GroupIndex < Groups.size(); ++GroupIndex) {
    const double StartAt = Log ? Log->now() : 0.0;
    Rng GroupGen(pretrainGroupSeed(BaseSeed, Groups[GroupIndex]));
    Result<GroupPretrainStats> GroupStats =
        pretrainGroup(Model, FullTrained, FullPrefix, Groups[GroupIndex],
                      Data, Meta, Store, GroupGen, Scores, Cache);
    if (!GroupStats)
      return GroupStats.takeError();
    if (Log) {
      SpanEvent Span;
      Span.Name =
          "pretrain:g" + std::to_string(FirstGroupIndex + GroupIndex);
      Span.ReadyAt = StartAt;
      Span.StartAt = StartAt;
      Span.EndAt = Log->now();
      Log->record(std::move(Span));
    }
    Stats.FirstLoss += GroupStats->FirstLoss;
    Stats.LastLoss += GroupStats->LastLoss;
    Stats.GroupSeconds.push_back(GroupStats->Seconds);
  }
  Stats.FirstLoss /= Stats.GroupCount;
  Stats.LastLoss /= Stats.GroupCount;
  Stats.Seconds = TotalTimer.seconds();
  return Stats;
}
