//===- explore/strategy/Driver.cpp --------------------------------------------===//

#include "src/explore/strategy/Driver.h"

#include "src/explore/Engine.h"
#include "src/identifier/Identifier.h"
#include "src/identifier/TuningBlock.h"
#include "src/runtime/TaskGraph.h"

#include <algorithm>
#include <map>
#include <set>
#include <thread>

using namespace wootz;

namespace {
/// Preference between two objective-satisfying evaluations.
bool preferredOver(const EvaluatedConfig &A, const EvaluatedConfig &B,
                   const PruningObjective &Objective) {
  if (Objective.Optimize == Metric::ModelSize)
    return Objective.Minimize ? A.WeightCount < B.WeightCount
                              : A.WeightCount > B.WeightCount;
  return Objective.Minimize ? A.FinalAccuracy < B.FinalAccuracy
                            : A.FinalAccuracy > B.FinalAccuracy;
}
} // namespace

Result<StrategyRunResult> wootz::runStrategyExploration(
    const ModelSpec &Spec, const Dataset &Data,
    ExplorationStrategy &Strategy, const TrainMeta &Meta,
    const PipelineOptions &Options, const PruningObjective &Objective,
    Rng &Generator) {
  if (Options.Workers < 0)
    return Error::failure("PipelineOptions::Workers must be non-negative "
                          "(0 means one per hardware thread), got " +
                          std::to_string(Options.Workers));
  const unsigned Workers =
      Options.Workers == 0
          ? std::max(1u, std::thread::hardware_concurrency())
          : static_cast<unsigned>(Options.Workers);
  const bool Overlap = Options.Schedule == PipelineSchedule::Overlap;
  // Only a strategy that emits best-first rounds lets the driver discard
  // a round's tail once an earlier proposal satisfies the objective, and
  // only then does that proposal outrank the rest of its round.
  const bool Ordered = Strategy.proposalsPreferenceOrdered();
  const bool CancelWithinRound =
      Overlap && Options.CancelObjective && Ordered;

  StrategyRunResult Out;
  PipelineResult &Run = Out.Run;
  ExplorationEngine Engine(Spec, Data, Meta, Options);
  RunLog &Log = Engine.log();
  if (Error E = Engine.prepare(Run, Generator))
    return E;

  CheckpointStore &Store = Engine.store();
  BlockCache &Cache = Engine.blockCache();
  std::set<std::string> SeenBlockIds;
  size_t EvalCounter = 0;  ///< Global eval-span numbering across rounds.
  size_t GroupCounter = 0; ///< Global pretrain-span numbering.
  // Pre-training losses average over every group the run trained. Rounds
  // merge as a running weighted mean, so a single round reports its own
  // mean bit for bit.
  int LossGroups = 0;
  auto mergeLosses = [&](double FirstMean, double LastMean, int Groups) {
    if (Groups == 0)
      return;
    LossGroups += Groups;
    const double Weight = static_cast<double>(Groups) / LossGroups;
    Run.Pretrain.FirstLoss += (FirstMean - Run.Pretrain.FirstLoss) * Weight;
    Run.Pretrain.LastLoss += (LastMean - Run.Pretrain.LastLoss) * Weight;
  };

  // A pure strategy over a finite rate lattice terminates, but a buggy
  // one must not hang the serve worker: cap the rounds far above any
  // real exploration.
  const int MaxDriverRounds = 4096;
  for (int RoundIndex = 0; RoundIndex < MaxDriverRounds; ++RoundIndex) {
    if (Engine.cancelRequested())
      return Error::failure("job cancelled");
    Result<std::vector<PruneConfig>> Next = Strategy.propose(Run.Evaluations);
    if (!Next)
      return Next.takeError();
    if (Next->empty())
      break;
    const std::vector<PruneConfig> Proposals = Next.take();
    for (const PruneConfig &Config : Proposals)
      if (static_cast<int>(Config.size()) != Spec.moduleCount())
        return Error::failure(
            "strategy '" + std::string(Strategy.name()) +
            "' proposed a configuration with " +
            std::to_string(Config.size()) + " rates; the model has " +
            std::to_string(Spec.moduleCount()) + " modules");

    StrategyRoundInfo Info;
    Info.FirstIndex = Run.Evaluations.size();
    Info.Proposals = static_cast<int>(Proposals.size());
    Log.bump("strategy.rounds");
    Log.bump("strategy.proposals", Info.Proposals);

    // The round's tuning blocks and composite vectors. Blocks live in
    // the engine's store across rounds, so only what this round's
    // proposals are missing gets pre-trained.
    std::vector<TuningBlock> RoundBlocks;
    std::vector<std::vector<int>> CompositeVectors;
    size_t NeededBlockUses = 0;
    if (Options.UseComposability) {
      if (Options.UseIdentifier) {
        IdentifierResult Identified = identifyTuningBlocks(
            Spec.moduleCount(), Proposals, subspaceRateAlphabet(Proposals));
        RoundBlocks = std::move(Identified.Blocks);
        CompositeVectors = std::move(Identified.CompositeVectors);
      } else {
        RoundBlocks = perModuleBlocks(Proposals);
        CompositeVectors = coverWithBlocks(Proposals, RoundBlocks);
      }
      for (const std::vector<int> &Vector : CompositeVectors)
        for (int BlockIndex : Vector)
          NeededBlockUses += !RoundBlocks[BlockIndex].isIdentity();
      for (const TuningBlock &Block : RoundBlocks)
        if (SeenBlockIds.insert(Block.id()).second)
          Run.Blocks.push_back(Block);
    }

    // Pre-draw this round's randomness in a schedule-independent order:
    // one pretrain draw, then one seed per proposal.
    std::vector<std::vector<TuningBlock>> Groups;
    std::vector<Rng> GroupRngs;
    std::map<std::string, size_t> GroupOfBlock;
    if (Options.UseComposability && !Overlap) {
      if (Engine.cancelRequested())
        return Error::failure("job cancelled");
      Result<PretrainStats> Stats = pretrainBlocks(
          Engine.model(), Engine.teacher(), "full", RoundBlocks, Data, Meta,
          Store, Generator, &Engine.scores(), &Log, &Cache);
      if (!Stats)
        return Stats.takeError();
      Info.BlocksTrained = Stats->BlockCount;
      Run.Pretrain.BlockCount += Stats->BlockCount;
      Run.Pretrain.GroupCount += Stats->GroupCount;
      Run.Pretrain.Seconds += Stats->Seconds;
      Run.Pretrain.GroupSeconds.insert(Run.Pretrain.GroupSeconds.end(),
                                       Stats->GroupSeconds.begin(),
                                       Stats->GroupSeconds.end());
      mergeLosses(Stats->FirstLoss, Stats->LastLoss, Stats->GroupCount);
    } else if (Options.UseComposability) {
      // Overlap: the same partition pretrainBlocks would use, seeded
      // from one base draw plus the group's block ids — independent of
      // what the store or cache already holds, so warm and cold runs
      // draw identically.
      const uint64_t BaseSeed = Generator.next();
      std::vector<TuningBlock> Pending;
      for (const TuningBlock &Block : RoundBlocks) {
        if (Block.isIdentity() || Store.contains(Block.id()))
          continue;
        if (Cache.enabled() && Cache.fetch(Block.id(), Store))
          continue;
        Pending.push_back(Block);
      }
      Run.Pretrain.BlockCount += static_cast<int>(Pending.size());
      Groups = partitionIntoGroups(std::move(Pending));
      Run.Pretrain.GroupCount += static_cast<int>(Groups.size());
      for (size_t G = 0; G < Groups.size(); ++G) {
        GroupRngs.emplace_back(pretrainGroupSeed(BaseSeed, Groups[G]));
        for (const TuningBlock &Block : Groups[G])
          GroupOfBlock[Block.id()] = G;
      }
    }

    const size_t Count = Proposals.size();
    std::vector<uint64_t> Seeds(Count);
    for (uint64_t &Seed : Seeds)
      Seed = Generator.next();
    const size_t Base = Run.Evaluations.size();
    Run.Evaluations.resize(Base + Count);

    // One graph per round. Under EvalOnly the blocks are already trained,
    // so it holds only the evaluations and nothing is cancelled; under
    // Overlap each block group is a task too, and each evaluation waits
    // only for the groups its composite vector draws from — an early
    // (small) configuration fine-tunes while unrelated blocks still
    // pre-train. Concurrent evaluations share only the teacher's
    // read-only parameters (distillation forwards it through a private
    // ExecContext).
    TaskGraph Graph(&Log);
    std::vector<GroupPretrainStats> GroupStats(Groups.size());

    // Which groups each evaluation needs, and per group the earliest
    // round position served (its scheduling urgency).
    std::vector<std::vector<size_t>> EvalGroups(Count);
    std::vector<size_t> GroupMinPos(Groups.size(), Count);
    for (size_t P = 0; P < Count && !Groups.empty(); ++P) {
      std::set<size_t> NeededGroups;
      for (int BlockIndex : CompositeVectors[P]) {
        auto It = GroupOfBlock.find(RoundBlocks[BlockIndex].id());
        if (It != GroupOfBlock.end())
          NeededGroups.insert(It->second);
      }
      EvalGroups[P].assign(NeededGroups.begin(), NeededGroups.end());
      for (size_t G : NeededGroups)
        GroupMinPos[G] = std::min(GroupMinPos[G], P);
    }

    std::vector<TaskId> GroupTask(Groups.size());
    for (size_t G = 0; G < Groups.size(); ++G)
      GroupTask[G] = Graph.add(
          "pretrain:g" + std::to_string(GroupCounter + G), {},
          -static_cast<int>(GroupMinPos[G]), [&, G]() -> Error {
            if (Engine.cancelRequested())
              return Error::failure("job cancelled");
            Result<GroupPretrainStats> Stats = pretrainGroup(
                Engine.model(), Engine.teacher(), "full", Groups[G], Data,
                Meta, Store, GroupRngs[G], &Engine.scores(), &Cache);
            if (!Stats)
              return Stats.takeError();
            GroupStats[G] = *Stats;
            return Error::success();
          });

    std::vector<TaskId> EvalTask(Count);
    for (size_t P = 0; P < Count; ++P) {
      std::vector<TaskId> Deps;
      for (size_t G : EvalGroups[P])
        Deps.push_back(GroupTask[G]);
      EvalTask[P] = Graph.add(
          "eval:" + std::to_string(EvalCounter + P), std::move(Deps),
          -static_cast<int>(P), [&, P]() -> Error {
            std::vector<TuningBlock> Composite;
            if (Options.UseComposability)
              for (int BlockIndex : CompositeVectors[P])
                Composite.push_back(RoundBlocks[BlockIndex]);
            Result<EvaluatedConfig> Evaluated = Engine.evaluateConfig(
                Proposals[P], Options.UseComposability ? &Composite : nullptr,
                Seeds[P]);
            if (!Evaluated)
              return Evaluated.takeError();
            Run.Evaluations[Base + P] = Evaluated.take();
            const EvaluatedConfig &Mine = Run.Evaluations[Base + P];
            // Preference-ordered rounds: once this proposal satisfies
            // the objective, nothing later in the round can beat it —
            // stop paying for it. Earlier proposals stay: they could
            // still win.
            if (CancelWithinRound &&
                Options.CancelObjective->satisfied(Mine.WeightCount,
                                                   Mine.FinalAccuracy)) {
              for (size_t Later = P + 1; Later < Count; ++Later)
                Graph.cancel(EvalTask[Later]);
              for (size_t G = 0; G < Groups.size(); ++G)
                if (GroupMinPos[G] > P)
                  Graph.cancel(GroupTask[G]);
            }
            return Error::success();
          });
    }

    // Workers == 1 runs inline on the calling thread.
    if (Error E = Graph.run(Workers > 1 ? Workers : 0))
      return E;

    double FirstLoss = 0.0, LastLoss = 0.0;
    int TrainedGroups = 0;
    for (size_t G = 0; G < Groups.size(); ++G) {
      if (Graph.state(GroupTask[G]) != TaskState::Done)
        continue;
      Info.BlocksTrained += static_cast<int>(Groups[G].size());
      Run.Pretrain.GroupSeconds.push_back(GroupStats[G].Seconds);
      Run.Pretrain.Seconds += GroupStats[G].Seconds;
      FirstLoss += GroupStats[G].FirstLoss;
      LastLoss += GroupStats[G].LastLoss;
      ++TrainedGroups;
    }
    if (TrainedGroups > 0)
      mergeLosses(FirstLoss / TrainedGroups, LastLoss / TrainedGroups,
                  TrainedGroups);

    // Cancelled proposals still appear in the observed sequence (the
    // strategy skips them), with the size fields the config determines.
    for (size_t P = 0; P < Count; ++P) {
      if (Graph.state(EvalTask[P]) != TaskState::Cancelled)
        continue;
      EvaluatedConfig &E = Run.Evaluations[Base + P];
      E.Cancelled = true;
      E.Config = Proposals[P];
      E.WeightCount = modelWeightCount(Spec, Proposals[P]);
      E.SizeFraction = static_cast<double>(E.WeightCount) /
                       static_cast<double>(Run.FullWeightCount);
    }

    Info.BlocksReused = static_cast<int>(NeededBlockUses) -
                        Info.BlocksTrained;
    Log.bump("strategy.blocks_reused", Info.BlocksReused);
    Out.BlocksReused += Info.BlocksReused;
    Out.Proposals += Info.Proposals;
    ++Out.Rounds;
    Out.RoundsInfo.push_back(Info);
    EvalCounter += Count;
    GroupCounter += Groups.size();
  }

  // The winner: best objective-satisfying evaluation in the objective's
  // own preference; earliest proposal on ties. A preference-ordered round
  // offers only its first satisfying proposal — the strategy ranked the
  // round, so a later proposal (which may or may not have escaped
  // cancellation, depending on timing) must not outrank it.
  for (const StrategyRoundInfo &Round : Out.RoundsInfo)
    for (size_t I = Round.FirstIndex;
         I < Round.FirstIndex + static_cast<size_t>(Round.Proposals); ++I) {
      const EvaluatedConfig &E = Run.Evaluations[I];
      if (E.Cancelled ||
          !Objective.satisfied(E.WeightCount, E.FinalAccuracy))
        continue;
      Out.ObjectiveMet = true;
      if (Out.WinnerIndex < 0 ||
          preferredOver(E, Run.Evaluations[Out.WinnerIndex], Objective))
        Out.WinnerIndex = static_cast<int>(I);
      if (Ordered)
        break;
    }

  for (const EvaluatedConfig &E : Run.Evaluations)
    Run.EvaluationSeconds += E.TrainSeconds;
  Run.Telemetry = Log.snapshot();
  if (!Options.TelemetryPath.empty())
    if (Error E = Log.writeJsonl(Options.TelemetryPath))
      return E;
  return Out;
}
