//===- explore/Pipeline.cpp -----------------------------------------------------===//

#include "src/explore/Pipeline.h"

#include "src/explore/strategy/Driver.h"
#include "src/explore/strategy/FixedSubspace.h"

#include <algorithm>

using namespace wootz;

Result<PipelineResult> wootz::runPruningPipeline(
    const ModelSpec &Spec, const Dataset &Data,
    std::vector<PruneConfig> Subspace, const TrainMeta &Meta,
    const PipelineOptions &Options, Rng &Generator) {
  if (Subspace.empty())
    return Error::failure("the promising subspace is empty");
  // The cancellation objective sets the exploration order; without one
  // the paper's min-ModelSize order applies.
  const PruningObjective SmallestFirst = smallestMeetingAccuracy(0.0);
  const PruningObjective &Order =
      Options.CancelObjective ? *Options.CancelObjective : SmallestFirst;
  FixedSubspaceStrategy Strategy(Spec, std::move(Subspace), Order);
  Result<StrategyRunResult> Explored = runStrategyExploration(
      Spec, Data, Strategy, Meta, Options, Order, Generator);
  if (!Explored)
    return Explored.takeError();
  // Storage order is ascending model size whatever the exploration order.
  PipelineResult Run = std::move(Explored->Run);
  if (!Order.exploreSmallestFirst())
    std::reverse(Run.Evaluations.begin(), Run.Evaluations.end());
  return Run;
}

ExplorationSummary
wootz::summarizeExploration(const PipelineResult &Run,
                            const PruningObjective &Objective, int Nodes) {
  const size_t Count = Run.Evaluations.size();
  std::vector<double> Seconds(Count);
  std::vector<bool> Satisfies(Count);
  // Evaluations are stored smallest-first; a max-Accuracy objective
  // walks them from the other end.
  const bool SmallestFirst = Objective.exploreSmallestFirst();
  for (size_t I = 0; I < Count; ++I) {
    const EvaluatedConfig &E =
        Run.Evaluations[SmallestFirst ? I : Count - 1 - I];
    Seconds[I] = E.TrainSeconds;
    Satisfies[I] = Objective.satisfied(E.WeightCount, E.FinalAccuracy);
  }

  const ExplorationOutcome Outcome =
      simulateExploration(Seconds, Satisfies, Nodes);
  ExplorationSummary Summary;
  Summary.ConfigsEvaluated = Outcome.ConfigsEvaluated;
  Summary.WinnerIndex = Outcome.WinnerIndex;
  Summary.PretrainSeconds = pretrainMakespan(Run.Pretrain.GroupSeconds,
                                             Nodes);
  Summary.Seconds = Outcome.Seconds + Summary.PretrainSeconds;
  Summary.OverheadFraction =
      Summary.Seconds > 0.0 ? Summary.PretrainSeconds / Summary.Seconds
                            : 0.0;
  if (Outcome.WinnerIndex >= 0) {
    const size_t Index = SmallestFirst
                             ? Outcome.WinnerIndex
                             : Count - 1 - Outcome.WinnerIndex;
    Summary.WinnerSizeFraction = Run.Evaluations[Index].SizeFraction;
  }
  return Summary;
}

ExplorationSummary
wootz::summarizeMeasuredRun(const PipelineResult &Run,
                            const PruningObjective &Objective) {
  ExplorationSummary Summary;
  Summary.Measured = true;
  const size_t Count = Run.Evaluations.size();
  const bool SmallestFirst = Objective.exploreSmallestFirst();
  for (size_t P = 0; P < Count; ++P) {
    const size_t Index = SmallestFirst ? P : Count - 1 - P;
    const EvaluatedConfig &E = Run.Evaluations[Index];
    if (E.Cancelled)
      continue;
    ++Summary.ConfigsEvaluated;
    if (Summary.WinnerIndex < 0 &&
        Objective.satisfied(E.WeightCount, E.FinalAccuracy)) {
      Summary.WinnerIndex = static_cast<int>(P);
      Summary.WinnerSizeFraction = E.SizeFraction;
    }
  }
  // Measured semantics: Seconds is the real makespan (pre-training and
  // evaluation already overlap inside it), and overhead is pre-training's
  // share of total busy time.
  Summary.Seconds = Run.Telemetry.makespan();
  Summary.PretrainSeconds = Run.Telemetry.busySeconds("pretrain");
  const double Busy =
      Summary.PretrainSeconds + Run.Telemetry.busySeconds("eval");
  Summary.OverheadFraction =
      Busy > 0.0 ? Summary.PretrainSeconds / Busy : 0.0;
  return Summary;
}
