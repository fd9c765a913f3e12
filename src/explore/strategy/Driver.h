//===- explore/strategy/Driver.h - Strategy-driven exploration runs ---------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// runStrategyExploration() drives any ExplorationStrategy through the
/// shared ExplorationEngine: each round it asks the strategy for the
/// next configurations, chooses and pre-trains the tuning blocks those
/// proposals are missing (everything already in the store or the
/// cross-run BlockCache is reused), evaluates the proposals on the
/// runtime TaskGraph under the configured schedule, and feeds the
/// results back for the next round — the proposal loop the paper leaves
/// as future work. It is the only exploration loop: the paper's own
/// fixed-subspace sweep (runPruningPipeline) is FixedSubspaceStrategy
/// driven through it.
///
/// Each round runs on one TaskGraph. Under EvalOnly the round's blocks
/// are pre-trained first (serially, pretrainBlocks) and the graph holds
/// only the evaluations; under Overlap each block group is a task and
/// each evaluation depends on the groups its composite vector uses.
/// Workers == 1 runs the graph inline on the calling thread.
///
/// Determinism: the engine's preparation draws first, then per round one
/// base seed expanded per group via pretrainGroupSeed (drawn by
/// pretrainBlocks under EvalOnly, by the driver under Overlap), then one
/// pre-drawn seed per proposal in proposal order. Since strategies are
/// pure functions of the observed results, a rerun from the same
/// generator seed reproduces every proposal and every evaluation
/// bit-exactly — for any Workers value under EvalOnly, and regardless of
/// how many blocks a warm BlockCache satisfied.
///
/// Cancellation: under Overlap with a CancelObjective, once a finished
/// proposal satisfies the objective the rest of its round is cancelled —
/// but only when the strategy declares its rounds preference-ordered
/// (proposalsPreferenceOrdered()); an unordered round must finish, since
/// a later proposal could still win.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_EXPLORE_STRATEGY_DRIVER_H
#define WOOTZ_EXPLORE_STRATEGY_DRIVER_H

#include "src/explore/strategy/Strategy.h"

namespace wootz {

/// Per-round bookkeeping (RunLog counters "strategy.rounds",
/// "strategy.proposals" and "strategy.blocks_reused" carry the same
/// numbers live).
struct StrategyRoundInfo {
  /// Index of the round's first proposal in
  /// StrategyRunResult::Run.Evaluations.
  size_t FirstIndex = 0;
  int Proposals = 0;
  /// Tuning blocks freshly pre-trained for this round.
  int BlocksTrained = 0;
  /// Non-identity block uses served by the store or cache instead of
  /// fresh pre-training (a block's first use counts as trained, every
  /// further use as reused).
  int BlocksReused = 0;
};

/// Everything a strategy-driven run produced.
struct StrategyRunResult {
  /// Shared result shape with runPruningPipeline — except Evaluations
  /// are in *proposal order* (cancelled entries flagged), not sorted by
  /// ascending size, and Blocks accumulates every distinct block any
  /// round chose.
  PipelineResult Run;
  int Rounds = 0;
  int Proposals = 0;
  int BlocksReused = 0;
  std::vector<StrategyRoundInfo> RoundsInfo;
  /// Proposal index of the best evaluation satisfying the objective
  /// (smallest WeightCount for min-ModelSize, highest accuracy for
  /// max-Accuracy; ties to the earliest proposal), -1 when none did. A
  /// preference-ordered round (proposalsPreferenceOrdered()) contributes
  /// only its first satisfying, non-cancelled proposal — for the fixed
  /// strategy that is the paper's first-satisfying-in-exploration-order
  /// rule, the same winner summarizeMeasuredRun() reports.
  int WinnerIndex = -1;
  bool ObjectiveMet = false;
};

/// Runs \p Strategy to completion on \p Data. \p Options carries the
/// schedule, workers, composability, caches, telemetry and cancellation
/// token (see PipelineOptions); \p Objective picks the winner
/// and is what adaptive strategies steer toward — pass the same
/// objective as Options.CancelObjective to also cancel within rounds.
Result<StrategyRunResult> runStrategyExploration(
    const ModelSpec &Spec, const Dataset &Data,
    ExplorationStrategy &Strategy, const TrainMeta &Meta,
    const PipelineOptions &Options, const PruningObjective &Objective,
    Rng &Generator);

} // namespace wootz

#endif // WOOTZ_EXPLORE_STRATEGY_DRIVER_H
