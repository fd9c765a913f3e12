//===- explore/Engine.h - Shared exploration machinery ----------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-run machinery of the exploration driver
/// (runStrategyExploration, which runPruningPipeline wraps): prepare one
/// trained full model, score filter importances once, bind the cross-run
/// block cache, and then build + fine-tune pruned networks one
/// configuration at a time. The driver keeps the orchestration (tuning-
/// block choice, TaskGraph wiring, cancellation rules) on top; tools that
/// time the preparation alone construct an engine directly.
///
/// Determinism contract: prepare() draws from the caller's generator in
/// a fixed order (full-model preparation only; filter scoring uses its
/// own fixed-seed sampler), and evaluateConfig() draws nothing from it —
/// every evaluation derives all randomness from its pre-drawn seed. This
/// is what makes results bit-identical across Workers values and across
/// warm/cold block-cache runs.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_EXPLORE_ENGINE_H
#define WOOTZ_EXPLORE_ENGINE_H

#include "src/explore/Pipeline.h"
#include "src/train/BlockCache.h"

#include <optional>

namespace wootz {

/// Shared state and steps of one exploration run. Construct, call
/// prepare() once, then evaluateConfig() per configuration (thread-safe
/// across configurations: evaluations share only the teacher's read-only
/// parameters and the scores/store, exactly as the pipeline always did).
class ExplorationEngine {
public:
  ExplorationEngine(const ModelSpec &Spec, const Dataset &Data,
                    const TrainMeta &Meta, const PipelineOptions &Options);

  /// The telemetry sink: the caller-supplied log when
  /// PipelineOptions::Log is set, a run-local one otherwise.
  RunLog &log() { return Log; }

  /// True when the caller's CancelToken has been flipped.
  bool cancelRequested() const {
    return Options.Cancel && Options.Cancel->cancelled();
  }

  /// Phase 0: the trained full model every pruned network derives from,
  /// filter importances (a property of that model, scored once), and the
  /// block-cache context binding. Fills \p Run's FullAccuracy and
  /// FullWeightCount. Fails with "job cancelled before it started" when
  /// cancellation raced the submission.
  Error prepare(PipelineResult &Run, Rng &Generator);

  const MultiplexingModel &model() const { return Model; }
  /// The trained full model's graph (valid after prepare()).
  Graph &teacher() { return Full->Network; }
  const FilterScores &scores() const { return ScoreMap; }
  CheckpointStore &store() { return Store; }
  BlockCache &blockCache() { return Cache; }
  size_t fullWeightCount() const { return FullWeightCount; }

  /// Builds, initializes and fine-tunes \p Config with the pre-drawn
  /// \p Seed. \p Composite lists the tuning blocks to overlay from the
  /// store (null for baseline default networks). Fails with
  /// "job cancelled" when the token flipped before work started.
  Result<EvaluatedConfig>
  evaluateConfig(const PruneConfig &Config,
                 const std::vector<TuningBlock> *Composite, uint64_t Seed);

private:
  const ModelSpec &Spec;
  const Dataset &Data;
  const TrainMeta &Meta;
  const PipelineOptions &Options;
  const MultiplexingModel Model;
  // Telemetry goes to the caller's log when one is supplied (live
  // observers sample it mid-run); otherwise to the run-local OwnLog.
  RunLog OwnLog;
  RunLog &Log;
  CheckpointStore Store;
  BlockCache Cache;
  std::optional<FullModel> Full;
  FilterScores ScoreMap;
  size_t FullWeightCount = 0;
};

} // namespace wootz

#endif // WOOTZ_EXPLORE_ENGINE_H
