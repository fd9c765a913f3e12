//===- train/Pretrainer.h - Teacher-Student block pre-training -----------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The local training phase of composability-based pruning (§6.1): each
/// pruned tuning block trains against the trained full model's activation
/// maps (min ||O - O'||^2), with only the block's parameters updated.
/// Blocks are partitioned into non-overlapping groups (§6.2) and each
/// group trains concurrently against one teacher execution per step —
/// the teacher's activations are computed once and reused by all blocks
/// of the group, exactly the reuse Figure 5(b) describes.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_TRAIN_PRETRAINER_H
#define WOOTZ_TRAIN_PRETRAINER_H

#include "src/compiler/NetsFactory.h"
#include "src/compiler/Solver.h"
#include "src/data/Dataset.h"
#include "src/pruning/Importance.h"
#include "src/runtime/RunLog.h"
#include "src/train/BlockCache.h"
#include "src/train/CheckpointStore.h"

namespace wootz {

/// Cost accounting of a pre-training run.
struct PretrainStats {
  int BlockCount = 0;
  int GroupCount = 0;
  double Seconds = 0.0; ///< Total wall-clock pre-training time.
  /// Wall-clock seconds per group, for the multi-node schedule
  /// simulation (groups are distributed round-robin over nodes).
  std::vector<double> GroupSeconds;
  /// Mean reconstruction loss per block at the first and last step, for
  /// verifying the blocks actually learned.
  double FirstLoss = 0.0;
  double LastLoss = 0.0;
};

/// Per-group cost and loss accounting from pretrainGroup().
struct GroupPretrainStats {
  double Seconds = 0.0;
  /// Mean reconstruction loss over the group's blocks at the first and
  /// last training step.
  double FirstLoss = 0.0;
  double LastLoss = 0.0;
};

/// Pre-trains one non-overlapping block group against the teacher
/// \p FullTrained (nodes "<FullPrefix>/...") and captures each trained
/// block into \p Store under its canonical id. This is the unit the
/// runtime scheduler dispatches: groups only read the teacher and only
/// write distinct store keys, so distinct groups may train concurrently
/// (each with its own \p Generator). The caller is responsible for
/// filtering out identity and already-stored blocks. When \p Cache is
/// given, each freshly trained block is also published to the cross-run
/// cache (publish failures are non-fatal — the block lives in \p Store
/// regardless).
Result<GroupPretrainStats>
pretrainGroup(const MultiplexingModel &Model, Graph &FullTrained,
              const std::string &FullPrefix,
              const std::vector<TuningBlock> &Group, const Dataset &Data,
              const TrainMeta &Meta, CheckpointStore &Store,
              Rng &Generator, const FilterScores *Scores = nullptr,
              BlockCache *Cache = nullptr);

/// Derives the training seed of one block group from a base draw: a
/// hash of \p BaseSeed and the group's block ids. Because the seed
/// depends only on the group's contents (not on how many other groups
/// train, or trained before it), a group produces bit-identical weights
/// whether the surrounding run is cold, warm, or resumed mid-way with
/// some groups already cached.
uint64_t pretrainGroupSeed(uint64_t BaseSeed,
                           const std::vector<TuningBlock> &Group);

/// Pre-trains \p Blocks with \p FullTrained (nodes "<FullPrefix>/...")
/// as the teacher and stores each trained block in \p Store under its
/// canonical id. Identity blocks are skipped (they reuse the teacher's
/// weights directly). Blocks are initialized by weight inheritance
/// before training — ranked by \p Scores when given, by l1 norms
/// otherwise. Groups run serially, in partition order; exactly one
/// value is drawn from \p Generator (cached or empty pending sets draw
/// the same), and each group trains on its own pretrainGroupSeed()
/// stream, so skipping blocks never shifts the caller's later draws.
/// When \p Log is given each group is recorded as a "pretrain:g<index>"
/// span, numbered from \p FirstGroupIndex (a multi-round caller passes
/// the groups it already trained, so names stay unique). When \p Cache
/// is given, blocks already in the cross-run cache are fetched instead
/// of trained (they do not count toward BlockCount), and freshly trained
/// blocks are published back.
Result<PretrainStats>
pretrainBlocks(const MultiplexingModel &Model, Graph &FullTrained,
               const std::string &FullPrefix,
               const std::vector<TuningBlock> &Blocks, const Dataset &Data,
               const TrainMeta &Meta, CheckpointStore &Store,
               Rng &Generator, const FilterScores *Scores = nullptr,
               RunLog *Log = nullptr, BlockCache *Cache = nullptr,
               size_t FirstGroupIndex = 0);

} // namespace wootz

#endif // WOOTZ_TRAIN_PRETRAINER_H
