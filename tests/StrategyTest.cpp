//===- tests/StrategyTest.cpp - exploration-strategy tests ------------------===//
//
// Covers the explore/strategy/ subsystem: name parsing (unknown names
// list the valid ones), the fixed-strategy wrapper's contract
// (runPruningPipeline stores the driver's evaluations in ascending-size
// order; the driver's winner is the first satisfying proposal), the
// determinism contract (replaying any strategy against the recorded
// observation sequence proposes identical configurations; EvalOnly runs
// are bit-identical for any Workers value), the adaptive explorer under
// the Overlap schedule (within-round cancellation; a warm BlockCache
// rerun pre-trains nothing yet reproduces the cold run bit-exactly),
// and the serve job API's strategy/criterion plumbing.
//
//===----------------------------------------------------------------------===//

#include "src/explore/strategy/Adaptive.h"
#include "src/explore/strategy/FixedSubspace.h"
#include "src/explore/strategy/GreedySensitivity.h"
#include "src/serve/JobManager.h"
#include "src/wootz/wootz.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

using namespace wootz;
using namespace wootz::serve;

namespace {

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Name parsing
//===----------------------------------------------------------------------===//

TEST(StrategyParseTest, RoundTripsEveryKind) {
  for (StrategyKind Kind :
       {StrategyKind::Fixed, StrategyKind::Greedy, StrategyKind::Adaptive}) {
    Result<StrategyKind> Parsed = parseStrategyKind(strategyKindName(Kind));
    ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
    EXPECT_EQ(*Parsed, Kind);
  }
}

TEST(StrategyParseTest, UnknownStrategyNameListsValidNames) {
  Result<StrategyKind> Parsed = parseStrategyKind("simulated-annealing");
  ASSERT_FALSE(static_cast<bool>(Parsed));
  const std::string Message = Parsed.message();
  EXPECT_NE(Message.find("simulated-annealing"), std::string::npos);
  for (const char *Name : {"fixed", "greedy", "adaptive"})
    EXPECT_NE(Message.find(Name), std::string::npos) << Name;
}

TEST(StrategyParseTest, UnknownCriterionNameListsValidNames) {
  Result<ImportanceCriterion> Parsed = parseImportanceCriterion("magnitude");
  ASSERT_FALSE(static_cast<bool>(Parsed));
  const std::string Message = Parsed.message();
  EXPECT_NE(Message.find("magnitude"), std::string::npos);
  for (const char *Name : {"l1", "l2", "taylor", "taylor_expansion", "apoz"})
    EXPECT_NE(Message.find(Name), std::string::npos) << Name;
}

TEST(StrategyParseTest, TaylorExpansionRoundTrips) {
  Result<ImportanceCriterion> Parsed =
      parseImportanceCriterion("taylor_expansion");
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_EQ(*Parsed, ImportanceCriterion::TaylorExpansion);
  EXPECT_STREQ(importanceCriterionName(ImportanceCriterion::TaylorExpansion),
               "taylor_expansion");
}

//===----------------------------------------------------------------------===//
// Knob validation
//===----------------------------------------------------------------------===//

TEST(StrategyKnobsTest, RejectsDegenerateInputs) {
  Result<ModelSpec> Spec = makeStandardModel(StandardModel::ResNetA, 4);
  ASSERT_TRUE(static_cast<bool>(Spec)) << Spec.message();
  const PruningObjective Objective = smallestMeetingAccuracy(0.5);

  // Fixed needs a subspace to enumerate.
  StrategyKnobs Knobs;
  Result<std::unique_ptr<ExplorationStrategy>> Empty =
      makeStrategy(StrategyKind::Fixed, *Spec, {}, Objective, Knobs);
  ASSERT_FALSE(static_cast<bool>(Empty));
  EXPECT_NE(Empty.message().find("subspace"), std::string::npos);

  // The on-the-fly strategies validate the rate alphabet and the round
  // budget with the iterative search's messages.
  const std::vector<PruneConfig> Subspace = {
      PruneConfig(static_cast<size_t>(Spec->moduleCount()), 0.5f)};
  for (StrategyKind Kind : {StrategyKind::Greedy, StrategyKind::Adaptive}) {
    StrategyKnobs Bad;
    Bad.Rates = {0.5f, 0.7f}; // Missing the unpruned 0.
    Result<std::unique_ptr<ExplorationStrategy>> NoZero =
        makeStrategy(Kind, *Spec, Subspace, Objective, Bad);
    ASSERT_FALSE(static_cast<bool>(NoZero));
    EXPECT_NE(NoZero.message().find("start at 0"), std::string::npos);

    Bad.Rates = {0.0f, 0.7f, 0.5f};
    Result<std::unique_ptr<ExplorationStrategy>> Unsorted =
        makeStrategy(Kind, *Spec, Subspace, Objective, Bad);
    ASSERT_FALSE(static_cast<bool>(Unsorted));
    EXPECT_NE(Unsorted.message().find("ascending"), std::string::npos);

    StrategyKnobs NoRounds;
    NoRounds.Rates = {0.0f, 0.5f};
    NoRounds.MaxRounds = 0;
    Result<std::unique_ptr<ExplorationStrategy>> Zero =
        makeStrategy(Kind, *Spec, Subspace, Objective, NoRounds);
    ASSERT_FALSE(static_cast<bool>(Zero));
    EXPECT_NE(Zero.message().find("MaxRounds"), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Driver fixture
//===----------------------------------------------------------------------===//

class StrategyDriverFixture : public ::testing::Test {
protected:
  void SetUp() override {
    SyntheticSpec DataSpec;
    DataSpec.Classes = 4;
    DataSpec.TrainPerClass = 12;
    DataSpec.TestPerClass = 6;
    DataSpec.Noise = 0.5f;
    DataSpec.Seed = 13;
    Data = generateSynthetic(DataSpec);

    Result<ModelSpec> Parsed = makeStandardModel(StandardModel::ResNetA, 4);
    ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
    Spec = Parsed.take();
    ASSERT_GE(Spec.moduleCount(), 2);

    Meta.FullModelSteps = 40;
    Meta.PretrainSteps = 24;
    Meta.FinetuneSteps = 10;
    Meta.BatchSize = 8;
    Meta.EvalEvery = 10;

    auto Config = [&](float Rate0, float Rate1) {
      PruneConfig C(static_cast<size_t>(Spec.moduleCount()), 0.0f);
      C[0] = Rate0;
      C[1] = Rate1;
      return C;
    };
    Subspace = {Config(0.7f, 0.7f), Config(0.7f, 0.0f),
                Config(0.0f, 0.7f), Config(0.5f, 0.5f),
                Config(0.5f, 0.0f), Config(0.0f, 0.5f),
                Config(0.3f, 0.0f)};
    Objective = smallestMeetingAccuracy(0.0);
  }

  /// EvalOnly + per-module blocks: the deterministic baseline schedule.
  PipelineOptions evalOnlyOptions(int Workers = 1) const {
    PipelineOptions Options;
    Options.UseComposability = true;
    Options.UseIdentifier = false;
    Options.Schedule = PipelineSchedule::EvalOnly;
    Options.Workers = Workers;
    return Options;
  }

  std::unique_ptr<ExplorationStrategy> build(StrategyKind Kind,
                                             int MaxRounds = 4) const {
    StrategyKnobs Knobs;
    Knobs.Rates = subspaceRateAlphabet(Subspace);
    Knobs.MaxRounds = MaxRounds;
    Result<std::unique_ptr<ExplorationStrategy>> Built =
        makeStrategy(Kind, Spec, Subspace, Objective, Knobs);
    EXPECT_TRUE(static_cast<bool>(Built)) << Built.message();
    return Built ? Built.take() : nullptr;
  }

  Dataset Data;
  ModelSpec Spec;
  TrainMeta Meta;
  std::vector<PruneConfig> Subspace;
  PruningObjective Objective;
};

/// Bit-exact evaluation equality (determinism assertions compare raw
/// double bits, not approximate closeness).
void expectIdenticalEvaluations(const std::vector<EvaluatedConfig> &A,
                                const std::vector<EvaluatedConfig> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Config, B[I].Config) << "config " << I;
    EXPECT_EQ(A[I].WeightCount, B[I].WeightCount) << "config " << I;
    EXPECT_EQ(A[I].Cancelled, B[I].Cancelled) << "config " << I;
    EXPECT_EQ(A[I].InitAccuracy, B[I].InitAccuracy) << "config " << I;
    EXPECT_EQ(A[I].FinalAccuracy, B[I].FinalAccuracy) << "config " << I;
    EXPECT_EQ(A[I].BlocksUsed, B[I].BlocksUsed) << "config " << I;
  }
}

/// Every candidate satisfies it; the winner is the most accurate one in
/// the fixed strategy's largest-first order.
PruningObjective mostAccurateAnySize() {
  PruningObjective MostAccurate;
  MostAccurate.Minimize = false;
  MostAccurate.Optimize = Metric::Accuracy;
  return MostAccurate;
}

TEST_F(StrategyDriverFixture, FixedDriverMatchesClassicPipeline) {
  // runPruningPipeline is the fixed strategy through the driver; its own
  // contract is the storage order: ascending size for every objective,
  // i.e. the driver's proposal order, reversed when the objective
  // explores largest first.
  const PruningObjective MostAccurate = mostAccurateAnySize();
  for (const PruningObjective *Order :
       std::vector<const PruningObjective *>{&Objective, &MostAccurate}) {
    SCOPED_TRACE(printObjective(*Order));
    PipelineOptions Options = evalOnlyOptions();
    Options.CancelObjective = Order; // Sets the order; EvalOnly never cancels.

    Rng ClassicGen(17);
    Result<PipelineResult> Classic = runPruningPipeline(
        Spec, Data, Subspace, Meta, Options, ClassicGen);
    ASSERT_TRUE(static_cast<bool>(Classic)) << Classic.message();
    for (size_t I = 1; I < Classic->Evaluations.size(); ++I)
      EXPECT_LE(Classic->Evaluations[I - 1].WeightCount,
                Classic->Evaluations[I].WeightCount)
          << "storage index " << I;

    FixedSubspaceStrategy Strategy(Spec, Subspace, *Order);
    Rng DriverGen(17);
    Result<StrategyRunResult> Driven = runStrategyExploration(
        Spec, Data, Strategy, Meta, Options, *Order, DriverGen);
    ASSERT_TRUE(static_cast<bool>(Driven)) << Driven.message();
    EXPECT_EQ(Driven->Rounds, 1);
    EXPECT_EQ(static_cast<size_t>(Driven->Proposals), Subspace.size());
    EXPECT_EQ(Driven->Run.Telemetry.counter("strategy.rounds"), 1);
    EXPECT_EQ(static_cast<size_t>(
                  Driven->Run.Telemetry.counter("strategy.proposals")),
              Subspace.size());

    std::vector<EvaluatedConfig> Explored = Driven->Run.Evaluations;
    if (!Order->exploreSmallestFirst())
      std::reverse(Explored.begin(), Explored.end());
    EXPECT_EQ(Driven->Run.FullAccuracy, Classic->FullAccuracy);
    EXPECT_EQ(Driven->Run.FullWeightCount, Classic->FullWeightCount);
    expectIdenticalEvaluations(Classic->Evaluations, Explored);
  }
}

TEST_F(StrategyDriverFixture, FixedDriverWinnerIsFirstSatisfyingProposal) {
  // max-Accuracy explores largest first and stops at the first
  // configuration that satisfies the objective (§6.2). With no
  // constraint that is the largest configuration, even when a later
  // (smaller) one happens to fine-tune to a higher accuracy.
  const PruningObjective MostAccurate = mostAccurateAnySize();
  PipelineOptions Options = evalOnlyOptions(/*Workers=*/2);
  Options.CancelObjective = &MostAccurate;

  Rng ClassicGen(4);
  Result<PipelineResult> Classic = runPruningPipeline(
      Spec, Data, Subspace, Meta, Options, ClassicGen);
  ASSERT_TRUE(static_cast<bool>(Classic)) << Classic.message();
  const ExplorationSummary Summary =
      summarizeMeasuredRun(*Classic, MostAccurate);
  ASSERT_EQ(Summary.WinnerIndex, 0);

  FixedSubspaceStrategy Strategy(Spec, Subspace, MostAccurate);
  Rng DriverGen(4);
  Result<StrategyRunResult> Driven = runStrategyExploration(
      Spec, Data, Strategy, Meta, Options, MostAccurate, DriverGen);
  ASSERT_TRUE(static_cast<bool>(Driven)) << Driven.message();

  // The case this test exists for: some later proposal beats the first.
  const std::vector<EvaluatedConfig> &Explored = Driven->Run.Evaluations;
  double BestLater = 0.0;
  for (size_t I = 1; I < Explored.size(); ++I)
    BestLater = std::max(BestLater, Explored[I].FinalAccuracy);
  ASSERT_GT(BestLater, Explored[0].FinalAccuracy);

  EXPECT_TRUE(Driven->ObjectiveMet);
  EXPECT_EQ(Driven->WinnerIndex, Summary.WinnerIndex);
}

TEST_F(StrategyDriverFixture, ReplayProposesIdenticalConfigs) {
  // The determinism contract: a fresh strategy instance fed the recorded
  // observation sequence re-proposes every round verbatim and then ends.
  for (StrategyKind Kind :
       {StrategyKind::Fixed, StrategyKind::Greedy, StrategyKind::Adaptive}) {
    SCOPED_TRACE(strategyKindName(Kind));
    std::unique_ptr<ExplorationStrategy> Live = build(Kind, /*MaxRounds=*/2);
    ASSERT_NE(Live, nullptr);
    Rng Generator(23);
    Result<StrategyRunResult> Search = runStrategyExploration(
        Spec, Data, *Live, Meta, evalOnlyOptions(), Objective, Generator);
    ASSERT_TRUE(static_cast<bool>(Search)) << Search.message();
    ASSERT_GE(Search->Rounds, 1);

    std::unique_ptr<ExplorationStrategy> Replay =
        build(Kind, /*MaxRounds=*/2);
    ASSERT_NE(Replay, nullptr);
    for (const StrategyRoundInfo &Round : Search->RoundsInfo) {
      const ObservedResults Prefix(
          Search->Run.Evaluations.begin(),
          Search->Run.Evaluations.begin() +
              static_cast<long>(Round.FirstIndex));
      Result<std::vector<PruneConfig>> Proposed = Replay->propose(Prefix);
      ASSERT_TRUE(static_cast<bool>(Proposed)) << Proposed.message();
      ASSERT_EQ(Proposed->size(), static_cast<size_t>(Round.Proposals));
      for (size_t I = 0; I < Proposed->size(); ++I)
        EXPECT_EQ((*Proposed)[I],
                  Search->Run.Evaluations[Round.FirstIndex + I].Config)
            << "round proposal " << I;
    }
    Result<std::vector<PruneConfig>> Final =
        Replay->propose(Search->Run.Evaluations);
    ASSERT_TRUE(static_cast<bool>(Final)) << Final.message();
    EXPECT_TRUE(Final->empty());
  }
}

TEST_F(StrategyDriverFixture, AdaptiveIsBitIdenticalAcrossWorkers) {
  std::vector<StrategyRunResult> Runs;
  for (int Workers : {1, 4}) {
    std::unique_ptr<ExplorationStrategy> Strategy =
        build(StrategyKind::Adaptive);
    ASSERT_NE(Strategy, nullptr);
    Rng Generator(31);
    Result<StrategyRunResult> Search = runStrategyExploration(
        Spec, Data, *Strategy, Meta, evalOnlyOptions(Workers), Objective,
        Generator);
    ASSERT_TRUE(static_cast<bool>(Search)) << Search.message();
    Runs.push_back(std::move(Search.take()));
  }
  EXPECT_EQ(Runs[0].Rounds, Runs[1].Rounds);
  EXPECT_EQ(Runs[0].Proposals, Runs[1].Proposals);
  EXPECT_EQ(Runs[0].WinnerIndex, Runs[1].WinnerIndex);
  expectIdenticalEvaluations(Runs[0].Run.Evaluations,
                             Runs[1].Run.Evaluations);
}

TEST_F(StrategyDriverFixture, AdaptiveOverlapCancelsAndWarmCacheIsBitExact) {
  const std::string CacheDir =
      ::testing::TempDir() + "wootz_strategy_blockcache";
  fs::remove_all(CacheDir);

  PipelineOptions Options;
  Options.UseComposability = true;
  Options.UseIdentifier = false;
  Options.Schedule = PipelineSchedule::Overlap;
  Options.Workers = 1;
  Options.CancelObjective = &Objective;
  Options.BlockCacheConfig.Directory = CacheDir;

  std::vector<StrategyRunResult> Runs;
  for (int Pass = 0; Pass < 2; ++Pass) {
    std::unique_ptr<ExplorationStrategy> Strategy =
        build(StrategyKind::Adaptive);
    ASSERT_NE(Strategy, nullptr);
    Rng Generator(47);
    Result<StrategyRunResult> Search = runStrategyExploration(
        Spec, Data, *Strategy, Meta, Options, Objective, Generator);
    ASSERT_TRUE(static_cast<bool>(Search)) << Search.message();
    Runs.push_back(std::move(Search.take()));
  }
  const StrategyRunResult &Cold = Runs[0];
  const StrategyRunResult &Warm = Runs[1];

  // The always-satisfied min-ModelSize objective: the round's most
  // aggressive proposal (emitted first — adaptive rounds are
  // preference-ordered for smallest-first objectives) wins as soon as it
  // finishes, cancelling the rest of its round.
  ASSERT_GE(Cold.Proposals, 2);
  size_t CancelledCount = 0;
  for (const EvaluatedConfig &E : Cold.Run.Evaluations)
    CancelledCount += E.Cancelled;
  EXPECT_GE(CancelledCount, 1u);
  EXPECT_TRUE(Cold.ObjectiveMet);
  EXPECT_EQ(Cold.WinnerIndex, 0);

  // Cold pass pre-trained every block; the warm pass pre-trains zero
  // (all served from the cross-run BlockCache) yet reproduces the cold
  // pass bit-exactly — proposals, cancellations, and accuracies.
  EXPECT_GT(Cold.Run.Pretrain.BlockCount, 0);
  EXPECT_EQ(Warm.Run.Pretrain.BlockCount, 0);
  EXPECT_GT(Warm.Run.Telemetry.counter("cache.hit"), 0);
  EXPECT_EQ(Warm.Rounds, Cold.Rounds);
  EXPECT_EQ(Warm.Proposals, Cold.Proposals);
  EXPECT_EQ(Warm.WinnerIndex, Cold.WinnerIndex);
  expectIdenticalEvaluations(Warm.Run.Evaluations, Cold.Run.Evaluations);

  fs::remove_all(CacheDir);
}

TEST_F(StrategyDriverFixture, GreedyReportsCommitsAndReuse) {
  GreedySensitivityStrategy Strategy(Spec, Objective, [&] {
    StrategyKnobs Knobs;
    Knobs.Rates = {0.0f, 0.3f, 0.5f};
    Knobs.MaxRounds = 2;
    return Knobs;
  }());
  Rng Generator(11);
  Result<StrategyRunResult> Search = runStrategyExploration(
      Spec, Data, Strategy, Meta, evalOnlyOptions(), Objective, Generator);
  ASSERT_TRUE(static_cast<bool>(Search)) << Search.message();

  // The always-satisfied accuracy floor commits one bump per round up to
  // the budget; every round proposes one bump per module with headroom.
  ASSERT_EQ(Search->Rounds, 2);
  EXPECT_EQ(Strategy.commits().size(), 2u);
  EXPECT_EQ(Search->RoundsInfo[0].Proposals, Spec.moduleCount());
  // Round 1 re-proposes the other modules' bumps, whose (module, rate)
  // blocks were already pre-trained in round 0 — the composability
  // harvest shows up as reuse.
  EXPECT_GT(Search->RoundsInfo[1].BlocksReused, 0);
  EXPECT_EQ(Search->Run.Telemetry.counter("strategy.blocks_reused"),
            Search->BlocksReused);
}

//===----------------------------------------------------------------------===//
// Serve job API plumbing
//===----------------------------------------------------------------------===//

std::map<std::string, std::string> strategyJobBody() {
  Result<ModelSpec> Spec =
      parseModelSpec(standardModelPrototxt(StandardModel::ResNetA, 4));
  PruneConfig A(static_cast<size_t>(Spec->moduleCount()), 0.0f);
  A[0] = 0.5f;
  PruneConfig B(static_cast<size_t>(Spec->moduleCount()), 0.0f);
  B[0] = 0.3f;
  TrainMeta Meta;
  Meta.FullModelSteps = 30;
  Meta.PretrainSteps = 12;
  Meta.FinetuneSteps = 8;
  Meta.EvalEvery = 8;
  Meta.BatchSize = 8;
  return {{"model", standardModelPrototxt(StandardModel::ResNetA, 4)},
          {"subspace", printSubspaceSpec({A, B})},
          {"meta", printTrainMeta(Meta)},
          {"objective", "min ModelSize\nconstraint Accuracy >= 0.0\n"},
          {"dataset_scale", "0.1"},
          {"workers", "1"},
          {"schedule", "evalonly"},
          {"identifier", "false"}};
}

std::string waitForTerminal(JobManager &Manager, const std::string &Id,
                            int TimeoutSeconds = 120) {
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(TimeoutSeconds);
  while (std::chrono::steady_clock::now() < Deadline) {
    Result<std::string> Status = Manager.statusJson(Id);
    if (!Status)
      return "";
    for (const char *State : {"done", "failed", "cancelled"})
      if (Status->find("\"state\":\"" + std::string(State) + "\"") !=
          std::string::npos)
        return State;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return "timeout";
}

TEST(StrategyJobApiTest, UnknownNamesAndBadKnobsAre400s) {
  JobManager Manager(JobManagerOptions(), nullptr, nullptr);

  auto BadStrategy = strategyJobBody();
  BadStrategy["strategy"] = "annealing";
  SubmitOutcome Out = Manager.submit(BadStrategy);
  EXPECT_EQ(Out.Status, 400);
  EXPECT_NE(Out.Error.find("strategy:"), std::string::npos);
  for (const char *Name : {"fixed", "greedy", "adaptive"})
    EXPECT_NE(Out.Error.find(Name), std::string::npos) << Name;

  auto BadCriterion = strategyJobBody();
  BadCriterion["criterion"] = "magnitude";
  Out = Manager.submit(BadCriterion);
  EXPECT_EQ(Out.Status, 400);
  EXPECT_NE(Out.Error.find("criterion:"), std::string::npos);
  EXPECT_NE(Out.Error.find("taylor_expansion"), std::string::npos);

  auto BadRounds = strategyJobBody();
  BadRounds["max_rounds"] = "0";
  Out = Manager.submit(BadRounds);
  EXPECT_EQ(Out.Status, 400);
  EXPECT_NE(Out.Error.find("max_rounds"), std::string::npos);

  auto BadMargin = strategyJobBody();
  BadMargin["accuracy_margin"] = "0.9";
  Out = Manager.submit(BadMargin);
  EXPECT_EQ(Out.Status, 400);
  EXPECT_NE(Out.Error.find("accuracy_margin"), std::string::npos);

  Manager.drain();
}

TEST(StrategyJobApiTest, AdaptiveJobRunsToDoneWithRoundCounters) {
  JobManagerOptions Options;
  Options.Workers = 1;
  JobManager Manager(Options, nullptr, nullptr);

  auto Body = strategyJobBody();
  Body["strategy"] = "adaptive";
  Body["criterion"] = "l2";
  Body["max_rounds"] = "2";
  const SubmitOutcome Submitted = Manager.submit(Body);
  ASSERT_EQ(Submitted.Status, 202) << Submitted.Error;

  EXPECT_EQ(waitForTerminal(Manager, Submitted.Id), "done");
  Result<std::string> Status = Manager.statusJson(Submitted.Id);
  ASSERT_TRUE(static_cast<bool>(Status));
  EXPECT_NE(Status->find("\"strategy\":\"adaptive\""), std::string::npos);
  EXPECT_NE(Status->find("\"criterion\":\"l2\""), std::string::npos);
  EXPECT_NE(Status->find("\"rounds\":"), std::string::npos);
  EXPECT_NE(Status->find("\"proposals\":"), std::string::npos);
  EXPECT_NE(Status->find("strategy.rounds"), std::string::npos);
  Manager.drain();
}

} // namespace
