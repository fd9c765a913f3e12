//===- bench/bench_kernels.cpp - Compute-kernel micro benchmark ------------------===//
//
// Tracks the performance of the compute substrate everything else sits
// on: blocked vs reference GEMM GFLOP/s across sizes (single- and
// multi-threaded), batch-parallel Conv2D forward/backward scaling over
// kernel worker counts, and one mini-resnet-a training step broken down
// by layer kind and by kernel phase (im2col, col2im, GEMM engines). Every
// row also lands in BENCH_kernels.json so the perf trajectory is
// machine-readable.
//
//===----------------------------------------------------------------------===//

#include "src/compiler/GraphBuilder.h"
#include "src/models/MiniModels.h"
#include "src/nn/Layers.h"
#include "src/support/File.h"
#include "src/support/Json.h"
#include "src/support/Rng.h"
#include "src/support/Stopwatch.h"
#include "src/support/StringUtils.h"
#include "src/support/Table.h"
#include "src/tensor/Kernels.h"
#include "src/tensor/Ops.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

using namespace wootz;

namespace {

/// Median seconds per call: repeats \p Body until ~0.12 s have
/// accumulated (after one warmup call), three times, and takes the
/// median of the per-call means.
double secondsPerCall(const std::function<void()> &Body) {
  Body(); // Warmup: scratch allocation, pool spin-up, page faults.
  std::vector<double> Means;
  for (int Round = 0; Round < 3; ++Round) {
    Stopwatch Timer;
    int Reps = 0;
    do {
      Body();
      ++Reps;
    } while (Timer.seconds() < 0.12);
    Means.push_back(Timer.seconds() / Reps);
  }
  std::sort(Means.begin(), Means.end());
  return Means[1];
}

void fillRandom(float *Data, size_t Count, Rng &Generator) {
  for (size_t I = 0; I < Count; ++I)
    Data[I] = Generator.nextGaussian();
}

double gflops(double Flops, double Seconds) {
  return Seconds > 0.0 ? Flops / Seconds / 1e9 : 0.0;
}

/// Adds the seconds \p Body takes to \p Total.
void timeInto(double &Total, const std::function<void()> &Body) {
  Stopwatch Timer;
  Body();
  Total += Timer.seconds();
}

/// One mini-resnet-a training step at batch 8, broken down. The graph
/// runs one real step to record every node's activations and output
/// gradient; each layer then replays its forward and backward on those
/// tensors (with private outputs and scratch), timed call by call, and
/// each Conv2D's kernel phases are timed on its own shapes. Reports
/// milliseconds per step against the measured whole step.
void trainingStepSection(const std::function<void(const JsonObject &)> &Push,
                         Rng &Generator) {
  const int Batch = 8;
  const int Steps = 200;
  setKernelWorkers(1);
  Result<ModelSpec> Spec = makeStandardModel(StandardModel::ResNetA, 4);
  if (!Spec) {
    std::printf("training step: %s\n", Spec.message().c_str());
    return;
  }
  Result<BuiltNetwork> Built = buildFullNetwork(*Spec, 0x5eed);
  if (!Built) {
    std::printf("training step: %s\n", Built.message().c_str());
    return;
  }
  Graph &Net = Built->Network;
  Tensor Images(Shape{Batch, 3, 8, 8});
  fillRandom(Images.data(), Images.size(), Generator);
  Net.setInput(Built->InputNode, Images);
  Tensor LogitsGrad;
  auto Step = [&] {
    Net.forward(/*Training=*/true);
    if (LogitsGrad.empty()) {
      LogitsGrad = Tensor(Net.activation(Built->LogitsNode).shape());
      fillRandom(LogitsGrad.data(), LogitsGrad.size(), Generator);
    }
    Net.zeroGrads();
    Net.seedGradient(Built->LogitsNode, LogitsGrad);
    Net.backward();
  };
  const double StepSec = secondsPerCall(Step);

  struct Replay {
    Layer *Node;
    std::vector<const Tensor *> Inputs;
    Tensor Out;
    const Tensor *GradOut;
    std::vector<Tensor> GradIns;
    std::vector<Tensor *> GradPtrs;
    LayerScratch Scratch;
  };
  std::vector<Replay> Nodes;
  for (const std::string &Name : Net.nodeNames()) {
    if (!Net.findLayer(Name) || !Net.outputGradient(Name))
      continue;
    Replay R;
    R.Node = &Net.layer(Name);
    R.Out = Tensor(Net.activation(Name).shape());
    R.GradOut = Net.outputGradient(Name);
    for (const std::string &Input : Net.nodeInputs(Name)) {
      R.Inputs.push_back(&Net.activation(Input));
      // Input placeholders take no gradient, as in the graph's pass.
      R.GradIns.emplace_back(Net.findLayer(Input)
                                 ? Tensor(Net.activation(Input).shape())
                                 : Tensor());
    }
    Nodes.push_back(std::move(R));
  }
  for (Replay &R : Nodes)
    for (Tensor &G : R.GradIns)
      R.GradPtrs.push_back(G.empty() ? nullptr : &G);

  struct KindTime {
    int Layers = 0;
    double Forward = 0.0;
    double Backward = 0.0;
  };
  std::map<std::string, KindTime> ByKind;
  for (const Replay &R : Nodes)
    ++ByKind[R.Node->kind()].Layers;
  for (int S = 0; S <= Steps; ++S) {
    for (Replay &R : Nodes) {
      for (Tensor &G : R.GradIns)
        if (!G.empty())
          G.zero();
      // Step 0 is the warmup: scratch allocation, first-touch faults.
      KindTime Discard;
      KindTime &Into = S == 0 ? Discard : ByKind[R.Node->kind()];
      timeInto(Into.Forward, [&] {
        R.Node->forward(R.Inputs, R.Out, R.Scratch, /*Training=*/true);
      });
      timeInto(Into.Backward, [&] {
        R.Node->backward(R.Inputs, R.Out, *R.GradOut, R.Scratch,
                         R.GradPtrs);
      });
    }
  }

  Table KindTable({"layer kind", "layers", "fwd ms", "bwd ms", "share"});
  double LayerTotal = 0.0;
  for (const auto &[Kind, Time] : ByKind)
    LayerTotal += Time.Forward + Time.Backward;
  for (const auto &[Kind, Time] : ByKind) {
    const double FwdMs = Time.Forward / Steps * 1e3;
    const double BwdMs = Time.Backward / Steps * 1e3;
    KindTable.addRow(
        {Kind, std::to_string(Time.Layers), formatDouble(FwdMs, 4),
         formatDouble(BwdMs, 4),
         formatDouble(100.0 * (Time.Forward + Time.Backward) / LayerTotal,
                      1) +
             "%"});
    JsonObject Row;
    Row.field("kind", "train_step_layer")
        .field("model", "mini-resnet-a")
        .field("batch", Batch)
        .field("layer_kind", Kind)
        .field("layers", Time.Layers)
        .field("forward_ms", FwdMs, 5)
        .field("backward_ms", BwdMs, 5);
    Push(Row);
  }
  std::printf("--- Training step by layer kind (mini-resnet-a, batch %d, "
              "1 worker) ---\n%s\n",
              Batch, KindTable.render().c_str());
  std::printf("layer sum %.3f ms vs measured step %.3f ms\n\n",
              LayerTotal / Steps * 1e3, StepSec * 1e3);
  JsonObject StepRow;
  StepRow.field("kind", "train_step")
      .field("model", "mini-resnet-a")
      .field("batch", Batch)
      .field("step_ms", StepSec * 1e3, 5)
      .field("layer_sum_ms", LayerTotal / Steps * 1e3, 5);
  Push(StepRow);

  // Kernel phases of every conv in the step, on its own shapes. Each of
  // the three per-sample GEMMs (forward, dW, dCols) runs once through
  // the reference loops and once through the blocked engine; the
  // dispatching entry points pick one by size (gemmUsesBlockedEngine).
  double Im2colSec = 0.0, Col2imSec = 0.0, RefSec = 0.0, BlockedSec = 0.0;
  double DispatchedSec = 0.0;
  int Convs = 0;
  for (int S = 0; S <= Steps; ++S) {
    for (Replay &R : Nodes) {
      const auto *Conv = dynamic_cast<const Conv2D *>(R.Node);
      if (!Conv)
        continue;
      Convs += S == 0;
      const ConvGeometry &G = Conv->geometry();
      const Shape &InShape = R.Inputs[0]->shape();
      const int Height = InShape[2], Width = InShape[3];
      const int M = G.OutChannels;
      const int K = G.InChannels * G.KernelSize * G.KernelSize;
      const int N = G.outExtent(Height) * G.outExtent(Width);
      const size_t InPlane = static_cast<size_t>(G.InChannels) * Height *
                             Width;
      const size_t ColsPlane = static_cast<size_t>(K) * N;
      const size_t OutPlane = static_cast<size_t>(M) * N;
      std::vector<float> Columns(ColsPlane), ColsGrad(ColsPlane);
      std::vector<float> Image(InPlane);
      std::vector<float> Product(
          std::max(OutPlane, static_cast<size_t>(M) * K));
      float *Cols = Columns.data();
      const float *W = Conv->weight().Value.data();
      const float *GradOut = R.GradOut->data();
      double Discard = 0.0;
      const bool Timed = S > 0;
      for (int Sample = 0; Sample < Batch; ++Sample) {
        const float *InSample = R.Inputs[0]->data() + Sample * InPlane;
        const float *GradSample = GradOut + Sample * OutPlane;
        timeInto(Timed ? Im2colSec : Discard, [&] {
          im2col(InSample, G.InChannels, Height, Width, G, Cols);
        });
        timeInto(Timed ? Col2imSec : Discard, [&] {
          col2im(Cols, G.InChannels, Height, Width, G, Image.data());
        });
        timeInto(Timed ? RefSec : Discard, [&] {
          gemmReference(W, Cols, Product.data(), M, K, N);
          gemmTransposeBReference(GradSample, Cols, Product.data(), M, N,
                                  K);
          gemmTransposeAReference(W, GradSample, ColsGrad.data(), K, M, N);
        });
        timeInto(Timed ? BlockedSec : Discard, [&] {
          detail::blockedGemm(W, K, 1, Cols, N, 1, Product.data(), M, K, N,
                              false, nullptr);
          detail::blockedGemm(GradSample, N, 1, Cols, 1, N, Product.data(),
                              M, N, K, false, nullptr);
          detail::blockedGemm(W, 1, K, GradSample, N, 1, ColsGrad.data(), K,
                              M, N, false, nullptr);
        });
        timeInto(Timed ? DispatchedSec : Discard, [&] {
          gemm(W, Cols, Product.data(), M, K, N);
          gemmTransposeB(GradSample, Cols, Product.data(), M, N, K);
          gemmTransposeA(W, GradSample, ColsGrad.data(), K, M, N);
        });
      }
    }
  }
  Table PhaseTable({"phase", "ms per step"});
  const std::pair<const char *, double> Phases[] = {
      {"im2col", Im2colSec},
      {"col2im", Col2imSec},
      {"gemm reference loops", RefSec},
      {"gemm blocked engine", BlockedSec},
      {"gemm as dispatched", DispatchedSec}};
  JsonObject PhaseRow;
  PhaseRow.field("kind", "train_step_phases")
      .field("model", "mini-resnet-a")
      .field("batch", Batch)
      .field("convs", Convs);
  for (const auto &[Phase, Seconds] : Phases) {
    PhaseTable.addRow({Phase, formatDouble(Seconds / Steps * 1e3, 4)});
    std::string Key = Phase;
    std::replace(Key.begin(), Key.end(), ' ', '_');
    PhaseRow.field(Key + "_ms", Seconds / Steps * 1e3, 5);
  }
  Push(PhaseRow);
  std::printf("--- Conv kernel phases per training step (%d convs) "
              "---\n%s\n",
              Convs, PhaseTable.render().c_str());
}

} // namespace

int main() {
  std::printf("=== Compute kernels: blocked GEMM and batch-parallel "
              "Conv2D ===\n\n");
  std::string JsonRows;
  auto pushRow = [&JsonRows](const JsonObject &Row) {
    JsonRows += std::string(JsonRows.empty() ? "" : ",\n  ") + Row.str();
  };

  const unsigned MtWorkers = 4;
  Rng Generator(0xbe7c);

  //===--------------------------------------------------------------------===//
  // GEMM: reference vs blocked, single- and multi-threaded.
  //===--------------------------------------------------------------------===//
  Table GemmTable({"size", "ref GF/s", "blocked GF/s", "blocked x4 GF/s",
                   "speedup 1T", "scaling 1->4"});
  for (int Size : {32, 64, 128, 256, 512}) {
    const size_t Count = static_cast<size_t>(Size) * Size;
    Tensor A(Shape{Size, Size}), B(Shape{Size, Size}), C(Shape{Size, Size});
    fillRandom(A.data(), Count, Generator);
    fillRandom(B.data(), Count, Generator);
    const double Flops = 2.0 * Size * Size * Size;

    const double RefSec = secondsPerCall(
        [&] { gemmReference(A.data(), B.data(), C.data(), Size, Size, Size); });
    setKernelWorkers(1);
    const double BlockedSec = secondsPerCall(
        [&] { gemm(A.data(), B.data(), C.data(), Size, Size, Size); });
    setKernelWorkers(MtWorkers);
    const double BlockedMtSec = secondsPerCall(
        [&] { gemm(A.data(), B.data(), C.data(), Size, Size, Size); });
    setKernelWorkers(1);

    const double RefGf = gflops(Flops, RefSec);
    const double BlockedGf = gflops(Flops, BlockedSec);
    const double BlockedMtGf = gflops(Flops, BlockedMtSec);
    GemmTable.addRow({std::to_string(Size), formatDouble(RefGf, 2),
                      formatDouble(BlockedGf, 2),
                      formatDouble(BlockedMtGf, 2),
                      formatDouble(BlockedGf / RefGf, 2) + "x",
                      formatDouble(BlockedMtGf / BlockedGf, 2) + "x"});
    JsonObject Row;
    Row.field("kind", "gemm")
        .field("m", Size)
        .field("k", Size)
        .field("n", Size)
        .field("gflops_reference", RefGf, 3)
        .field("gflops_blocked", BlockedGf, 3)
        .field("gflops_blocked_mt", BlockedMtGf, 3)
        .field("mt_workers", static_cast<int>(MtWorkers))
        .field("speedup_blocked_vs_reference", BlockedGf / RefGf, 3);
    pushRow(Row);
  }
  std::printf("--- GEMM (square, single precision) ---\n%s\n",
              GemmTable.render().c_str());

  //===--------------------------------------------------------------------===//
  // Conv2D forward/backward: batch-parallel scaling over workers.
  //===--------------------------------------------------------------------===//
  const int Batch = 8;
  ConvGeometry Geometry{16, 32, 3, 1, 1};
  const int Height = 16, Width = 16;
  Conv2D Conv(Geometry);
  Conv.initParams(Generator);

  Tensor In(Shape{Batch, Geometry.InChannels, Height, Width});
  fillRandom(In.data(), In.size(), Generator);
  const Shape OutShape = Conv.outputShape({In.shape()});
  Tensor Out(OutShape), GradOut(OutShape), GradIn(In.shape());
  fillRandom(GradOut.data(), GradOut.size(), Generator);
  LayerScratch Scratch;
  const std::vector<const Tensor *> Inputs{&In};
  const std::vector<Tensor *> GradInputs{&GradIn};

  const int OutH = Geometry.outExtent(Height);
  const int OutW = Geometry.outExtent(Width);
  const double ColRows = static_cast<double>(Geometry.InChannels) *
                         Geometry.KernelSize * Geometry.KernelSize;
  const double FwdFlops = 2.0 * Batch * Geometry.OutChannels * ColRows *
                          OutH * OutW;
  const double BwdFlops = 2.0 * FwdFlops; // dW and dX GEMMs.

  Table ConvTable({"workers", "fwd ms", "fwd GF/s", "bwd ms", "bwd GF/s"});
  double FwdOneWorker = 0.0, FwdFourWorkers = 0.0;
  for (unsigned Workers : {1u, 2u, 4u}) {
    setKernelWorkers(Workers);
    const double FwdSec = secondsPerCall(
        [&] { Conv.forward(Inputs, Out, Scratch, /*Training=*/true); });
    const double BwdSec = secondsPerCall([&] {
      for (Param *P : Conv.params())
        P->Grad.zero();
      GradIn.zero();
      Conv.backward(Inputs, Out, GradOut, Scratch, GradInputs);
    });
    if (Workers == 1)
      FwdOneWorker = FwdSec;
    if (Workers == 4)
      FwdFourWorkers = FwdSec;
    ConvTable.addRow({std::to_string(Workers),
                      formatDouble(FwdSec * 1e3, 3),
                      formatDouble(gflops(FwdFlops, FwdSec), 2),
                      formatDouble(BwdSec * 1e3, 3),
                      formatDouble(gflops(BwdFlops, BwdSec), 2)});
    JsonObject Row;
    Row.field("kind", "conv2d")
        .field("batch", Batch)
        .field("in_channels", Geometry.InChannels)
        .field("out_channels", Geometry.OutChannels)
        .field("kernel", Geometry.KernelSize)
        .field("height", Height)
        .field("width", Width)
        .field("workers", static_cast<int>(Workers))
        .field("forward_seconds", FwdSec, 6)
        .field("forward_gflops", gflops(FwdFlops, FwdSec), 3)
        .field("backward_seconds", BwdSec, 6)
        .field("backward_gflops", gflops(BwdFlops, BwdSec), 3);
    pushRow(Row);
  }
  setKernelWorkers(1);
  std::printf("--- Conv2D %dx%d k%d, %d->%d channels, batch %d ---\n%s\n",
              Height, Width, Geometry.KernelSize, Geometry.InChannels,
              Geometry.OutChannels, Batch, ConvTable.render().c_str());
  const double Scaling =
      FwdFourWorkers > 0.0 ? FwdOneWorker / FwdFourWorkers : 0.0;
  std::printf("conv forward scaling 1->4 workers: %.2fx (%.0f%% parallel "
              "efficiency; expect ~1x on a single-core host)\n\n",
              Scaling, 100.0 * Scaling / 4.0);
  JsonObject Summary;
  Summary.field("kind", "conv2d_scaling")
      .field("workers_from", 1)
      .field("workers_to", 4)
      .field("forward_speedup", Scaling, 3);
  pushRow(Summary);

  //===--------------------------------------------------------------------===//
  // Eval path: fused im2col+pack with the adaptive split, over workers.
  //===--------------------------------------------------------------------===//
  const int ColCols = OutH * OutW;
  const int M = Geometry.OutChannels;
  const int K = static_cast<int>(ColRows);
  const float *WeightPtr = Conv.weight().Value.data();
  const float *BiasPtr = Conv.bias() ? Conv.bias()->Value.data() : nullptr;

  // Baseline: the pre-fusion eval path — materialize each sample's
  // im2col matrix, then run the same blocked GEMM over it.
  setKernelWorkers(1);
  std::vector<float> Columns(static_cast<size_t>(K) * ColCols);
  const size_t InPlane =
      static_cast<size_t>(Geometry.InChannels) * Height * Width;
  const size_t OutPlane = static_cast<size_t>(M) * ColCols;
  const double MaterializedSec = secondsPerCall([&] {
    for (int S = 0; S < Batch; ++S) {
      im2col(In.data() + S * InPlane, Geometry.InChannels, Height, Width,
             Geometry, Columns.data());
      detail::blockedGemm(WeightPtr, static_cast<size_t>(K), 1,
                          Columns.data(), static_cast<size_t>(ColCols), 1,
                          Out.data() + S * OutPlane, M, K, ColCols,
                          /*Accumulate=*/false, BiasPtr);
    }
  });

  Table EvalTable({"workers", "fwd ms", "fwd GF/s", "split", "tasks"});
  double EvalOneWorker = 0.0, EvalFourWorkers = 0.0;
  for (unsigned Workers : {1u, 2u, 4u}) {
    setKernelWorkers(Workers);
    const ConvSplit Split = chooseConvSplit(Batch, M, K, ColCols);
    const double EvalSec = secondsPerCall([&] {
      convForwardFused(In.data(), Batch, Height, Width, Geometry, nullptr,
                       WeightPtr, BiasPtr, /*FuseReLU=*/false, Out.data());
    });
    if (Workers == 1)
      EvalOneWorker = EvalSec;
    if (Workers == 4)
      EvalFourWorkers = EvalSec;
    EvalTable.addRow({std::to_string(Workers),
                      formatDouble(EvalSec * 1e3, 3),
                      formatDouble(gflops(FwdFlops, EvalSec), 2),
                      convSplitKindName(Split.Kind),
                      std::to_string(Split.Tasks)});
    JsonObject Row;
    Row.field("kind", "conv2d_eval_fused")
        .field("batch", Batch)
        .field("m", M)
        .field("k", K)
        .field("n", ColCols)
        .field("workers", static_cast<int>(Workers))
        .field("split", convSplitKindName(Split.Kind))
        .field("column_chunk", Split.ColumnChunk)
        .field("tasks", static_cast<int>(Split.Tasks))
        .field("forward_seconds", EvalSec, 6)
        .field("forward_gflops", gflops(FwdFlops, EvalSec), 3);
    pushRow(Row);
  }
  setKernelWorkers(1);
  std::printf("--- Conv2D eval forward, fused im2col+pack ---\n%s\n",
              EvalTable.render().c_str());
  const double FusedSpeedup =
      EvalOneWorker > 0.0 ? MaterializedSec / EvalOneWorker : 0.0;
  const double EvalScaling =
      EvalFourWorkers > 0.0 ? EvalOneWorker / EvalFourWorkers : 0.0;
  std::printf("fused vs materialized im2col (1 worker): %.2fx\n"
              "eval forward scaling 1->4 workers: %.2fx (adaptive split; "
              "expect ~1x on a single-core host)\n\n",
              FusedSpeedup, EvalScaling);
  JsonObject EvalSummary;
  EvalSummary.field("kind", "conv2d_eval_scaling")
      .field("workers_from", 1)
      .field("workers_to", 4)
      .field("forward_speedup", EvalScaling, 3)
      .field("fused_vs_materialized_1t", FusedSpeedup, 3)
      .field("materialized_seconds", MaterializedSec, 6);
  pushRow(EvalSummary);

  //===--------------------------------------------------------------------===//
  // The measured cost model and the split crossover it induces.
  //===--------------------------------------------------------------------===//
  setKernelWorkers(MtWorkers);
  const KernelCostModel Model = kernelCostModel();
  std::printf("--- Measured cost model (%u workers) ---\n"
              "dispatch %.1f us, %.3f GF/s single-thread, measured pool "
              "speedup %.2fx\n\n",
              Model.Workers, Model.DispatchSeconds * 1e6,
              Model.SecondsPerFlop > 0.0
                  ? 1.0 / (Model.SecondsPerFlop * 1e9)
                  : 0.0,
              Model.ParallelSpeedup);
  JsonObject ModelRow;
  ModelRow.field("kind", "kernel_cost_model")
      .field("workers", static_cast<int>(Model.Workers))
      .field("dispatch_seconds", Model.DispatchSeconds, 9)
      .field("seconds_per_flop", Model.SecondsPerFlop, 15)
      .field("parallel_speedup", Model.ParallelSpeedup, 3);
  pushRow(ModelRow);

  // Crossover table: which split the heuristic picks as the conv
  // problem grows, at the multi-threaded worker count. Geometry fixed
  // at 3x3 16->32 channels; batch and spatial extent sweep.
  Table SplitTable({"batch", "spatial", "gemm MxKxN", "split", "chunk",
                    "tasks"});
  for (int SweepBatch : {1, 2, 8}) {
    for (int Spatial : {4, 8, 16, 32, 64}) {
      const ConvGeometry SG{16, 32, 3, 1, 1};
      const int SweepK = SG.InChannels * SG.KernelSize * SG.KernelSize;
      const int SweepCols = SG.outExtent(Spatial) * SG.outExtent(Spatial);
      const ConvSplit Split =
          chooseConvSplit(SweepBatch, SG.OutChannels, SweepK, SweepCols);
      SplitTable.addRow(
          {std::to_string(SweepBatch), std::to_string(Spatial),
           std::to_string(SG.OutChannels) + "x" + std::to_string(SweepK) +
               "x" + std::to_string(SweepCols),
           convSplitKindName(Split.Kind), std::to_string(Split.ColumnChunk),
           std::to_string(Split.Tasks)});
      JsonObject Row;
      Row.field("kind", "conv_split")
          .field("workers", static_cast<int>(MtWorkers))
          .field("batch", SweepBatch)
          .field("spatial", Spatial)
          .field("m", SG.OutChannels)
          .field("k", SweepK)
          .field("n", SweepCols)
          .field("split", convSplitKindName(Split.Kind))
          .field("column_chunk", Split.ColumnChunk)
          .field("tasks", static_cast<int>(Split.Tasks));
      pushRow(Row);
    }
  }
  setKernelWorkers(1);
  std::printf("--- Split crossover (%u workers) ---\n%s\n", MtWorkers,
              SplitTable.render().c_str());

  trainingStepSection(pushRow, Generator);

  const std::string JsonPath = "BENCH_kernels.json";
  Error WriteErr = writeFile(JsonPath, "[\n  " + JsonRows + "\n]\n");
  if (WriteErr)
    std::printf("warning: could not write %s: %s\n", JsonPath.c_str(),
                WriteErr.message().c_str());
  else
    std::printf("wrote %s\n", JsonPath.c_str());
  return 0;
}
