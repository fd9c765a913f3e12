//===- tests/KernelParityTest.cpp - training-step kernel bit parity -------===//
//
// The training step's data-movement loops (im2col, col2im, ReLU) and the
// small-product dW GEMM (gemmTransposeBReference) are written to
// vectorize or to overlap latencies, under one rule: every output element
// sees exactly the operations, in exactly the order, of the plain scalar
// loop.
// These tests hold them to it bit for bit (memcmp) against scalar copies
// of those loops, over a geometry sweep (kernel 1/3/5, stride 1/2/3, pad
// 0..kernel, non-square and odd extents) and over inputs that include
// +-0, NaN, +-inf and denormals (a NaN may come out as a NaN of another
// sign or payload; see bitwiseEqual).
//
//===----------------------------------------------------------------------===//

#include "src/nn/Layers.h"
#include "src/support/Rng.h"
#include "src/tensor/Ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace wootz;

namespace {

//===----------------------------------------------------------------------===//
// Scalar oracles: the per-pixel bounds-tested loops.
//===----------------------------------------------------------------------===//

void scalarIm2col(const float *Image, int Channels, int Height, int Width,
                  const ConvGeometry &Geometry, float *Columns) {
  const int OutH = Geometry.outExtent(Height);
  const int OutW = Geometry.outExtent(Width);
  const int Kernel = Geometry.KernelSize;
  float *Out = Columns;
  for (int C = 0; C < Channels; ++C) {
    const float *Plane = Image + static_cast<size_t>(C) * Height * Width;
    for (int KH = 0; KH < Kernel; ++KH)
      for (int KW = 0; KW < Kernel; ++KW)
        for (int OH = 0; OH < OutH; ++OH) {
          const int IH = OH * Geometry.Stride - Geometry.Pad + KH;
          for (int OW = 0; OW < OutW; ++OW) {
            const int IW = OW * Geometry.Stride - Geometry.Pad + KW;
            const bool Inside =
                IH >= 0 && IH < Height && IW >= 0 && IW < Width;
            *Out++ = Inside ? Plane[static_cast<size_t>(IH) * Width + IW]
                            : 0.0f;
          }
        }
  }
}

void scalarCol2im(const float *Columns, int Channels, int Height, int Width,
                  const ConvGeometry &Geometry, float *Image) {
  const int OutH = Geometry.outExtent(Height);
  const int OutW = Geometry.outExtent(Width);
  const int Kernel = Geometry.KernelSize;
  const float *In = Columns;
  for (int C = 0; C < Channels; ++C) {
    float *Plane = Image + static_cast<size_t>(C) * Height * Width;
    for (int KH = 0; KH < Kernel; ++KH)
      for (int KW = 0; KW < Kernel; ++KW)
        for (int OH = 0; OH < OutH; ++OH) {
          const int IH = OH * Geometry.Stride - Geometry.Pad + KH;
          for (int OW = 0; OW < OutW; ++OW, ++In) {
            const int IW = OW * Geometry.Stride - Geometry.Pad + KW;
            if (IH >= 0 && IH < Height && IW >= 0 && IW < Width)
              Plane[static_cast<size_t>(IH) * Width + IW] += *In;
          }
        }
  }
}

void scalarReluForward(const float *In, float *Out, size_t Count) {
  for (size_t I = 0; I < Count; ++I)
    Out[I] = In[I] > 0.0f ? In[I] : 0.0f;
}

void scalarReluBackward(const float *Out, const float *GradOut,
                        float *GradIn, size_t Count) {
  for (size_t I = 0; I < Count; ++I)
    if (Out[I] > 0.0f)
      GradIn[I] += GradOut[I];
}

/// One dot product per output, each summed in L order.
void scalarGemmTransposeB(const float *A, const float *B, float *C, int M,
                          int K, int N) {
  for (int I = 0; I < M; ++I)
    for (int J = 0; J < N; ++J) {
      float Total = 0.0f;
      for (int L = 0; L < K; ++L)
        Total += A[static_cast<size_t>(I) * K + L] *
                 B[static_cast<size_t>(J) * K + L];
      C[static_cast<size_t>(I) * N + J] += Total;
    }
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// Random values with the IEEE special cases mixed in.
std::vector<float> specialValues(size_t Count, uint64_t Seed) {
  const float Specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -3.0e-39f,
                            1.0e-40f,
                            std::numeric_limits<float>::min(),
                            -std::numeric_limits<float>::max()};
  const size_t SpecialCount = sizeof(Specials) / sizeof(Specials[0]);
  Rng Generator(Seed);
  std::vector<float> Values(Count);
  for (float &V : Values) {
    const uint64_t Draw = Generator.next();
    V = Draw % 4 == 0 ? Specials[(Draw >> 8) % SpecialCount]
                      : Generator.nextGaussian();
  }
  return Values;
}

/// Bit-for-bit equality, except that any NaN matches any NaN. IEEE 754
/// leaves the sign and payload of NaN + NaN to the hardware (x86 returns
/// the first operand's), and the compiler may commute an add's operands
/// in any loop, scalar or vector; NaN-ness itself must still match.
bool bitwiseEqual(const std::vector<float> &A, const std::vector<float> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (std::memcmp(&A[I], &B[I], sizeof(float)) != 0 &&
        !(std::isnan(A[I]) && std::isnan(B[I])))
      return false;
  return true;
}

/// One case of the geometry sweep: 3 input channels, kernel 1/3/5,
/// stride 1/2/3, pad 0..kernel, over non-square, odd, degenerate (one
/// row) and vector-length-spanning extents.
struct SweepCase {
  ConvGeometry Geometry;
  int Height;
  int Width;
  uint64_t Seed;

  int channels() const { return Geometry.InChannels; }
  size_t imageSize() const {
    return static_cast<size_t>(channels()) * Height * Width;
  }
  size_t columnsSize() const {
    return static_cast<size_t>(channels()) * Geometry.KernelSize *
           Geometry.KernelSize * Geometry.outExtent(Height) *
           Geometry.outExtent(Width);
  }
};

std::vector<SweepCase> geometrySweep() {
  const int Extents[][2] = {{5, 7}, {8, 3}, {1, 9}, {11, 6}, {13, 37}};
  std::vector<SweepCase> Cases;
  for (int Kernel : {1, 3, 5})
    for (int Stride : {1, 2, 3})
      for (int Pad = 0; Pad <= Kernel; ++Pad)
        for (const auto &[Height, Width] : Extents) {
          if (Height + 2 * Pad < Kernel || Width + 2 * Pad < Kernel)
            continue;
          SweepCase Case;
          Case.Geometry.InChannels = 3;
          Case.Geometry.KernelSize = Kernel;
          Case.Geometry.Stride = Stride;
          Case.Geometry.Pad = Pad;
          Case.Height = Height;
          Case.Width = Width;
          Case.Seed = 1000 + Cases.size();
          Cases.push_back(Case);
        }
  return Cases;
}

std::string describe(const SweepCase &Case) {
  return "kernel " + std::to_string(Case.Geometry.KernelSize) + " stride " +
         std::to_string(Case.Geometry.Stride) + " pad " +
         std::to_string(Case.Geometry.Pad) + " extent " +
         std::to_string(Case.Height) + "x" + std::to_string(Case.Width);
}

} // namespace

TEST(KernelParityTest, Im2colMatchesScalarLoopOverGeometrySweep) {
  const std::vector<SweepCase> Cases = geometrySweep();
  EXPECT_GT(Cases.size(), 150u);
  for (const SweepCase &Case : Cases) {
    const std::vector<float> Image =
        specialValues(Case.imageSize(), Case.Seed);
    // Garbage-filled outputs: every column entry must be written.
    std::vector<float> Expected(Case.columnsSize(), 7.5f);
    std::vector<float> Actual(Case.columnsSize(), -7.5f);
    scalarIm2col(Image.data(), Case.channels(), Case.Height, Case.Width,
                 Case.Geometry, Expected.data());
    im2col(Image.data(), Case.channels(), Case.Height, Case.Width,
           Case.Geometry, Actual.data());
    EXPECT_TRUE(bitwiseEqual(Expected, Actual)) << describe(Case);
  }
}

TEST(KernelParityTest, Col2imMatchesScalarLoopOverGeometrySweep) {
  for (const SweepCase &Case : geometrySweep()) {
    const std::vector<float> Columns =
        specialValues(Case.columnsSize(), Case.Seed);
    // col2im accumulates: start both images from the same non-zero
    // (special-laden) contents.
    const std::vector<float> Start =
        specialValues(Case.imageSize(), Case.Seed + 5000);
    std::vector<float> Expected = Start;
    std::vector<float> Actual = Start;
    scalarCol2im(Columns.data(), Case.channels(), Case.Height, Case.Width,
                 Case.Geometry, Expected.data());
    col2im(Columns.data(), Case.channels(), Case.Height, Case.Width,
           Case.Geometry, Actual.data());
    EXPECT_TRUE(bitwiseEqual(Expected, Actual)) << describe(Case);
  }
}

TEST(KernelParityTest, Col2imKeepsTheTapOrderOfOverlappingWindows) {
  // Stride 1 with a 3x3 window: every interior pixel sums nine taps.
  // Magnitudes spread over many binades make any reordering of those
  // sums visible in the low bits.
  ConvGeometry Geometry;
  Geometry.InChannels = 2;
  Geometry.KernelSize = 3;
  Geometry.Stride = 1;
  Geometry.Pad = 1;
  const int Height = 9, Width = 10;
  const size_t ColCount = static_cast<size_t>(2) * 9 * Height * Width;
  std::vector<float> Columns(ColCount);
  Rng Generator(77);
  for (float &V : Columns)
    V = Generator.nextGaussian() *
        static_cast<float>(1u << (Generator.next() % 24));
  std::vector<float> Expected(static_cast<size_t>(2) * Height * Width, 0.f);
  std::vector<float> Actual = Expected;
  scalarCol2im(Columns.data(), 2, Height, Width, Geometry, Expected.data());
  col2im(Columns.data(), 2, Height, Width, Geometry, Actual.data());
  EXPECT_TRUE(bitwiseEqual(Expected, Actual));
}

TEST(KernelParityTest, ReluBackwardMatchesScalarBranch) {
  ReLU Layer;
  // Odd sizes cover the vector remainder; 1 has no vector body at all.
  for (int Size : {1, 7, 64, 333, 4097}) {
    const Shape TensorShape{1, 1, 1, Size};
    Tensor Out(TensorShape), GradOut(TensorShape), GradIn(TensorShape);
    const std::vector<float> OutValues = specialValues(Size, 4000 + Size);
    const std::vector<float> GradValues = specialValues(Size, 5000 + Size);
    // The input gradient may already hold a sibling branch's sum.
    const std::vector<float> Start = specialValues(Size, 6000 + Size);
    std::memcpy(Out.data(), OutValues.data(), sizeof(float) * Size);
    std::memcpy(GradOut.data(), GradValues.data(), sizeof(float) * Size);
    std::memcpy(GradIn.data(), Start.data(), sizeof(float) * Size);

    std::vector<float> Expected = Start;
    scalarReluBackward(OutValues.data(), GradValues.data(), Expected.data(),
                       Size);
    LayerScratch Scratch;
    Layer.backward({&Out}, Out, GradOut, Scratch, {&GradIn});
    const std::vector<float> Actual(GradIn.data(), GradIn.data() + Size);
    EXPECT_TRUE(bitwiseEqual(Expected, Actual)) << "size " << Size;
  }
}

TEST(KernelParityTest, ReluForwardMatchesScalarSelect) {
  ReLU Layer;
  for (int Size : {1, 7, 64, 333, 4097}) {
    const Shape TensorShape{1, 1, 1, Size};
    Tensor In(TensorShape), Out(TensorShape);
    const std::vector<float> InValues = specialValues(Size, 7000 + Size);
    std::memcpy(In.data(), InValues.data(), sizeof(float) * Size);
    std::vector<float> Expected(Size);
    scalarReluForward(InValues.data(), Expected.data(), Size);
    LayerScratch Scratch;
    Layer.forward({&In}, Out, Scratch, /*Training=*/true);
    const std::vector<float> Actual(Out.data(), Out.data() + Size);
    EXPECT_TRUE(bitwiseEqual(Expected, Actual)) << "size " << Size;
  }
}

TEST(KernelParityTest, GemmTransposeBReferenceMatchesScalarDotProducts) {
  // N values around the four-column step, and K from one term up.
  int Cases = 0;
  for (int M : {1, 3, 8})
    for (int K : {1, 2, 7, 64})
      for (int N : {1, 3, 4, 5, 8, 13}) {
        const std::vector<float> A =
            specialValues(static_cast<size_t>(M) * K, 8000 + Cases);
        const std::vector<float> B =
            specialValues(static_cast<size_t>(N) * K, 9000 + Cases);
        const std::vector<float> Start =
            specialValues(static_cast<size_t>(M) * N, 10000 + Cases);
        for (bool Accumulate : {false, true}) {
          std::vector<float> Expected(Start.size(), 0.0f);
          if (Accumulate)
            Expected = Start;
          std::vector<float> Actual = Start;
          scalarGemmTransposeB(A.data(), B.data(), Expected.data(), M, K, N);
          gemmTransposeBReference(A.data(), B.data(), Actual.data(), M, K, N,
                                  Accumulate);
          EXPECT_TRUE(bitwiseEqual(Expected, Actual))
              << M << "x" << K << "x" << N << " accumulate " << Accumulate;
        }
        ++Cases;
      }
}
