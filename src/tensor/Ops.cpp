//===- tensor/Ops.cpp ------------------------------------------------------===//

#include "src/tensor/Ops.h"

#include "src/tensor/Kernels.h"

#include <algorithm>
#include <cstring>

using namespace wootz;

/// Below this flop volume the blocked engine's panel packing costs more
/// than its micro-kernel saves; the reference loops win.
bool wootz::gemmUsesBlockedEngine(int M, int K, int N) {
  return static_cast<size_t>(M) * K * N >= 16384;
}

static bool useBlockedGemm(int M, int K, int N) {
  return gemmUsesBlockedEngine(M, K, N);
}

void wootz::gemmReference(const float *A, const float *B, float *C, int M,
                          int K, int N, bool Accumulate) {
  if (!Accumulate)
    std::memset(C, 0, sizeof(float) * static_cast<size_t>(M) * N);
  // i-k-j loop order: the inner loop streams over B and C rows, which
  // vectorizes well and avoids strided access.
  for (int I = 0; I < M; ++I) {
    const float *ARow = A + static_cast<size_t>(I) * K;
    float *CRow = C + static_cast<size_t>(I) * N;
    for (int L = 0; L < K; ++L) {
      const float AVal = ARow[L];
      if (AVal == 0.0f)
        continue;
      const float *BRow = B + static_cast<size_t>(L) * N;
      for (int J = 0; J < N; ++J)
        CRow[J] += AVal * BRow[J];
    }
  }
}

void wootz::gemmTransposeAReference(const float *A, const float *B, float *C,
                                    int M, int K, int N, bool Accumulate) {
  if (!Accumulate)
    std::memset(C, 0, sizeof(float) * static_cast<size_t>(M) * N);
  for (int L = 0; L < K; ++L) {
    const float *ARow = A + static_cast<size_t>(L) * M;
    const float *BRow = B + static_cast<size_t>(L) * N;
    for (int I = 0; I < M; ++I) {
      const float AVal = ARow[I];
      if (AVal == 0.0f)
        continue;
      float *CRow = C + static_cast<size_t>(I) * N;
      for (int J = 0; J < N; ++J)
        CRow[J] += AVal * BRow[J];
    }
  }
}

void wootz::gemmTransposeBReference(const float *A, const float *B, float *C,
                                    int M, int K, int N, bool Accumulate) {
  if (!Accumulate)
    std::memset(C, 0, sizeof(float) * static_cast<size_t>(M) * N);
  for (int I = 0; I < M; ++I) {
    const float *ARow = A + static_cast<size_t>(I) * K;
    float *CRow = C + static_cast<size_t>(I) * N;
    // Four columns at a time: their independent accumulators overlap the
    // add latency that a single dot product serializes on, while each
    // still sums its own column in L order.
    int J = 0;
    for (; J + 4 <= N; J += 4) {
      const float *B0 = B + static_cast<size_t>(J) * K;
      const float *B1 = B0 + K;
      const float *B2 = B1 + K;
      const float *B3 = B2 + K;
      float Total0 = 0.0f, Total1 = 0.0f, Total2 = 0.0f, Total3 = 0.0f;
      for (int L = 0; L < K; ++L) {
        const float AVal = ARow[L];
        Total0 += AVal * B0[L];
        Total1 += AVal * B1[L];
        Total2 += AVal * B2[L];
        Total3 += AVal * B3[L];
      }
      CRow[J] += Total0;
      CRow[J + 1] += Total1;
      CRow[J + 2] += Total2;
      CRow[J + 3] += Total3;
    }
    for (; J < N; ++J) {
      const float *BRow = B + static_cast<size_t>(J) * K;
      float Total = 0.0f;
      for (int L = 0; L < K; ++L)
        Total += ARow[L] * BRow[L];
      CRow[J] += Total;
    }
  }
}

void wootz::gemm(const float *A, const float *B, float *C, int M, int K,
                 int N, bool Accumulate) {
  if (useBlockedGemm(M, K, N)) {
    detail::blockedGemm(A, static_cast<size_t>(K), 1, B,
                        static_cast<size_t>(N), 1, C, M, K, N, Accumulate,
                        /*RowBias=*/nullptr);
    return;
  }
  gemmReference(A, B, C, M, K, N, Accumulate);
}

void wootz::gemmTransposeA(const float *A, const float *B, float *C, int M,
                           int K, int N, bool Accumulate) {
  if (useBlockedGemm(M, K, N)) {
    // A is stored KxM: A^T(i, k) = A[k * M + i].
    detail::blockedGemm(A, 1, static_cast<size_t>(M), B,
                        static_cast<size_t>(N), 1, C, M, K, N, Accumulate,
                        /*RowBias=*/nullptr);
    return;
  }
  gemmTransposeAReference(A, B, C, M, K, N, Accumulate);
}

void wootz::gemmTransposeB(const float *A, const float *B, float *C, int M,
                           int K, int N, bool Accumulate) {
  if (useBlockedGemm(M, K, N)) {
    // B is stored NxK: B^T(k, j) = B[j * K + k].
    detail::blockedGemm(A, static_cast<size_t>(K), 1, B, 1,
                        static_cast<size_t>(K), C, M, K, N, Accumulate,
                        /*RowBias=*/nullptr);
    return;
  }
  gemmTransposeBReference(A, B, C, M, K, N, Accumulate);
}

void wootz::gemmBias(const float *A, const float *B, const float *Bias,
                     float *C, int M, int K, int N) {
  if (useBlockedGemm(M, K, N)) {
    detail::blockedGemm(A, static_cast<size_t>(K), 1, B,
                        static_cast<size_t>(N), 1, C, M, K, N,
                        /*Accumulate=*/false, Bias);
    return;
  }
  gemmReference(A, B, C, M, K, N, /*Accumulate=*/false);
  for (int I = 0; I < M; ++I) {
    float *CRow = C + static_cast<size_t>(I) * N;
    const float BiasVal = Bias[I];
    for (int J = 0; J < N; ++J)
      CRow[J] += BiasVal;
  }
}

namespace {
/// The output positions O in [0, OutExtent) whose input position
/// O * Stride + Shift lands inside [0, InExtent), as one [Lo, Hi) range
/// (Lo == Hi when none does). Hoisting this test out of the pixel loops
/// lets im2col/col2im copy or add each row's valid span straight
/// through.
struct ValidRange {
  int Lo;
  int Hi;
};

ValidRange validRange(int OutExtent, int InExtent, int Stride, int Shift) {
  const int Lo = Shift >= 0 ? 0 : (Stride - 1 - Shift) / Stride;
  const int Hi = InExtent <= Shift
                     ? 0
                     : std::min(OutExtent,
                                (InExtent - Shift + Stride - 1) / Stride);
  return {std::min(Lo, Hi), Hi};
}

bool isPointwise(const ConvGeometry &Geometry) {
  return Geometry.KernelSize == 1 && Geometry.Stride == 1 &&
         Geometry.Pad == 0;
}
} // namespace

void wootz::im2col(const float *Image, int Channels, int Height, int Width,
                   const ConvGeometry &Geometry, float *Columns) {
  // A 1x1, stride-1, unpadded convolution's column matrix is the image.
  if (isPointwise(Geometry)) {
    std::memcpy(Columns, Image,
                sizeof(float) * static_cast<size_t>(Channels) * Height *
                    Width);
    return;
  }
  const int OutH = Geometry.outExtent(Height);
  const int OutW = Geometry.outExtent(Width);
  const int Kernel = Geometry.KernelSize;
  const int Stride = Geometry.Stride;
  const size_t RowsSize = static_cast<size_t>(OutH) * OutW;
  float *Out = Columns;
  for (int C = 0; C < Channels; ++C) {
    const float *Plane = Image + static_cast<size_t>(C) * Height * Width;
    for (int KH = 0; KH < Kernel; ++KH) {
      const int ShiftH = KH - Geometry.Pad;
      const ValidRange Rows = validRange(OutH, Height, Stride, ShiftH);
      for (int KW = 0; KW < Kernel; ++KW) {
        const int ShiftW = KW - Geometry.Pad;
        const ValidRange Cols = validRange(OutW, Width, Stride, ShiftW);
        // Zero the row block in one call, then copy each row's in-bounds
        // span over it (plain loops: rows are a few pixels wide, and a
        // library call per row would cost more than the copy).
        std::memset(Out, 0, sizeof(float) * RowsSize);
        for (int OH = Rows.Lo; OH < Rows.Hi; ++OH) {
          const float *Row =
              Plane + static_cast<size_t>(OH * Stride + ShiftH) * Width;
          float *Dst = Out + static_cast<size_t>(OH) * OutW;
          if (Stride == 1)
            for (int OW = Cols.Lo; OW < Cols.Hi; ++OW)
              Dst[OW] = Row[OW + ShiftW];
          else
            for (int OW = Cols.Lo; OW < Cols.Hi; ++OW)
              Dst[OW] = Row[OW * Stride + ShiftW];
        }
        Out += RowsSize;
      }
    }
  }
}

void wootz::col2im(const float *Columns, int Channels, int Height, int Width,
                   const ConvGeometry &Geometry, float *Image) {
  if (isPointwise(Geometry)) {
    const size_t Count = static_cast<size_t>(Channels) * Height * Width;
    for (size_t I = 0; I < Count; ++I)
      Image[I] += Columns[I];
    return;
  }
  // Each (channel, kh, kw) row block adds into distinct image pixels, and
  // the blocks run in the same order as the tap loop they replace, so
  // every pixel receives its sums in an unchanged sequence.
  const int OutH = Geometry.outExtent(Height);
  const int OutW = Geometry.outExtent(Width);
  const int Kernel = Geometry.KernelSize;
  const int Stride = Geometry.Stride;
  const size_t RowsSize = static_cast<size_t>(OutH) * OutW;
  const float *In = Columns;
  for (int C = 0; C < Channels; ++C) {
    float *Plane = Image + static_cast<size_t>(C) * Height * Width;
    for (int KH = 0; KH < Kernel; ++KH) {
      const int ShiftH = KH - Geometry.Pad;
      const ValidRange Rows = validRange(OutH, Height, Stride, ShiftH);
      for (int KW = 0; KW < Kernel; ++KW) {
        const int ShiftW = KW - Geometry.Pad;
        const ValidRange Cols = validRange(OutW, Width, Stride, ShiftW);
        for (int OH = Rows.Lo; OH < Rows.Hi; ++OH) {
          float *Row =
              Plane + static_cast<size_t>(OH * Stride + ShiftH) * Width;
          const float *Src = In + static_cast<size_t>(OH) * OutW;
          if (Stride == 1)
            for (int OW = Cols.Lo; OW < Cols.Hi; ++OW)
              Row[OW + ShiftW] += Src[OW];
          else
            for (int OW = Cols.Lo; OW < Cols.Hi; ++OW)
              Row[OW * Stride + ShiftW] += Src[OW];
        }
        In += RowsSize;
      }
    }
  }
}

void wootz::axpy(float Scale, const float *In, float *Out, size_t Count) {
  for (size_t I = 0; I < Count; ++I)
    Out[I] += Scale * In[I];
}

void wootz::scale(float Scale, float *Out, size_t Count) {
  for (size_t I = 0; I < Count; ++I)
    Out[I] *= Scale;
}

int wootz::argmax(const float *Values, int Count) {
  assert(Count > 0 && "argmax over an empty range");
  int Best = 0;
  for (int I = 1; I < Count; ++I)
    if (Values[I] > Values[Best])
      Best = I;
  return Best;
}
