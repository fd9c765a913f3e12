//===- tensor/ArchClones.h - Per-ISA function clones ------------*- C++ -*-===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// WOOTZ_ARCH_CLONES marks a hot loop for per-ISA function clones: the
/// binary stays portable (baseline x86-64) while the dynamic linker picks
/// an AVX2/FMA or AVX-512 body on capable hosts. Microarchitecture
/// *levels* (x86-64-v3/v4) rather than named CPUs: the resolver then
/// dispatches on the feature bitset instead of an exact CPU-model match,
/// which matters on virtualized hosts reporting generic model strings.
/// Clones are disabled under sanitizers (ifunc resolvers run before the
/// sanitizer runtime is ready) and on non-GCC/non-x86 builds.
///
/// The v3/v4 bodies may contract a multiply followed by an add into one
/// FMA, which rounds once instead of twice. A loop whose results must be
/// bit-identical on every host therefore takes clones only if it does no
/// multiply-add (selects, copies, plain adds).
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_TENSOR_ARCHCLONES_H
#define WOOTZ_TENSOR_ARCHCLONES_H

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) &&        \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define WOOTZ_ARCH_CLONES                                                     \
  __attribute__((                                                             \
      target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define WOOTZ_ARCH_CLONES
#endif

#endif // WOOTZ_TENSOR_ARCHCLONES_H
