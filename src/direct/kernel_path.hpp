// Which build of the dense set-up kernels (direct/kernels) this process
// runs. kernels.cpp compiles its vectorizable kernels twice from one
// source: once for the build's own target (the baseline path) and, on
// x86-64 with GCC or Clang, once more for AVX2. The process takes the AVX2
// path when the CPU has it; no option, flag or environment variable
// chooses. Both paths give the same bits (docs/ALGORITHMS.md §2.4).
#pragma once

namespace pdslin::panel {

enum class KernelPath { Baseline, Avx2 };

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PDSLIN_KERNELS_AVX2 1
#endif

/// True when this build has path p and the CPU can run it.
inline bool kernel_path_available(KernelPath p) {
  if (p == KernelPath::Baseline) return true;
#ifdef PDSLIN_KERNELS_AVX2
  __builtin_cpu_init();  // may run before libgcc's own initializer
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// The path the dispatching kernels take, chosen once per process.
inline KernelPath kernel_path() {
  static const KernelPath path = kernel_path_available(KernelPath::Avx2)
                                     ? KernelPath::Avx2
                                     : KernelPath::Baseline;
  return path;
}

inline const char* to_string(KernelPath p) {
  return p == KernelPath::Avx2 ? "avx2" : "baseline";
}

}  // namespace pdslin::panel
