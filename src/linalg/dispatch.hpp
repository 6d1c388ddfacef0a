// Load-time SIMD dispatch for hot numeric kernels.
//
// The portable baseline targets x86-64 SSE2; on hosts with AVX2+FMA the
// ifunc resolver picks a 4-wide FMA clone of the same source at load time,
// so the plain build still gets vector throughput without -march=native.
// (With MAOPT_NATIVE=ON the whole TU is already compiled for the host and
// cloning would be redundant.) Sanitizer builds must not clone: the ifunc
// resolver runs before the sanitizer runtime initializes, and the clones
// hide reports behind uninstrumented dispatch — MAOPT_SAN defines
// MAOPT_NO_TARGET_CLONES (and GCC's own __SANITIZE_* macros back it up for
// ASan/TSan).
//
// MAOPT_TARGET_CLONES compiles one body twice. Kernels whose body itself
// differs per ISA (the GEMM kernels in gemm.cpp pick their vector width:
// 4 lanes with AVX2, 2 with SSE2) instead define an MAOPT_TARGET_V3
// function next to the baseline one and branch on host_has_v3(), which
// asks the same question as the target_clones resolver. The branch exists
// exactly where the clones do (MAOPT_V3_DISPATCH), so sanitizer builds run
// the baseline body.
//
// Shared by the GEMM kernels (gemm.cpp), the LU factorization trailing
// update (lu.cpp), and the AC sweep combine kernel (ac_analysis.cpp).
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && !defined(__AVX2__) && \
    !defined(MAOPT_NO_TARGET_CLONES) && !defined(__SANITIZE_ADDRESS__) &&                    \
    !defined(__SANITIZE_THREAD__)
#define MAOPT_TARGET_CLONES __attribute__((target_clones("default", "arch=x86-64-v3")))
#define MAOPT_TARGET_V3 __attribute__((target("arch=x86-64-v3")))
#define MAOPT_V3_DISPATCH 1
#else
#define MAOPT_TARGET_CLONES
#define MAOPT_V3_DISPATCH 0
#endif

#if MAOPT_V3_DISPATCH
namespace maopt {
/// True when the host runs the x86-64-v3 (AVX2+FMA) code.
inline bool host_has_v3() {
  static const bool v3 = (__builtin_cpu_init(), __builtin_cpu_supports("x86-64-v3") != 0);
  return v3;
}
}  // namespace maopt
#endif
