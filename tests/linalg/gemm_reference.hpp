// The pre-SIMD GEMM kernels, kept as the bit-exact reference for
// test_gemm_bits.cpp. Same signatures and accumulate-into-C contract as the
// kernels in linalg/gemm.hpp, minus the Bᵀ pack scratch of gemm_nt.
#pragma once

#include <cstddef>

namespace maopt::linalg::reference {

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a, const double* b,
             double* c);
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a, const double* b,
             double* c);
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a, const double* b,
             double* c);

}  // namespace maopt::linalg::reference
