// Double-precision GEMM with the same GotoBLAS structure as the popcount
// engine — the "LD is DLA in disguise" control experiment.
//
// The naive DLA route to LD expands the binary matrix G to doubles and
// computes H·Nseq = G·Gᵀ with a conventional dgemm. That is numerically
// identical to the popcount formulation but stores 64x more bits per
// allele and replaces the 1-cycle (AND, POPCNT, ADD) word triple with 64
// FMA lanes' worth of arithmetic. bench_dgemm_comparison measures exactly
// how much the paper's bit-packed semiring buys over this route.
//
// Same operand convention as gemm_count_fused: A is m x k row-major, B is
// n x k row-major, and C[i][j] += sum_k A[i][k] * B[j][k] (an "NT" product).
#pragma once

#include <cstddef>

namespace ldla {

struct DgemmPlan {
  std::size_t mr = 4;
  std::size_t nr = 8;
  std::size_t kc = 256;
  std::size_t mc = 128;
  std::size_t nc = 4096;
};

/// C (m x n, row-major, leading dimension ldc) += A · Bᵀ.
void dgemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
              std::size_t lda, const double* b, std::size_t ldb, double* c,
              std::size_t ldc, const DgemmPlan& plan = {});

}  // namespace ldla
