// The omega statistic of Kim & Nielsen (2004) — the selective-sweep
// detector OmegaPlus builds on LD (the paper's second comparator and its
// motivating application).
//
// For a window of w SNPs split after the l-th SNP into a left group L and a
// right group R:
//
//             ( C(l,2) + C(w-l,2) )^-1  ( sum_{i<j in L} r2 + sum_{i<j in R} r2 )
//   omega_l = ---------------------------------------------------------------
//             ( l (w-l) )^-1  sum_{i in L, j in R} r2
//
// High omega = strong LD within each flank but weak LD across them — the
// signature left by a completed selective sweep between the groups.
#pragma once

#include <cstddef>
#include <vector>

#include "core/ld.hpp"

namespace ldla {

/// The strict upper triangle of a w x w window's r^2 matrix: r2(i, j) for
/// i < j < size lives at data[i * ld + j]. Nothing on or below the
/// diagonal is read, so a banded store whose rows hold r2(a, a + d) at
/// offset d is a view with ld = band width - 1 (the ω scan's layout).
struct R2UpperView {
  const double* data = nullptr;
  std::size_t ld = 0;
  std::size_t size = 0;
};

/// omega for one split of a window whose pairwise r^2 matrix is given.
/// `l` SNPs go left (1 <= l <= w-1). NaN r^2 entries (monomorphic SNPs)
/// contribute zero. Returns 0 when the cross term vanishes with empty
/// within-groups, and +inf when within-LD is positive but cross-LD is zero.
double omega_at_split(const LdMatrix& r2, std::size_t l);

struct OmegaMax {
  double omega = 0.0;
  std::size_t split = 0;  ///< best l
};

/// omega maximized over all splits of the window (OmegaPlus's omega_max):
/// one row-major pass over the w(w-1)/2 upper-triangle entries builds the
/// prefix sums, then each of the w-1 splits costs O(1).
OmegaMax omega_max(const R2UpperView& r2);

/// Same over a square matrix (only its upper triangle is read).
OmegaMax omega_max(const LdMatrix& r2);

}  // namespace ldla
