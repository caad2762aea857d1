#include "omega/omega_stat.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "util/contract.hpp"

namespace ldla {

namespace {

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

double pairs2(double k) { return k * (k - 1.0) / 2.0; }

struct PrefixSums {
  // within[l]       = sum of r2 over pairs (i < j < l)
  // prefix_upper[l] = sum of r2 over pairs (i < l, j > i)
  std::vector<double> within;
  std::vector<double> prefix_upper;
};

// One row-major pass: row i's sum upper[i] takes its terms in ascending j,
// and every column sum col[j] takes its terms in ascending i, both from
// 0.0. The prefix sums then add whole rows and columns in index order.
PrefixSums build_prefix(const R2UpperView& r2) {
  const std::size_t w = r2.size;
  std::vector<double> upper(w, 0.0);
  std::vector<double> col(w, 0.0);
  for (std::size_t i = 0; i < w; ++i) {
    const double* row = r2.data + i * r2.ld;
    double sum = 0.0;
    for (std::size_t j = i + 1; j < w; ++j) {
      const double v = finite_or_zero(row[j]);
      sum += v;
      col[j] += v;
    }
    upper[i] = sum;
  }
  PrefixSums ps;
  ps.within.assign(w + 1, 0.0);
  ps.prefix_upper.assign(w + 1, 0.0);
  for (std::size_t l = 0; l < w; ++l) {
    ps.within[l + 1] = ps.within[l] + col[l];
    ps.prefix_upper[l + 1] = ps.prefix_upper[l] + upper[l];
  }
  return ps;
}

R2UpperView upper_view(const LdMatrix& r2) {
  LDLA_EXPECT(r2.rows() == r2.cols(), "window matrix must be square");
  return {r2.data(), r2.cols(), r2.rows()};
}

double omega_from_sums(double sum_l, double sum_r, double cross,
                       std::size_t l, std::size_t w) {
  const double n_within = pairs2(static_cast<double>(l)) +
                          pairs2(static_cast<double>(w - l));
  const double n_cross = static_cast<double>(l) * static_cast<double>(w - l);
  if (n_within <= 0.0 || n_cross <= 0.0) return 0.0;
  const double numer = (sum_l + sum_r) / n_within;
  const double denom = cross / n_cross;
  if (denom <= 0.0) {
    return numer > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return numer / denom;
}

}  // namespace

double omega_at_split(const LdMatrix& r2, std::size_t l) {
  const R2UpperView view = upper_view(r2);
  const std::size_t w = view.size;
  LDLA_EXPECT(l >= 1 && l < w, "split must leave both groups non-empty");
  const PrefixSums ps = build_prefix(view);
  const double sum_l = ps.within[l];
  const double total = ps.within[w];
  const double cross = ps.prefix_upper[l] - ps.within[l];
  const double sum_r = total - sum_l - cross;
  return omega_from_sums(sum_l, sum_r, cross, l, w);
}

OmegaMax omega_max(const R2UpperView& r2) {
  const std::size_t w = r2.size;
  OmegaMax best;
  if (w < 2) return best;
  LDLA_EXPECT(r2.data != nullptr && r2.ld + 1 >= w,
              "view needs data and a stride of at least size - 1");
  const PrefixSums ps = build_prefix(r2);
  const double total = ps.within[w];
  for (std::size_t l = 1; l < w; ++l) {
    const double sum_l = ps.within[l];
    const double cross = ps.prefix_upper[l] - ps.within[l];
    const double sum_r = total - sum_l - cross;
    const double omega = omega_from_sums(sum_l, sum_r, cross, l, w);
    if (omega > best.omega) {
      best.omega = omega;
      best.split = l;
    }
  }
  return best;
}

OmegaMax omega_max(const LdMatrix& r2) { return omega_max(upper_view(r2)); }

}  // namespace ldla
