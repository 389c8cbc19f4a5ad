#include "core/comm_matrix.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/lgamma.hpp"
#include "util/prefix.hpp"

namespace cgp::core {

std::uint64_t comm_matrix::total() const noexcept {
  std::uint64_t t = 0;
  for (const std::uint64_t v : a_) t += v;
  return t;
}

std::vector<std::uint64_t> comm_matrix::row_sums() const {
  std::vector<std::uint64_t> sums(rows_, 0);
  for (std::uint32_t i = 0; i < rows_; ++i)
    for (std::uint32_t j = 0; j < cols_; ++j) sums[i] += (*this)(i, j);
  return sums;
}

std::vector<std::uint64_t> comm_matrix::col_sums() const {
  std::vector<std::uint64_t> sums(cols_, 0);
  for (std::uint32_t i = 0; i < rows_; ++i)
    for (std::uint32_t j = 0; j < cols_; ++j) sums[j] += (*this)(i, j);
  return sums;
}

bool comm_matrix::satisfies_margins(std::span<const std::uint64_t> row_margins,
                                    std::span<const std::uint64_t> col_margins) const {
  if (row_margins.size() != rows_ || col_margins.size() != cols_) return false;
  const auto rs = row_sums();
  const auto cs = col_sums();
  for (std::uint32_t i = 0; i < rows_; ++i)
    if (rs[i] != row_margins[i]) return false;
  for (std::uint32_t j = 0; j < cols_; ++j)
    if (cs[j] != col_margins[j]) return false;
  return true;
}

double comm_matrix::log_probability() const {
  const auto lfact = [](std::uint64_t k) { return util::log_gamma(static_cast<double>(k) + 1.0); };
  double acc = 0.0;
  for (const std::uint64_t m : row_sums()) acc += lfact(m);
  for (const std::uint64_t m : col_sums()) acc += lfact(m);
  acc -= lfact(total());
  for (std::uint32_t i = 0; i < rows_; ++i)
    for (std::uint32_t j = 0; j < cols_; ++j) acc -= lfact((*this)(i, j));
  return acc;
}

comm_matrix comm_matrix::merge(std::span<const std::uint32_t> row_bounds,
                               std::span<const std::uint32_t> col_bounds) const {
  CGP_EXPECTS(row_bounds.size() >= 2 && col_bounds.size() >= 2);
  CGP_EXPECTS(row_bounds.front() == 0 && row_bounds.back() == rows_);
  CGP_EXPECTS(col_bounds.front() == 0 && col_bounds.back() == cols_);
  const auto q = static_cast<std::uint32_t>(row_bounds.size() - 1);
  const auto qc = static_cast<std::uint32_t>(col_bounds.size() - 1);
  comm_matrix out(q, qc);
  for (std::uint32_t r = 0; r < q; ++r) {
    CGP_EXPECTS(row_bounds[r] < row_bounds[r + 1]);
    for (std::uint32_t s = 0; s < qc; ++s) {
      CGP_EXPECTS(col_bounds[s] < col_bounds[s + 1]);
      std::uint64_t acc = 0;
      for (std::uint32_t i = row_bounds[r]; i < row_bounds[r + 1]; ++i)
        for (std::uint32_t j = col_bounds[s]; j < col_bounds[s + 1]; ++j) acc += (*this)(i, j);
      out(r, s) = acc;
    }
  }
  return out;
}

comm_matrix matrix_of_permutation(std::span<const std::uint64_t> perm,
                                  std::span<const std::uint64_t> row_margins,
                                  std::span<const std::uint64_t> col_margins) {
  const auto p = static_cast<std::uint32_t>(row_margins.size());
  const auto pc = static_cast<std::uint32_t>(col_margins.size());
  CGP_EXPECTS(span_sum(row_margins) == perm.size());
  CGP_EXPECTS(span_sum(col_margins) == perm.size());

  // Block boundaries as cumulative offsets.
  std::vector<std::uint64_t> row_off(p);
  std::vector<std::uint64_t> col_off(pc);
  exclusive_prefix_sum(row_margins, row_off);
  exclusive_prefix_sum(col_margins, col_off);

  const auto owner = [](std::span<const std::uint64_t> offsets, std::uint64_t pos) {
    // Largest index with offset <= pos (offsets ascending).
    std::uint32_t lo = 0;
    auto hi = static_cast<std::uint32_t>(offsets.size());
    while (hi - lo > 1) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (offsets[mid] <= pos) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  };

  comm_matrix a(p, pc);
  for (std::uint64_t g = 0; g < perm.size(); ++g) {
    const std::uint32_t i = owner(row_off, g);
    const std::uint32_t j = owner(col_off, perm[g]);
    CGP_ASSERT_DBG(perm[g] < perm.size());
    ++a(i, j);
  }
  CGP_ENSURES(a.satisfies_margins(row_margins, col_margins));
  return a;
}

}  // namespace cgp::core
