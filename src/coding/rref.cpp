#include "coding/rref.h"

#include <cstring>

#include "common/assert.h"
#include "galois/gf256.h"
#include "galois/region.h"
#include "obs/registry.h"

namespace omnc::coding {

RrefAccumulator::RrefAccumulator(std::size_t pivot_cols)
    : pivot_cols_(pivot_cols), scratch_(pivot_cols) {
  OMNC_ASSERT(pivot_cols > 0);
}

bool RrefAccumulator::insert(const std::uint8_t* coefficients) {
  OMNC_SCOPED_TIMER("coding/rref_insert");
  if (complete()) return false;  // the basis already spans the whole space
  std::uint8_t* sc = scratch_.data();
  std::memcpy(sc, coefficients, pivot_cols_);
  // Forward elimination against the existing basis.  The basis is in
  // reduced form, so every stored row has zeros in the other rows' pivot
  // columns: the elimination factors can all be read up front and the whole
  // sweep batched through the fused kernels.
  const std::size_t rank = pivots_.size();
  elim_srcs_.resize(rank);
  elim_factors_.resize(rank);
  std::size_t active = 0;
  for (std::size_t k = 0; k < rank; ++k) {
    const std::uint8_t factor = sc[pivots_[k]];
    if (factor != 0) {
      elim_srcs_[active] = basis_row(k);
      elim_factors_[active] = factor;
      ++active;
    }
  }
  if (active > 0) {
    gf::region_axpy_many(sc, elim_srcs_.data(), elim_factors_.data(), active,
                         pivot_cols_);
  }
  // Locate the pivot of the residual.
  std::size_t pivot = 0;
  while (pivot < pivot_cols_ && sc[pivot] == 0) ++pivot;
  if (pivot == pivot_cols_) return false;  // linearly dependent
  // Normalize so the pivot entry is 1.
  const std::uint8_t pivot_value = sc[pivot];
  if (pivot_value != 1) {
    gf::region_mul(sc, sc, gf::inv(pivot_value), pivot_cols_);
  }
  // Back-substitute the new pivot out of existing rows: one source into
  // many short destinations is the scatter kernel's shape — a single call
  // instead of one axpy per row.
  elim_dsts_.clear();
  elim_factors_.clear();
  for (std::size_t k = 0; k < rank; ++k) {
    std::uint8_t* existing = basis_row(k);
    const std::uint8_t factor = existing[pivot];
    if (factor != 0) {
      elim_dsts_.push_back(existing);
      elim_factors_.push_back(factor);
    }
  }
  if (!elim_dsts_.empty()) {
    gf::region_axpy_scatter(elim_dsts_.data(), elim_factors_.data(),
                            elim_dsts_.size(), sc, pivot_cols_);
  }
  basis_.insert(basis_.end(), sc, sc + pivot_cols_);
  pivots_.push_back(pivot);
  return true;
}

void RrefAccumulator::clear() {
  pivots_.clear();
  basis_.clear();
}

}  // namespace omnc::coding
