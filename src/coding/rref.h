// Incremental reduced-row-echelon-form accumulator over coding coefficients
// — the relays' innovation filter (Sec. 4, "Packet and Queue Management").
//
// A relay accepts a packet only if its coefficient vector is outside the
// span of what it already holds.  The accumulator answers exactly that, on
// coefficients alone: every insert forward-eliminates, normalizes, and
// back-substitutes, so the basis stays in reduced form and a rejected row
// leaves no trace.  Payloads never enter it (FamilyRecoder keeps the
// accepted rows as received in its own arenas).
//
// The basis is one contiguous rank x pivot_cols arena; no per-row
// std::vector.  Because the basis is reduced, each stored row has zeros in
// every other row's pivot column, so the forward-elimination factors are
// order-independent — the whole sweep is gathered up front and batched
// through region_axpy_many (4, then 2, sources per destination pass), and
// back-substitution is one region_axpy_scatter call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace omnc::coding {

class RrefAccumulator {
 public:
  /// pivot_cols: number of coefficient columns.
  explicit RrefAccumulator(std::size_t pivot_cols);

  std::size_t rank() const { return pivots_.size(); }
  bool complete() const { return rank() == pivot_cols_; }

  /// Reduces `coefficients` (pivot_cols bytes) against the basis.  Returns
  /// true if it is innovative (the row joins the basis), false if it
  /// reduced to zero.
  bool insert(const std::uint8_t* coefficients);

  void clear();

 private:
  std::uint8_t* basis_row(std::size_t index) {
    return basis_.data() + index * pivot_cols_;
  }

  std::size_t pivot_cols_;
  std::vector<std::size_t> pivots_;             // per basis row, in order
  std::vector<std::uint8_t> basis_;             // rank x pivot_cols, reduced
  std::vector<std::uint8_t> scratch_;           // the incoming row
  std::vector<const std::uint8_t*> elim_srcs_;  // batched sweep srcs
  std::vector<std::uint8_t> elim_factors_;      // batched sweep factors
  std::vector<std::uint8_t*> elim_dsts_;        // back-subst targets
};

}  // namespace omnc::coding
