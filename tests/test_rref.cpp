#include "coding/rref.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "galois/gf256.h"
#include "galois/matrix.h"

namespace omnc::coding {
namespace {

std::vector<std::uint8_t> row_of(std::initializer_list<int> values) {
  std::vector<std::uint8_t> row;
  for (int v : values) row.push_back(static_cast<std::uint8_t>(v));
  return row;
}

TEST(Rref, AcceptsIndependentRejectsDependent) {
  RrefAccumulator acc(3, 3);
  EXPECT_TRUE(acc.insert(row_of({1, 0, 0})));
  EXPECT_TRUE(acc.insert(row_of({0, 1, 0})));
  EXPECT_FALSE(acc.insert(row_of({1, 1, 0})));  // in the span
  EXPECT_EQ(acc.rank(), 2u);
  EXPECT_TRUE(acc.insert(row_of({5, 7, 9})));
  EXPECT_TRUE(acc.complete());
}

TEST(Rref, DuplicateRowRejected) {
  RrefAccumulator acc(4, 4);
  EXPECT_TRUE(acc.insert(row_of({2, 3, 4, 5})));
  EXPECT_FALSE(acc.insert(row_of({2, 3, 4, 5})));
  // A scalar multiple is also dependent.
  std::vector<std::uint8_t> scaled(4);
  const auto base = row_of({2, 3, 4, 5});
  for (int i = 0; i < 4; ++i) scaled[i] = gf::mul(base[i], 0x3D);
  EXPECT_FALSE(acc.insert(scaled));
}

TEST(Rref, ZeroRowRejected) {
  RrefAccumulator acc(3, 3);
  EXPECT_FALSE(acc.insert(row_of({0, 0, 0})));
  EXPECT_EQ(acc.rank(), 0u);
}

TEST(Rref, MaintainsReducedForm) {
  // After inserting enough rows, every basis row must have a unit pivot and
  // zeros in every other pivot column.
  Rng rng(3);
  RrefAccumulator acc(8, 8);
  while (!acc.complete()) {
    std::vector<std::uint8_t> row(8);
    for (auto& b : row) b = rng.next_byte();
    acc.insert(row);
  }
  for (std::size_t pivot = 0; pivot < 8; ++pivot) {
    const std::uint8_t* row = acc.coefficients_for_pivot(pivot);
    ASSERT_NE(row, nullptr);
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_EQ(row[c], c == pivot ? 1 : 0);
    }
  }
}

TEST(Rref, PayloadFollowsRowOperations) {
  // Rows carry [coefficients | payload]; when complete, the (lazily
  // materialized) payload for pivot i must equal the i-th original block.
  Rng rng(4);
  const gf::Matrix blocks = gf::Matrix::random(5, 13, rng);
  RrefAccumulator acc(5, 5 + 13);
  EXPECT_EQ(acc.payload_bytes(), 13u);
  while (!acc.complete()) {
    // Build a random combination with its payload.
    std::vector<std::uint8_t> row(18, 0);
    for (std::size_t b = 0; b < 5; ++b) {
      const std::uint8_t c = rng.next_byte();
      row[b] = c;
      for (std::size_t k = 0; k < 13; ++k) {
        row[5 + k] = gf::add(row[5 + k], gf::mul(c, blocks.at(b, k)));
      }
    }
    acc.insert(row);
  }
  for (std::size_t b = 0; b < 5; ++b) {
    const std::uint8_t* payload = acc.payload_for_pivot(b);
    ASSERT_NE(payload, nullptr);
    for (std::size_t k = 0; k < 13; ++k) {
      EXPECT_EQ(payload[k], blocks.at(b, k));
    }
  }
}

TEST(Rref, LazyPayloadSurvivesInterleavedReads) {
  // Reading a payload mid-decode materializes it; later inserts that
  // back-substitute into that row must invalidate the cached bytes and
  // re-materialize correctly on the next read.
  Rng rng(11);
  const std::size_t n = 6;
  const std::size_t m = 32;
  const gf::Matrix blocks = gf::Matrix::random(n, m, rng);
  RrefAccumulator acc(n, n + m);
  std::size_t inserted = 0;
  while (!acc.complete()) {
    std::vector<std::uint8_t> row(n + m, 0);
    for (std::size_t b = 0; b < n; ++b) {
      const std::uint8_t c = rng.next_byte();
      row[b] = c;
      for (std::size_t k = 0; k < m; ++k) {
        row[n + k] = gf::add(row[n + k], gf::mul(c, blocks.at(b, k)));
      }
    }
    if (acc.insert(row)) ++inserted;
    // Poke every available payload after every insert: forces repeated
    // materialization and cache invalidation along the way.
    for (std::size_t p = 0; p < n; ++p) {
      const std::uint8_t* payload = acc.payload_for_pivot(p);
      if (acc.coefficients_for_pivot(p) == nullptr) {
        EXPECT_EQ(payload, nullptr);
      } else {
        EXPECT_NE(payload, nullptr);
      }
    }
  }
  EXPECT_EQ(inserted, n);
  for (std::size_t b = 0; b < n; ++b) {
    const std::uint8_t* payload = acc.payload_for_pivot(b);
    ASSERT_NE(payload, nullptr);
    for (std::size_t k = 0; k < m; ++k) {
      EXPECT_EQ(payload[k], blocks.at(b, k));
    }
  }
}

TEST(Rref, PointerInsertMatchesVectorInsert) {
  Rng rng(21);
  RrefAccumulator via_vector(4, 4 + 9);
  RrefAccumulator via_pointers(4, 4 + 9);
  for (int i = 0; i < 12; ++i) {
    std::vector<std::uint8_t> row(13);
    for (auto& b : row) b = rng.next_byte();
    const bool a = via_vector.insert(row);
    const bool b = via_pointers.insert(row.data(), row.data() + 4);
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(via_vector.rank(), via_pointers.rank());
  for (std::size_t p = 0; p < 4; ++p) {
    const std::uint8_t* pa = via_vector.payload_for_pivot(p);
    const std::uint8_t* pb = via_pointers.payload_for_pivot(p);
    ASSERT_EQ(pa == nullptr, pb == nullptr);
    if (pa != nullptr) {
      EXPECT_TRUE(std::equal(pa, pa + 9, pb));
    }
  }
}

TEST(Rref, CoefficientOnlyAccumulatorHasNoPayload) {
  RrefAccumulator acc(3, 3);  // the relay innovation-filter shape
  EXPECT_EQ(acc.payload_bytes(), 0u);
  ASSERT_TRUE(acc.insert(row_of({1, 2, 3}).data(), nullptr));
  EXPECT_EQ(acc.payload_for_pivot(0), nullptr);
  EXPECT_NE(acc.coefficients_for_pivot(0), nullptr);
}

TEST(Rref, InsertAfterCompleteIsRejected) {
  Rng rng(31);
  RrefAccumulator acc(4, 4);
  while (!acc.complete()) {
    std::vector<std::uint8_t> row(4);
    for (auto& b : row) b = rng.next_byte();
    acc.insert(row);
  }
  std::vector<std::uint8_t> extra(4);
  for (auto& b : extra) b = rng.next_byte();
  EXPECT_FALSE(acc.insert(extra));
  EXPECT_EQ(acc.rank(), 4u);
}

/// True iff the basis row with pivot `pivot` is the unit vector e_pivot,
/// i.e. that block is already decoded.
bool block_resolved(const RrefAccumulator& acc, std::size_t pivot) {
  const std::uint8_t* coeffs = acc.coefficients_for_pivot(pivot);
  if (coeffs == nullptr) return false;
  for (std::size_t c = 0; c < acc.pivot_cols(); ++c) {
    if (coeffs[c] != (c == pivot ? 1 : 0)) return false;
  }
  return true;
}

// Progressive decoding (Sec. 4): a systematic (unit-coefficient) row decodes
// its block the moment it arrives, long before the generation is complete.
TEST(Rref, UnitRowPayloadAvailableBeforeFullRank) {
  constexpr std::size_t kCols = 6;
  constexpr std::size_t kBytes = 32;
  Rng rng(12);
  RrefAccumulator acc(kCols, kCols + kBytes);
  for (std::size_t b = 0; b < kCols; ++b) {
    std::vector<std::uint8_t> row(kCols + kBytes, 0);
    row[b] = 1;
    for (std::size_t i = kCols; i < row.size(); ++i) row[i] = rng.next_byte();
    ASSERT_TRUE(acc.insert(row));
    ASSERT_TRUE(block_resolved(acc, b));
    const std::uint8_t* payload = acc.payload_for_pivot(b);
    ASSERT_NE(payload, nullptr);
    EXPECT_TRUE(std::equal(payload, payload + kBytes, row.begin() + kCols));
    EXPECT_EQ(acc.complete(), b + 1 == kCols);
  }
}

TEST(Rref, SingleDenseRowResolvesNoBlock) {
  constexpr std::size_t kCols = 6;
  Rng rng(13);
  RrefAccumulator acc(kCols, kCols + 16);
  std::vector<std::uint8_t> row(kCols + 16);
  for (auto& b : row) b = static_cast<std::uint8_t>(rng.next_byte() | 1);
  ASSERT_TRUE(acc.insert(row));
  for (std::size_t b = 0; b < kCols; ++b) {
    EXPECT_FALSE(block_resolved(acc, b)) << "block " << b;
  }
}

TEST(Rref, ClearResetsState) {
  RrefAccumulator acc(2, 2);
  ASSERT_TRUE(acc.insert(row_of({1, 1})));
  acc.clear();
  EXPECT_EQ(acc.rank(), 0u);
  EXPECT_EQ(acc.coefficients_for_pivot(0), nullptr);
  EXPECT_TRUE(acc.insert(row_of({1, 1})));  // accepted again after clear
}

TEST(Rref, ClearResetsPayloadArenas) {
  RrefAccumulator acc(3, 3 + 5);
  std::vector<std::uint8_t> row = {1, 0, 0, 9, 8, 7, 6, 5};
  ASSERT_TRUE(acc.insert(row));
  ASSERT_NE(acc.payload_for_pivot(0), nullptr);
  acc.clear();
  EXPECT_EQ(acc.payload_for_pivot(0), nullptr);
  ASSERT_TRUE(acc.insert(row));
  const std::uint8_t* payload = acc.payload_for_pivot(0);
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload[0], 9);
  EXPECT_EQ(payload[4], 5);
}

TEST(Rref, RankNeverExceedsPivotColumns) {
  Rng rng(9);
  RrefAccumulator acc(4, 4);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> row(4);
    for (auto& b : row) b = rng.next_byte();
    acc.insert(row);
    EXPECT_LE(acc.rank(), 4u);
  }
  EXPECT_TRUE(acc.complete());
}

}  // namespace
}  // namespace omnc::coding
