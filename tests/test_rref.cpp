#include "coding/rref.h"

#include <gtest/gtest.h>

#include <vector>

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
  RrefAccumulator acc(3);
  EXPECT_TRUE(acc.insert(row_of({1, 0, 0}).data()));
  EXPECT_TRUE(acc.insert(row_of({0, 1, 0}).data()));
  EXPECT_FALSE(acc.insert(row_of({1, 1, 0}).data()));  // in the span
  EXPECT_EQ(acc.rank(), 2u);
  EXPECT_TRUE(acc.insert(row_of({5, 7, 9}).data()));
  EXPECT_TRUE(acc.complete());
}

TEST(Rref, DuplicateRowRejected) {
  RrefAccumulator acc(4);
  const auto base = row_of({2, 3, 4, 5});
  EXPECT_TRUE(acc.insert(base.data()));
  EXPECT_FALSE(acc.insert(base.data()));
  // A scalar multiple is also dependent.
  std::vector<std::uint8_t> scaled(4);
  for (int i = 0; i < 4; ++i) scaled[i] = gf::mul(base[i], 0x3D);
  EXPECT_FALSE(acc.insert(scaled.data()));
}

TEST(Rref, ZeroRowRejected) {
  RrefAccumulator acc(3);
  EXPECT_FALSE(acc.insert(row_of({0, 0, 0}).data()));
  EXPECT_EQ(acc.rank(), 0u);
}

// The filter's verdict must be exactly "the rank of everything offered so
// far grew", as computed by the reference Gauss–Jordan.  The rows mix
// random dense vectors, sparse vectors with zero leading columns, and
// combinations of earlier rows, so rejections are frequent.
TEST(Rref, VerdictMatchesReferenceRank) {
  Rng rng(3);
  constexpr std::size_t kCols = 8;
  RrefAccumulator acc(kCols);
  std::vector<std::vector<std::uint8_t>> seen;
  std::size_t reference_rank = 0;
  for (int i = 0; i < 60; ++i) {
    std::vector<std::uint8_t> row(kCols, 0);
    switch (rng.next_byte() % 3) {
      case 0:
        for (auto& b : row) b = rng.next_byte();
        break;
      case 1:
        for (std::size_t c = rng.next_byte() % kCols; c < kCols; ++c) {
          row[c] = rng.next_byte();
        }
        break;
      default:
        for (const auto& earlier : seen) {
          const std::uint8_t k = rng.next_byte();
          for (std::size_t c = 0; c < kCols; ++c) {
            row[c] = gf::add(row[c], gf::mul(k, earlier[c]));
          }
        }
        break;
    }
    seen.push_back(row);
    gf::Matrix all(seen.size(), kCols);
    for (std::size_t r = 0; r < seen.size(); ++r) {
      for (std::size_t c = 0; c < kCols; ++c) all.at(r, c) = seen[r][c];
    }
    const std::size_t rank = all.reduce_to_rref();
    EXPECT_EQ(acc.insert(row.data()), rank > reference_rank) << "row " << i;
    reference_rank = rank;
    EXPECT_EQ(acc.rank(), reference_rank);
  }
  EXPECT_TRUE(acc.complete());
}

TEST(Rref, InsertAfterCompleteIsRejected) {
  Rng rng(31);
  RrefAccumulator acc(4);
  std::vector<std::uint8_t> row(4);
  while (!acc.complete()) {
    for (auto& b : row) b = rng.next_byte();
    acc.insert(row.data());
  }
  for (auto& b : row) b = rng.next_byte();
  EXPECT_FALSE(acc.insert(row.data()));
  EXPECT_EQ(acc.rank(), 4u);
}

TEST(Rref, ClearResetsState) {
  RrefAccumulator acc(2);
  ASSERT_TRUE(acc.insert(row_of({1, 1}).data()));
  acc.clear();
  EXPECT_EQ(acc.rank(), 0u);
  EXPECT_TRUE(acc.insert(row_of({1, 1}).data()));  // accepted again
}

TEST(Rref, RankNeverExceedsPivotColumns) {
  Rng rng(9);
  RrefAccumulator acc(4);
  std::vector<std::uint8_t> row(4);
  for (int i = 0; i < 100; ++i) {
    for (auto& b : row) b = rng.next_byte();
    acc.insert(row.data());
    EXPECT_LE(acc.rank(), 4u);
  }
  EXPECT_TRUE(acc.complete());
}

}  // namespace
}  // namespace omnc::coding
