// Progressive decoding (Sec. 4) through the FamilyDecoder, including the
// pivot each offer claims (the span trace's "pv" field) against a reference
// Gauss–Jordan elimination.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "codes/family_runtime.h"
#include "coding_test_util.h"
#include "common/rng.h"
#include "galois/gf256.h"
#include "galois/matrix.h"

namespace omnc::codes {
namespace {

using coding::CodedPacket;
using coding::CodingParams;
using coding::Generation;
using testing_util::next_packet;
using testing_util::offer;
using testing_util::recover;
class DecoderTest : public ::testing::Test {
 protected:
  CodingParams params_{6, 32};
  Generation gen_ = Generation::synthetic(1, params_, 123);
  FamilyEncoder encoder_{gen_, 0, CodeSpec::dense()};
  Rng rng_{7};

  FamilyDecoder make_decoder(std::uint32_t generation_id) const {
    return FamilyDecoder(params_, generation_id, CodeSpec::dense());
  }
};

TEST_F(DecoderTest, ProgressiveDecodeRecoversOriginal) {
  FamilyDecoder decoder = make_decoder(1);
  int offered = 0;
  while (!decoder.complete()) {
    offer(decoder, next_packet(encoder_, rng_));
    ++offered;
    ASSERT_LT(offered, 100);
  }
  const auto recovered = recover(decoder);
  ASSERT_EQ(recovered.size(), gen_.bytes().size());
  EXPECT_TRUE(std::equal(recovered.begin(), recovered.end(),
                         gen_.bytes().begin()));
}

TEST_F(DecoderTest, RankGrowsByAtMostOnePerPacket) {
  FamilyDecoder decoder = make_decoder(1);
  std::size_t last_rank = 0;
  for (int i = 0; i < 40 && !decoder.complete(); ++i) {
    const bool innovative = offer(decoder, next_packet(encoder_, rng_));
    EXPECT_EQ(decoder.rank(), last_rank + (innovative ? 1 : 0));
    last_rank = decoder.rank();
  }
  EXPECT_TRUE(decoder.complete());
}

TEST_F(DecoderTest, DuplicatePacketIsNotInnovative) {
  FamilyDecoder decoder = make_decoder(1);
  const CodedPacket pkt = next_packet(encoder_, rng_);
  const FamilyDecoder::OfferResult first =
      decoder.offer(pkt.as_view(), coding::CodedStructure::make_dense());
  EXPECT_TRUE(first.innovative);
  EXPECT_GE(first.pivot, 0);
  const FamilyDecoder::OfferResult second =
      decoder.offer(pkt.as_view(), coding::CodedStructure::make_dense());
  EXPECT_FALSE(second.innovative);
  EXPECT_EQ(second.pivot, -1);
  EXPECT_EQ(decoder.rank(), 1u);
  EXPECT_EQ(decoder.packets_seen(), 2u);
}

TEST_F(DecoderTest, WrongGenerationRejected) {
  FamilyDecoder decoder = make_decoder(2);  // decoder expects generation 2
  EXPECT_FALSE(offer(decoder, next_packet(encoder_, rng_)));  // packet is gen 1
  EXPECT_EQ(decoder.rank(), 0u);
  EXPECT_EQ(decoder.packets_seen(), 0u);
}

TEST_F(DecoderTest, DimensionMismatchRejected) {
  FamilyDecoder decoder = make_decoder(1);
  CodedPacket pkt = next_packet(encoder_, rng_);
  pkt.block_bytes = 16;
  pkt.payload.resize(16);
  EXPECT_FALSE(offer(decoder, pkt));
}

TEST_F(DecoderTest, ResetRetargetsGeneration) {
  FamilyDecoder decoder = make_decoder(1);
  while (!decoder.complete()) offer(decoder, next_packet(encoder_, rng_));
  decoder.reset(2);
  EXPECT_EQ(decoder.generation_id(), 2u);
  EXPECT_EQ(decoder.rank(), 0u);
  EXPECT_EQ(decoder.packets_seen(), 0u);
  EXPECT_FALSE(decoder.complete());
  // The old generation is now rejected.
  EXPECT_FALSE(offer(decoder, next_packet(encoder_, rng_)));
}

// Parameterized sweep over generation geometries: decoding must need exactly
// n innovative packets regardless of shape.
class DecoderGeometryTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DecoderGeometryTest, DecodesWithExactlyNInnovativePackets) {
  const auto [blocks, bytes] = GetParam();
  CodingParams params{static_cast<std::uint16_t>(blocks),
                      static_cast<std::uint16_t>(bytes)};
  const Generation gen = Generation::synthetic(0, params, 55);
  FamilyEncoder encoder(gen, 0, CodeSpec::dense());
  FamilyDecoder decoder(params, 0, CodeSpec::dense());
  Rng rng(blocks * 1000 + bytes);
  std::size_t innovative = 0;
  while (!decoder.complete()) {
    innovative += offer(decoder, next_packet(encoder, rng)) ? 1 : 0;
  }
  EXPECT_EQ(innovative, static_cast<std::size_t>(blocks));
  const auto recovered = recover(decoder);
  EXPECT_TRUE(std::equal(recovered.begin(), recovered.end(),
                         gen.bytes().begin()));
}

INSTANTIATE_TEST_SUITE_P(Geometries, DecoderGeometryTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 7},
                                           std::pair{8, 64}, std::pair{16, 17},
                                           std::pair{40, 128},
                                           std::pair{64, 16}));

// --- claimed pivots against the reference Gauss–Jordan --------------------

/// Pivot columns of the reduced row-echelon form of `rows` (n columns each),
/// by the test-only reference elimination.
std::vector<bool> reference_pivots(
    const std::vector<std::vector<std::uint8_t>>& rows, std::size_t n) {
  gf::Matrix matrix(rows.size(), n);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::copy(rows[r].begin(), rows[r].end(), matrix.row(r));
  }
  const std::size_t rank = matrix.reduce_to_rref();
  std::vector<bool> pivots(n, false);
  for (std::size_t r = 0; r < rank; ++r) {
    const std::uint8_t* row = matrix.row(r);
    pivots[std::find_if(row, row + n, [](std::uint8_t c) { return c != 0; }) -
           row] = true;
  }
  return pivots;
}

/// One received row: its structure, its full coefficient vector and the
/// payload the encoder would have put beside it.
CodedPacket make_row(const Generation& gen, std::vector<std::uint8_t> coeffs) {
  const CodingParams& params = gen.params();
  CodedPacket packet;
  packet.generation_id = gen.id();
  packet.generation_blocks = params.generation_blocks;
  packet.block_bytes = params.block_bytes;
  packet.payload.assign(params.block_bytes, 0);
  for (std::size_t b = 0; b < coeffs.size(); ++b) {
    for (std::size_t k = 0; k < params.block_bytes; ++k) {
      packet.payload[k] = gf::add(packet.payload[k],
                                  gf::mul(coeffs[b], gen.block(b)[k]));
    }
  }
  packet.coefficients = std::move(coeffs);
  return packet;
}

class PivotEquivalenceTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

// Every offer must claim exactly the pivot column that reduced row-echelon
// form gains from the row (and claim none when the rank does not grow),
// over dense rows, dense rows with zero leading columns, duplicates,
// combinations of earlier rows, and the compact uncoded and window forms.
TEST_P(PivotEquivalenceTest, OfferClaimsTheReferencePivot) {
  const auto [blocks, bytes] = GetParam();
  const CodingParams params{static_cast<std::uint16_t>(blocks),
                            static_cast<std::uint16_t>(bytes)};
  const std::size_t n = params.generation_blocks;
  const Generation gen = Generation::synthetic(3, params, 17);
  for (const CodeSpec& spec :
       {CodeSpec::dense(), CodeSpec::systematic(), CodeSpec::banded(0)}) {
    FamilyDecoder decoder(params, gen.id(), spec);
    Rng rng(static_cast<std::uint64_t>(blocks) * 131 + bytes);
    std::vector<std::vector<std::uint8_t>> seen;
    std::vector<coding::CodedStructure> structures;
    std::vector<bool> pivots(n, false);
    int kinds_seen[6] = {};
    int rejected = 0;
    for (std::size_t i = 0; i < 4 * n; ++i) {
      std::vector<std::uint8_t> coeffs(n, 0);
      coding::CodedStructure structure = coding::CodedStructure::make_dense();
      const int kind = seen.empty() ? 0 : rng.next_byte() % 6;
      ++kinds_seen[kind];
      switch (kind) {
        case 0:  // random dense
          for (auto& c : coeffs) c = rng.next_byte();
          break;
        case 1:  // dense with zero leading columns
          for (std::size_t c = rng.next_byte() % n; c < n; ++c) {
            coeffs[c] = rng.next_byte();
          }
          break;
        case 2: {  // duplicate of an earlier row, structure and all
          const std::size_t r = rng.next_byte() % seen.size();
          coeffs = seen[r];
          structure = structures[r];
          break;
        }
        case 3:  // combination of earlier rows
          for (const auto& earlier : seen) {
            const std::uint8_t k = rng.next_byte();
            for (std::size_t c = 0; c < n; ++c) {
              coeffs[c] = gf::add(coeffs[c], gf::mul(k, earlier[c]));
            }
          }
          break;
        case 4: {  // compact systematic original
          const auto index = static_cast<std::uint16_t>(rng.next_byte() % n);
          coeffs[index] = 1;
          structure = coding::CodedStructure::make_uncoded(index);
          break;
        }
        default: {  // compact banded window
          const auto offset = static_cast<std::uint16_t>(rng.next_byte() % n);
          const auto width = static_cast<std::uint16_t>(
              1 + rng.next_byte() % std::min<std::size_t>(8, n - offset));
          for (std::size_t c = offset; c < offset + width; ++c) {
            coeffs[c] = rng.next_byte();
          }
          structure = coding::CodedStructure::make_window(offset, width);
          break;
        }
      }
      seen.push_back(coeffs);
      structures.push_back(structure);
      const std::vector<bool> grown = reference_pivots(seen, n);
      int expected = -1;
      for (std::size_t c = 0; c < n; ++c) {
        if (grown[c] && !pivots[c]) expected = static_cast<int>(c);
      }
      pivots = grown;
      const CodedPacket packet = make_row(gen, std::move(coeffs));
      const FamilyDecoder::OfferResult result =
          decoder.offer(packet.as_view(structure), structure);
      ASSERT_EQ(result.innovative, expected >= 0) << "offer " << i;
      ASSERT_EQ(result.pivot, expected) << "offer " << i;
      rejected += result.innovative ? 0 : 1;
    }
    for (int kind = 0; kind < 6; ++kind) EXPECT_GT(kinds_seen[kind], 0);
    EXPECT_GT(rejected, 0);
    ASSERT_TRUE(decoder.complete());
    const auto recovered = recover(decoder);
    EXPECT_TRUE(std::equal(recovered.begin(), recovered.end(),
                           gen.bytes().begin()));
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, PivotEquivalenceTest,
                         ::testing::Values(std::pair{6, 32}, std::pair{16, 17},
                                           std::pair{40, 64},
                                           std::pair{64, 16}));

}  // namespace
}  // namespace omnc::codes
