// Progressive Gauss–Jordan decoding (Sec. 4) through the dense
// FamilyDecoder.
#include <gtest/gtest.h>

#include "codes/family_runtime.h"
#include "coding_test_util.h"
#include "common/rng.h"

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

TEST_F(DecoderTest, DenseSpecHasNoStructuredStats) {
  EXPECT_EQ(make_decoder(1).structured_stats(), nullptr);
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

}  // namespace
}  // namespace omnc::codes
