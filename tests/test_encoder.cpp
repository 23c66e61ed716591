// Source encoding (Sec. 3.1) through FamilyEncoder.  The X = R * B reference
// check and the pinned draw counts live in test_codes.cpp.
#include <gtest/gtest.h>

#include <algorithm>

#include "codes/family_runtime.h"
#include "coding_test_util.h"
#include "common/rng.h"

namespace omnc::codes {
namespace {

using coding::CodedPacket;
using coding::CodedStructure;
using coding::CodingParams;
using coding::Generation;
using testing_util::next_packet;

TEST(FamilyEncoder, SystematicOriginalsReproduceBlocks) {
  CodingParams params{4, 16};
  const Generation gen = Generation::synthetic(2, params, 5);
  FamilyEncoder encoder(gen, 1, CodeSpec::systematic());
  Rng rng(1);
  CodedPacket pkt;
  CodedStructure structure;
  for (std::size_t block = 0; block < 4; ++block) {
    encoder.next_packet_into(rng, &pkt, &structure);
    std::vector<std::uint8_t> unit(4, 0);
    unit[block] = 1;
    EXPECT_EQ(pkt.coefficients, unit);
    EXPECT_TRUE(std::equal(pkt.payload.begin(), pkt.payload.end(),
                           gen.block(block)));
  }
}

TEST(FamilyEncoder, RandomPacketsNeverAllZeroCoefficients) {
  CodingParams params{3, 8};
  const Generation gen = Generation::synthetic(0, params, 1);
  FamilyEncoder encoder(gen, 1, CodeSpec::dense());
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const CodedPacket pkt = next_packet(encoder, rng);
    const bool nonzero = std::any_of(pkt.coefficients.begin(),
                                     pkt.coefficients.end(),
                                     [](std::uint8_t c) { return c != 0; });
    EXPECT_TRUE(nonzero);
  }
}

TEST(FamilyEncoder, HeaderFieldsPopulated) {
  CodingParams params{4, 8};
  const Generation gen = Generation::synthetic(9, params, 3);
  FamilyEncoder encoder(gen, 0xDEAD, CodeSpec::dense());
  Rng rng(1);
  const CodedPacket pkt = next_packet(encoder, rng);
  EXPECT_EQ(pkt.session_id, 0xDEADu);
  EXPECT_EQ(pkt.generation_id, 9u);
  EXPECT_EQ(pkt.generation_blocks, 4);
  EXPECT_EQ(pkt.block_bytes, 8);
  EXPECT_EQ(encoder.generation_id(), 9u);
}

}  // namespace
}  // namespace omnc::codes
