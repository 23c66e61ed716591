#include "coding/coded_packet.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "codes/family_runtime.h"
#include "coding_test_util.h"
#include "common/rng.h"

namespace omnc::coding {
namespace {

CodedPacket sample_packet() {
  CodedPacket pkt;
  pkt.session_id = 0xAABBCCDD;
  pkt.generation_id = 42;
  pkt.generation_blocks = 4;
  pkt.block_bytes = 16;
  pkt.coefficients = {1, 2, 3, 4};
  pkt.payload.assign(16, 0x5A);
  return pkt;
}

TEST(CodedPacket, SerializeParseRoundTrip) {
  const CodedPacket pkt = sample_packet();
  const auto wire = pkt.serialize();
  EXPECT_EQ(wire.size(), pkt.wire_size());
  CodedPacket parsed;
  ASSERT_TRUE(CodedPacket::parse(wire, &parsed));
  EXPECT_EQ(parsed.session_id, pkt.session_id);
  EXPECT_EQ(parsed.generation_id, pkt.generation_id);
  EXPECT_EQ(parsed.generation_blocks, pkt.generation_blocks);
  EXPECT_EQ(parsed.block_bytes, pkt.block_bytes);
  EXPECT_EQ(parsed.coefficients, pkt.coefficients);
  EXPECT_EQ(parsed.payload, pkt.payload);
}

// A structured view keeps exactly the coefficient bytes the compact wire
// form carries (and all n of them for a dense structure).
TEST(CodedPacket, StructuredViewMatchesCompactParse) {
  const CodedPacket pkt = sample_packet();
  EXPECT_EQ(pkt.as_view(CodedStructure::make_dense()).coefficients.size(), 4u);
  for (const CodedStructure& structure :
       {CodedStructure::make_uncoded(2), CodedStructure::make_window(1, 2)}) {
    std::vector<std::uint8_t> wire;
    ASSERT_TRUE(serialize_compact(pkt, structure, wire));
    CodedPacketView parsed;
    CodedStructure parsed_structure;
    ASSERT_TRUE(parse_compact(wire, &parsed, &parsed_structure));
    const CodedPacketView view = pkt.as_view(structure);
    EXPECT_TRUE(std::equal(view.coefficients.begin(), view.coefficients.end(),
                           parsed.coefficients.begin(),
                           parsed.coefficients.end()));
    EXPECT_EQ(view.payload.data(), pkt.payload.data());
  }
}

TEST(CodedPacket, WireSizeAccounting) {
  const CodedPacket pkt = sample_packet();
  EXPECT_EQ(pkt.wire_size(), CodedPacket::kHeaderBytes + 4u + 16u);
}

TEST(CodedPacket, ParseRejectsTruncatedHeader) {
  std::vector<std::uint8_t> wire(CodedPacket::kHeaderBytes - 1, 0);
  CodedPacket out;
  EXPECT_FALSE(CodedPacket::parse(wire, &out));
}

TEST(CodedPacket, ParseRejectsLengthMismatch) {
  auto wire = sample_packet().serialize();
  wire.pop_back();
  CodedPacket out;
  EXPECT_FALSE(CodedPacket::parse(wire, &out));
  wire = sample_packet().serialize();
  wire.push_back(0);
  EXPECT_FALSE(CodedPacket::parse(wire, &out));
}

TEST(CodedPacket, ParseRejectsZeroDimensions) {
  CodedPacket pkt = sample_packet();
  pkt.generation_blocks = 0;
  pkt.coefficients.clear();
  const auto wire = pkt.serialize();
  CodedPacket out;
  EXPECT_FALSE(CodedPacket::parse(wire, &out));
}

TEST(CodedPacket, DimensionsMatch) {
  const CodedPacket pkt = sample_packet();
  EXPECT_TRUE(pkt.dimensions_match(CodingParams{4, 16}));
  EXPECT_FALSE(pkt.dimensions_match(CodingParams{4, 32}));
  EXPECT_FALSE(pkt.dimensions_match(CodingParams{8, 16}));
}

TEST(CodedPacket, EncoderPacketsRoundTripOnTheWire) {
  CodingParams params{6, 48};
  const Generation gen = Generation::synthetic(1, params, 77);
  codes::FamilyEncoder encoder(gen, 5, codes::CodeSpec::dense());
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const CodedPacket pkt = testing_util::next_packet(encoder, rng);
    CodedPacket parsed;
    ASSERT_TRUE(CodedPacket::parse(pkt.serialize(), &parsed));
    EXPECT_EQ(parsed.coefficients, pkt.coefficients);
    EXPECT_EQ(parsed.payload, pkt.payload);
  }
}

}  // namespace
}  // namespace omnc::coding
