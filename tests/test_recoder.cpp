// Relay re-encoding (Sec. 3.1; Sec. 4, "Packet and Queue Management")
// through the dense FamilyRecoder.
#include <gtest/gtest.h>

#include "codes/family_runtime.h"
#include "coding_test_util.h"
#include "common/rng.h"

namespace omnc::codes {
namespace {

using coding::CodedPacket;
using testing_util::next_packet;
using testing_util::offer;
using testing_util::recode;
using testing_util::recover;

class RecoderTest : public ::testing::Test {
 protected:
  coding::CodingParams params_{5, 20};
  coding::Generation gen_ = coding::Generation::synthetic(3, params_, 9);
  FamilyEncoder encoder_{gen_, 0, CodeSpec::dense()};
  Rng rng_{21};

  FamilyRecoder make_recoder(std::uint32_t generation_id) const {
    return FamilyRecoder(params_, 0, generation_id, CodeSpec::dense());
  }
  FamilyDecoder make_decoder() const {
    return FamilyDecoder(params_, 3, CodeSpec::dense());
  }
};

TEST_F(RecoderTest, AcceptsOnlyInnovativePackets) {
  FamilyRecoder recoder = make_recoder(3);
  const CodedPacket pkt = next_packet(encoder_, rng_);
  EXPECT_TRUE(offer(recoder, pkt));
  EXPECT_FALSE(offer(recoder, pkt));  // duplicate
  EXPECT_EQ(recoder.rank(), 1u);
}

TEST_F(RecoderTest, CannotSendBeforeFirstPacket) {
  FamilyRecoder recoder = make_recoder(3);
  EXPECT_FALSE(recoder.can_send());
  offer(recoder, next_packet(encoder_, rng_));
  EXPECT_TRUE(recoder.can_send());
}

TEST_F(RecoderTest, RejectsOtherGenerations) {
  FamilyRecoder recoder = make_recoder(99);
  EXPECT_FALSE(offer(recoder, next_packet(encoder_, rng_)));  // gen 3 != 99
}

TEST_F(RecoderTest, RejectsDimensionMismatch) {
  FamilyRecoder recoder = make_recoder(3);
  CodedPacket pkt = next_packet(encoder_, rng_);
  pkt.payload.resize(8);
  EXPECT_FALSE(offer(recoder, pkt));
  EXPECT_EQ(recoder.rank(), 0u);
}

TEST_F(RecoderTest, RecodedPacketsStayInReceivedSpan) {
  FamilyRecoder recoder = make_recoder(3);
  // Give the relay 3 of the 5 degrees of freedom.
  while (recoder.rank() < 3) offer(recoder, next_packet(encoder_, rng_));
  // Everything it emits must lie in that 3-dimensional span: a decoder fed
  // only by this relay can never exceed rank 3.
  FamilyDecoder decoder = make_decoder();
  for (int i = 0; i < 60; ++i) offer(decoder, recode(recoder, rng_));
  EXPECT_EQ(decoder.rank(), 3u);
}

TEST_F(RecoderTest, RecodedPayloadConsistentWithCoefficients) {
  // Feeding a decoder from relays must still reproduce the original data:
  // the re-encoding must transform payload and coefficients identically.
  FamilyRecoder recoder = make_recoder(3);
  while (!recoder.is_full()) offer(recoder, next_packet(encoder_, rng_));
  FamilyDecoder decoder = make_decoder();
  while (!decoder.complete()) offer(decoder, recode(recoder, rng_));
  const auto recovered = recover(decoder);
  EXPECT_TRUE(std::equal(recovered.begin(), recovered.end(),
                         gen_.bytes().begin()));
}

TEST_F(RecoderTest, FullRelayStopsAccepting) {
  FamilyRecoder recoder = make_recoder(3);
  while (!recoder.is_full()) offer(recoder, next_packet(encoder_, rng_));
  EXPECT_EQ(recoder.rank(), 5u);
  // Every further packet is necessarily dependent.
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(offer(recoder, next_packet(encoder_, rng_)));
  }
}

TEST_F(RecoderTest, ResetFlushesBufferAndRetargets) {
  FamilyRecoder recoder = make_recoder(3);
  offer(recoder, next_packet(encoder_, rng_));
  recoder.reset(4);
  EXPECT_EQ(recoder.generation_id(), 4u);
  EXPECT_FALSE(recoder.can_send());
  EXPECT_EQ(recoder.rank(), 0u);
}

TEST_F(RecoderTest, TwoHopRelayChainDelivers) {
  // Source -> relay A -> relay B -> decoder, all by re-encoding.
  FamilyRecoder relay_a = make_recoder(3);
  FamilyRecoder relay_b = make_recoder(3);
  FamilyDecoder decoder = make_decoder();
  int steps = 0;
  while (!decoder.complete() && steps < 1000) {
    ++steps;
    offer(relay_a, next_packet(encoder_, rng_));
    if (relay_a.can_send()) offer(relay_b, recode(relay_a, rng_));
    if (relay_b.can_send()) offer(decoder, recode(relay_b, rng_));
  }
  ASSERT_TRUE(decoder.complete());
  const auto recovered = recover(decoder);
  EXPECT_TRUE(std::equal(recovered.begin(), recovered.end(),
                         gen_.bytes().begin()));
}

}  // namespace
}  // namespace omnc::codes
