// End-to-end coding property tests: source -> lossy relays -> destination
// with re-encoding at every hop, across a sweep of loss rates and fan-outs.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

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
using testing_util::recode;
using testing_util::recover;

// (loss probability, number of parallel relays)
class LossyRelayRoundTrip
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(LossyRelayRoundTrip, DecodesThroughLossyDiamond) {
  const auto [loss, relays] = GetParam();
  CodingParams params{8, 40};
  const Generation gen = Generation::synthetic(0, params, 1000);
  FamilyEncoder encoder(gen, 0, CodeSpec::dense());
  Rng rng(static_cast<std::uint64_t>(loss * 1000) + relays);

  std::vector<std::unique_ptr<FamilyRecoder>> relay_state;
  for (int r = 0; r < relays; ++r) {
    relay_state.push_back(
        std::make_unique<FamilyRecoder>(params, 0, 0, CodeSpec::dense()));
  }
  FamilyDecoder decoder(params, 0, CodeSpec::dense());

  int slots = 0;
  const int max_slots = 100000;
  while (!decoder.complete() && slots < max_slots) {
    ++slots;
    // Source broadcast: each relay independently receives.
    const CodedPacket src_pkt = next_packet(encoder, rng);
    for (auto& relay : relay_state) {
      if (!rng.chance(loss)) offer(*relay, src_pkt);
    }
    // Each relay broadcast: destination independently receives.
    for (auto& relay : relay_state) {
      if (relay->can_send() && !rng.chance(loss)) {
        offer(decoder, recode(*relay, rng));
      }
    }
  }
  ASSERT_TRUE(decoder.complete()) << "loss=" << loss << " relays=" << relays;
  const auto recovered = recover(decoder);
  EXPECT_TRUE(std::equal(recovered.begin(), recovered.end(),
                         gen.bytes().begin()));
}

INSTANTIATE_TEST_SUITE_P(
    LossAndFanout, LossyRelayRoundTrip,
    ::testing::Combine(::testing::Values(0.0, 0.2, 0.5, 0.8),
                       ::testing::Values(1, 2, 4)));

TEST(CodingRoundTrip, ParallelRelaysContributeIndependentInformation) {
  // The paper's Sec. 3.2 premise: two relays that each hold *different*
  // subsets of source packets can jointly deliver more than either alone.
  CodingParams params{6, 16};
  const Generation gen = Generation::synthetic(0, params, 7);
  FamilyEncoder encoder(gen, 0, CodeSpec::dense());
  Rng rng(99);

  FamilyRecoder relay_u(params, 0, 0, CodeSpec::dense());
  FamilyRecoder relay_v(params, 0, 0, CodeSpec::dense());
  // u gets packets 1..3, v gets packets 4..6 (disjoint subsets).
  for (int i = 0; i < 3; ++i) offer(relay_u, next_packet(encoder, rng));
  for (int i = 0; i < 3; ++i) offer(relay_v, next_packet(encoder, rng));
  ASSERT_EQ(relay_u.rank(), 3u);
  ASSERT_EQ(relay_v.rank(), 3u);

  FamilyDecoder decoder(params, 0, CodeSpec::dense());
  for (int i = 0; i < 30; ++i) {
    offer(decoder, recode(relay_u, rng));
    offer(decoder, recode(relay_v, rng));
  }
  // Jointly they span the full 6 dimensions with overwhelming probability.
  EXPECT_TRUE(decoder.complete());
}

TEST(CodingRoundTrip, ReencodingRefreshesCoefficients) {
  // A re-encoded packet must not simply replay a received coefficient
  // vector (that is the point of "trading structure for randomness").
  CodingParams params{4, 8};
  const Generation gen = Generation::synthetic(0, params, 3);
  FamilyEncoder encoder(gen, 0, CodeSpec::dense());
  Rng rng(5);
  FamilyRecoder relay(params, 0, 0, CodeSpec::dense());
  const CodedPacket original = next_packet(encoder, rng);
  offer(relay, original);
  int identical = 0;
  for (int i = 0; i < 50; ++i) {
    if (recode(relay, rng).coefficients == original.coefficients) ++identical;
  }
  // With one buffered packet the recoded coefficients are random multiples;
  // exact replay happens with probability 1/255 per draw.
  EXPECT_LE(identical, 3);
}

}  // namespace
}  // namespace omnc::codes
