#include "protocols/node_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "codes/family_runtime.h"
#include "coding_test_util.h"
#include "common/rng.h"

namespace omnc::protocols {
namespace {

class NodeRuntimeTest : public ::testing::Test {
 protected:
  coding::CodingParams params_{4, 16};
  Rng rng_{77};

  coding::CodedPacket emit(NodeRuntime& node) {
    coding::CodedPacket packet;
    coding::CodedStructure structure;
    node.next_packet_into(rng_, &packet, &structure);
    EXPECT_TRUE(structure.dense());
    return packet;
  }
  static NodeRuntime::ReceiveOutcome receive(NodeRuntime& node,
                                             const coding::CodedPacket& p) {
    return node.receive(p.as_view(), coding::CodedStructure::make_dense());
  }
};

TEST_F(NodeRuntimeTest, SourceGenerationLifecycle) {
  NodeRuntime source = NodeRuntime::source(params_, 0, /*data_seed=*/5);
  EXPECT_EQ(source.role(), NodeRuntime::Role::kSource);
  EXPECT_FALSE(source.generation_active());
  EXPECT_FALSE(source.can_send(0));

  // CBR gate: at t=0 no bytes have arrived, so nothing starts.
  EXPECT_FALSE(source.maybe_start_generation(0.0, /*cbr=*/64.0,
                                             /*max_generations=*/10));
  // 4 blocks x 16 bytes = 64 bytes: one generation's worth arrives at t=1.
  EXPECT_TRUE(source.maybe_start_generation(1.0, 64.0, 10));
  EXPECT_TRUE(source.generation_active());
  EXPECT_TRUE(source.can_send(0));
  EXPECT_EQ(source.generation_id(), 0u);
  EXPECT_EQ(source.generation_start_time(), 1.0);
  // Already active: no restart.
  EXPECT_FALSE(source.maybe_start_generation(5.0, 64.0, 10));

  source.complete_generation();
  EXPECT_FALSE(source.generation_active());
  EXPECT_EQ(source.generation_id(), 1u);
  EXPECT_EQ(source.generations_completed(), 1);
  // Generation 1 needs 128 cumulative bytes: not there yet at t=1.5.
  EXPECT_FALSE(source.maybe_start_generation(1.5, 64.0, 10));
  EXPECT_TRUE(source.maybe_start_generation(2.0, 64.0, 10));
}

TEST_F(NodeRuntimeTest, SourceRespectsMaxGenerations) {
  NodeRuntime source = NodeRuntime::source(params_, 0, 5);
  EXPECT_TRUE(source.maybe_start_generation(1.0, 64.0, /*max_generations=*/1));
  source.complete_generation();
  // The quota is exhausted; plenty of CBR bytes make no difference.
  EXPECT_FALSE(source.maybe_start_generation(100.0, 64.0, 1));
}

TEST_F(NodeRuntimeTest, SourceIgnoresDataPackets) {
  NodeRuntime source = NodeRuntime::source(params_, 0, 5);
  source.maybe_start_generation(1.0, 64.0, 10);
  const coding::CodedPacket packet = emit(source);
  const NodeRuntime::ReceiveOutcome outcome = receive(source, packet);
  EXPECT_FALSE(outcome.innovative);
  EXPECT_FALSE(outcome.generation_complete);
}

TEST_F(NodeRuntimeTest, RelayInnovationFilterAndFlush) {
  NodeRuntime source = NodeRuntime::source(params_, 0, 5);
  source.maybe_start_generation(1.0, 64.0, 10);
  NodeRuntime relay = NodeRuntime::relay(params_, 0);
  EXPECT_EQ(relay.role(), NodeRuntime::Role::kRelay);
  EXPECT_FALSE(relay.can_send(0));

  const coding::CodedPacket packet = emit(source);
  EXPECT_TRUE(receive(relay, packet).innovative);
  EXPECT_FALSE(receive(relay, packet).innovative);  // duplicate, filtered
  EXPECT_EQ(relay.rank(), 1u);
  EXPECT_TRUE(relay.can_send(0));
  // A relay stuck on an old generation must stay silent.
  EXPECT_FALSE(relay.can_send(1));

  // Re-encoded output stays within the span the relay holds.
  codes::FamilyDecoder probe(params_, 0, codes::CodeSpec::dense());
  for (int i = 0; i < 16; ++i) testing_util::offer(probe, emit(relay));
  EXPECT_EQ(probe.rank(), 1u);

  // Flushing to the same generation is a no-op; to a newer one it drops the
  // buffer.
  EXPECT_FALSE(relay.flush_to(0));
  EXPECT_TRUE(relay.flush_to(2));
  EXPECT_EQ(relay.generation_id(), 2u);
  EXPECT_FALSE(relay.can_send(2));
}

TEST_F(NodeRuntimeTest, DestinationDecodesAndAdvances) {
  NodeRuntime source = NodeRuntime::source(params_, 0, 5);
  source.maybe_start_generation(1.0, 64.0, 10);
  NodeRuntime destination = NodeRuntime::destination(params_);
  EXPECT_EQ(destination.role(), NodeRuntime::Role::kDestination);
  EXPECT_FALSE(destination.can_send(0));

  bool complete = false;
  while (!complete) {
    complete = receive(destination, emit(source)).generation_complete;
  }
  EXPECT_EQ(destination.rank(), params_.generation_blocks);
  std::vector<std::uint8_t> recovered(destination.recovered_size());
  destination.recover_into(std::span<std::uint8_t>(recovered));
  EXPECT_TRUE(std::equal(recovered.begin(), recovered.end(),
                         source.generation().bytes().begin()));

  destination.advance_generation();
  EXPECT_EQ(destination.generation_id(), 1u);
  EXPECT_EQ(destination.rank(), 0u);
  // Packets of the finished generation are now rejected.
  EXPECT_FALSE(receive(destination, emit(source)).innovative);
}

}  // namespace
}  // namespace omnc::protocols
