// Quickstart: random linear coding end to end in ~60 lines.
//
// Encodes a message at a source, loses packets on the way, re-encodes at a
// relay, and decodes progressively at the destination — the coding core the
// OMNC protocol is built on.
//
//   ./quickstart [--loss 0.4]
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "codes/family_runtime.h"
#include "common/options.h"
#include "common/rng.h"

using namespace omnc;

int main(int argc, char** argv) {
  const Options options(argc, argv);
  const double loss = options.get_double("loss", 0.4);

  // The message to ship: grouped into a generation of 8 blocks x 32 bytes.
  const std::string message =
      "Optimized Multipath Network Coding pushes random linear combinations "
      "of data blocks over every useful path; any n independent coded "
      "packets reconstruct the generation.";
  coding::CodingParams params{8, 32};
  const auto generation = coding::Generation::from_bytes(
      0, params,
      {reinterpret_cast<const std::uint8_t*>(message.data()), message.size()});

  // Dense random linear coding; the same classes run the systematic and
  // banded code families by CodeSpec.
  const codes::CodeSpec spec = codes::CodeSpec::dense();
  codes::FamilyEncoder source(generation, /*session_id=*/1, spec);
  codes::FamilyRecoder relay(params, /*session_id=*/1, /*generation_id=*/0,
                             spec);
  codes::FamilyDecoder destination(params, /*generation_id=*/0, spec);
  Rng rng(7);

  coding::CodedPacket pkt;
  coding::CodedStructure structure;
  int source_tx = 0;
  int relay_tx = 0;
  while (!destination.complete()) {
    // Source broadcasts a fresh random combination; the relay overhears it
    // with probability (1 - loss).
    source.next_packet_into(rng, &pkt, &structure);
    ++source_tx;
    if (!rng.chance(loss)) relay.offer(pkt.as_view(), structure);
    // The relay re-encodes whatever it holds and broadcasts onward.
    if (relay.can_send()) {
      ++relay_tx;
      if (!rng.chance(loss)) {
        relay.recode_into(rng, &pkt, &structure);
        if (destination.offer(pkt.as_view(), structure).innovative) {
          std::printf("destination rank %2zu/%u after %d source + %d relay "
                      "transmissions\n",
                      destination.rank(), params.generation_blocks, source_tx,
                      relay_tx);
        }
      }
    }
  }

  std::vector<std::uint8_t> bytes(destination.recovered_size());
  destination.recover_into(std::span<std::uint8_t>(bytes));
  const std::string recovered(reinterpret_cast<const char*>(bytes.data()),
                              message.size());
  std::printf("\nloss rate %.0f%%, no retransmissions, no feedback:\n  \"%s\"\n",
              loss * 100.0, recovered.c_str());
  std::printf("\nround trip %s\n",
              recovered == message ? "EXACT — generation recovered" : "FAILED");
  return recovered == message ? 0 : 1;
}
