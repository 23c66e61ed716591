// Owning-packet shorthands over the family encoder/recoder/decoder for the
// coding tests: dense packets in, dense packets out, recovered bytes as a
// vector.  The library API itself is view- and caller-buffer-based.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "codes/family_runtime.h"
#include "coding/coded_packet.h"
#include "common/rng.h"

namespace omnc::testing_util {

inline coding::CodedPacket next_packet(codes::FamilyEncoder& encoder,
                                       Rng& rng) {
  coding::CodedPacket packet;
  coding::CodedStructure structure;
  encoder.next_packet_into(rng, &packet, &structure);
  return packet;
}

inline coding::CodedPacket recode(codes::FamilyRecoder& recoder, Rng& rng) {
  coding::CodedPacket packet;
  coding::CodedStructure structure;
  recoder.recode_into(rng, &packet, &structure);
  return packet;
}

inline bool offer(codes::FamilyRecoder& recoder,
                  const coding::CodedPacket& packet) {
  return recoder.offer(packet.as_view(), coding::CodedStructure::make_dense());
}

inline bool offer(codes::FamilyDecoder& decoder,
                  const coding::CodedPacket& packet) {
  return decoder.offer(packet.as_view(), coding::CodedStructure::make_dense())
      .innovative;
}

inline std::vector<std::uint8_t> recover(const codes::FamilyDecoder& decoder) {
  std::vector<std::uint8_t> out(decoder.recovered_size());
  decoder.recover_into(std::span<std::uint8_t>(out));
  return out;
}

}  // namespace omnc::testing_util
