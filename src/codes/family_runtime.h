// The coding datapath (Sec. 3.1 and Sec. 4; DESIGN.md §7 and §15): the one
// encoder, recoder and decoder, each parameterized by a CodeSpec.
//
// NodeRuntime instantiates one of each, and every call carries a
// CodedStructure side channel describing how the emitted packet's
// coefficients were produced (so the wire layer can compress them and the
// receiving decoder can exploit them).  Dense random linear coding is one
// branch of each class: the source emits X = R * B, a relay re-encodes a
// fresh random combination of its innovative basis, and the destination
// decodes progressively.  Every family decodes through the one
// StructuredDecoder engine, which reads the structure side channel: dense
// rows take its general elimination path, uncoded originals and banded
// windows its fast paths.
//
// RNG draw counts are a pinned per-family invariant (per emitted packet):
//   dense encode         — n byte draws;
//   systematic original  — 0 draws;
//   systematic repair    — n byte draws (a dense packet);
//   banded               — w byte draws (the window start is not drawn: it
//                          slides cyclically over the n-w+1 positions with
//                          the encoder's packet sequence, so every pivot
//                          column is covered once per cycle — a uniformly
//                          random start would leave column 0 uncovered with
//                          probability (1-1/(n-w+1))^k after k packets);
//   dense recode         — rank() byte draws;
//   structured forward   — 0 draws (a stored row re-emitted verbatim).
// All-zero draws are repaired deterministically (never re-drawn), so every
// family consumes a fixed number of draws and det-clock traces stay
// byte-identical across runs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "codes/code_spec.h"
#include "codes/structured_decoder.h"
#include "coding/coded_packet.h"
#include "coding/generation.h"
#include "coding/rref.h"
#include "common/rng.h"

namespace omnc::codes {

class FamilyEncoder {
 public:
  /// Borrows the generation; the caller keeps it alive.  The spec is
  /// clamped to the generation's geometry (band width auto/limits).
  FamilyEncoder(const coding::Generation& generation, std::uint32_t session_id,
                const CodeSpec& spec);

  /// Emits one packet and its structure, reusing `out`'s capacity.
  /// Dense: n fresh random coefficients folded over the whole generation
  /// (kDense).  Systematic: the n originals in order (kUncoded), then dense
  /// repairs.  Banded: a sliding-window combination (kWindow) whose start
  /// cycles deterministically over the n-w+1 positions.
  void next_packet_into(Rng& rng, coding::CodedPacket* out,
                        coding::CodedStructure* structure);

  std::uint32_t generation_id() const { return generation_->id(); }
  const CodeSpec& spec() const { return spec_; }

 private:
  /// A dense packet: n draws, then the fold over every block.
  void dense_into(Rng& rng, coding::CodedPacket* out);
  /// payload = sum of out->coefficients[first + i] * block(first + i) over
  /// `count` blocks, 2-4 source rows per pass over the payload.
  void fold_blocks(std::size_t first, std::size_t count,
                   coding::CodedPacket* out);

  const coding::Generation* generation_;
  std::uint32_t session_id_;
  CodeSpec spec_;  // clamped
  std::uint32_t next_uncoded_ = 0;
  std::uint32_t band_seq_ = 0;  // banded window-start cycle position
  std::vector<const std::uint8_t*> fold_ptrs_;  // fold scratch
};

/// Relay-side re-encoder (Sec. 4, "Packet and Queue Management").  A relay
/// accepts a packet only if it is innovative for what it already holds; the
/// accepted rows are kept as received in two flat insertion-order arenas
/// beside a coefficient-only RREF innovation filter.  An innovative packet's
/// bytes are copied exactly once (into the arenas), a non-innovative
/// packet's payload is never read, and the steady state allocates nothing.
class FamilyRecoder {
 public:
  FamilyRecoder(const coding::CodingParams& params, std::uint32_t session_id,
                std::uint32_t generation_id, const CodeSpec& spec);

  /// Considers an incoming packet (with its structure side channel).
  /// Returns true iff it was innovative.  Packets of other generations or
  /// with mismatched dimensions are rejected.  Non-dense specs additionally
  /// keep a verbatim copy of innovative *structured* rows for structure-
  /// preserving forwarding.
  bool offer(const coding::CodedPacketView& view,
             const coding::CodedStructure& structure);

  /// True once the relay holds an innovative packet of its generation.
  bool can_send() const { return filter_.rank() > 0; }
  std::size_t rank() const { return filter_.rank(); }
  bool is_full() const { return filter_.complete(); }
  std::uint32_t generation_id() const { return generation_id_; }

  /// Emits one packet, reusing `out`'s capacity.  Requires can_send().
  /// Dense spec: a fresh random combination of the basis (the paper's
  /// re-encoding).  Non-dense: stored structured rows are forwarded
  /// verbatim first (zero draws, structure preserved, so the compression
  /// and the downstream structured fast paths survive one relay hop); once
  /// drained, falls back to dense re-encoding over the full basis.
  void recode_into(Rng& rng, coding::CodedPacket* out,
                   coding::CodedStructure* structure);

  /// Discards the basis and moves to a new generation (triggered by an
  /// ACK or by overhearing a higher generation ID).
  void reset(std::uint32_t generation_id);

 private:
  struct StoredRow {
    coding::CodedStructure structure;
    std::vector<std::uint8_t> window;  // explicit coefficients (kWindow)
    std::vector<std::uint8_t> payload;
  };

  void dense_recode_into(Rng& rng, coding::CodedPacket* out);

  coding::CodingParams params_;
  std::uint32_t session_id_;
  std::uint32_t generation_id_;
  CodeSpec spec_;
  coding::RrefAccumulator filter_;            // coefficients only
  std::vector<std::uint8_t> basis_coeffs_;    // rank x n, as received
  std::vector<std::uint8_t> basis_payloads_;  // rank x m, as received
  std::vector<std::uint8_t> multipliers_;
  std::vector<const std::uint8_t*> coeff_srcs_;
  std::vector<const std::uint8_t*> payload_srcs_;
  std::vector<StoredRow> forward_rows_;  // non-dense spec only
  std::size_t next_forward_ = 0;
  std::vector<std::uint8_t> scratch_coeffs_;  // structured-row expansion
};

/// Destination-side progressive decoder (Sec. 4, "Progressive decoding").
/// Every received packet is absorbed on arrival, so independence checking
/// and decoding happen on the fly; non-innovative packets reduce to zero and
/// are discarded without their payload being read.  One engine serves every
/// code family: the StructuredDecoder, driven by each packet's structure.
class FamilyDecoder {
 public:
  /// The spec selects no engine (the structure side channel drives the
  /// fast paths); it is taken for symmetry with the encoder and recoder.
  FamilyDecoder(const coding::CodingParams& params,
                std::uint32_t generation_id, const CodeSpec& spec);

  struct OfferResult {
    bool innovative = false;
    int pivot = -1;       // pivot column claimed, -1 if rejected
    bool uncoded = false; // landed via the systematic zero-work fast path
  };

  /// Absorbs a packet.  Wrong-generation or geometry-mismatched packets are
  /// rejected.  The view only needs to stay valid for the call.
  OfferResult offer(const coding::CodedPacketView& view,
                    const coding::CodedStructure& structure);

  std::uint32_t generation_id() const { return engine_.generation_id(); }
  std::size_t rank() const { return engine_.rank(); }
  bool complete() const { return engine_.complete(); }
  /// Packets of this generation offered so far (for redundancy metrics).
  std::size_t packets_seen() const { return engine_.packets_seen(); }

  std::size_t recovered_size() const { return engine_.recovered_size(); }
  /// Writes the decoded generation into `out` (exactly recovered_size()
  /// bytes) in one back-substitution pass.  Requires complete().
  void recover_into(std::span<std::uint8_t> out) const {
    engine_.recover_into(out);
  }

  /// Drops all state and retargets a new generation.
  void reset(std::uint32_t generation_id) { engine_.reset(generation_id); }

  const StructuredDecoder::Stats& stats() const { return engine_.stats(); }

 private:
  StructuredDecoder engine_;
};

}  // namespace omnc::codes
