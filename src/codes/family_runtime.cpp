#include "codes/family_runtime.h"

#include <cstring>

#include "common/assert.h"
#include "galois/region.h"
#include "obs/registry.h"

namespace omnc::codes {

namespace {

/// The dense form of a packet: `view` itself for a dense structure;
/// otherwise `view` with its compact coefficients expanded into `scratch`
/// (n bytes).  Returns false when the structure does not fit the geometry.
bool dense_view(const coding::CodedPacketView& view,
                const coding::CodedStructure& structure,
                const coding::CodingParams& params, std::uint8_t* scratch,
                coding::CodedPacketView* out) {
  *out = view;
  if (structure.dense()) return true;
  if (view.generation_blocks != params.generation_blocks ||
      !structure.valid_for(view.generation_blocks)) {
    return false;
  }
  coding::expand_coefficients(structure, view.coefficients,
                              view.generation_blocks, scratch);
  out->coefficients =
      std::span<const std::uint8_t>(scratch, params.generation_blocks);
  return true;
}

void stamp_header(std::uint32_t session_id, std::uint32_t generation_id,
                  const coding::CodingParams& params,
                  coding::CodedPacket* out) {
  out->session_id = session_id;
  out->generation_id = generation_id;
  out->generation_blocks = params.generation_blocks;
  out->block_bytes = params.block_bytes;
}

/// Fills `values` with fresh byte draws, one each.  An all-zero draw is
/// repaired to a unit first entry instead of re-drawn, which pins the draw
/// count.
void draw_nonzero(Rng& rng, std::uint8_t* values, std::size_t count) {
  bool nonzero = false;
  for (std::size_t i = 0; i < count; ++i) {
    values[i] = rng.next_byte();
    nonzero |= (values[i] != 0);
  }
  if (!nonzero) values[0] = 1;
}

}  // namespace

// --- FamilyEncoder ---------------------------------------------------------

FamilyEncoder::FamilyEncoder(const coding::Generation& generation,
                             std::uint32_t session_id, const CodeSpec& spec)
    : generation_(&generation),
      session_id_(session_id),
      spec_(spec.clamped_for(generation.params())) {}

void FamilyEncoder::fold_blocks(std::size_t first, std::size_t count,
                                coding::CodedPacket* out) {
  const std::size_t m = generation_->params().block_bytes;
  out->payload.assign(m, 0);
  fold_ptrs_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    fold_ptrs_[i] = generation_->block(first + i);
  }
  gf::region_axpy_many(out->payload.data(), fold_ptrs_.data(),
                       out->coefficients.data() + first, count, m);
}

void FamilyEncoder::dense_into(Rng& rng, coding::CodedPacket* out) {
  OMNC_SCOPED_TIMER("coding/encode");
  const coding::CodingParams& params = generation_->params();
  const std::size_t n = params.generation_blocks;
  stamp_header(session_id_, generation_->id(), params, out);
  out->coefficients.resize(n);
  draw_nonzero(rng, out->coefficients.data(), n);
  fold_blocks(0, n, out);
}

void FamilyEncoder::next_packet_into(Rng& rng, coding::CodedPacket* out,
                                     coding::CodedStructure* structure) {
  const coding::CodingParams& params = generation_->params();
  const std::size_t n = params.generation_blocks;
  switch (spec_.family) {
    case CodeFamily::kDense:
      dense_into(rng, out);
      *structure = coding::CodedStructure::make_dense();
      return;
    case CodeFamily::kSystematic:
      if (next_uncoded_ < n) {
        // Original block, uncoded: zero RNG draws, zero GF work.
        const std::uint16_t index =
            static_cast<std::uint16_t>(next_uncoded_++);
        stamp_header(session_id_, generation_->id(), params, out);
        out->coefficients.assign(n, 0);
        out->coefficients[index] = 1;
        out->payload.resize(params.block_bytes);
        std::memcpy(out->payload.data(), generation_->block(index),
                    params.block_bytes);
        *structure = coding::CodedStructure::make_uncoded(index);
        return;
      }
      // Repairs are plain dense packets (n draws).
      dense_into(rng, out);
      *structure = coding::CodedStructure::make_dense();
      return;
    case CodeFamily::kBanded: {
      const std::size_t w = spec_.band_width;
      OMNC_ASSERT(w >= 1 && w <= n);
      // Pinned draws: exactly w bytes.  The window start slides cyclically
      // so every pivot column is covered once per cycle of n-w+1 packets; a
      // uniformly random start would leave the edge columns uncovered for
      // arbitrarily long (column 0 only appears when start == 0).
      const std::size_t positions = n - w + 1;
      const std::uint16_t start =
          static_cast<std::uint16_t>(band_seq_++ % positions);
      stamp_header(session_id_, generation_->id(), params, out);
      out->coefficients.assign(n, 0);
      draw_nonzero(rng, out->coefficients.data() + start, w);
      fold_blocks(start, w, out);
      *structure = coding::CodedStructure::make_window(
          start, static_cast<std::uint16_t>(w));
      return;
    }
  }
}

// --- FamilyRecoder ---------------------------------------------------------

FamilyRecoder::FamilyRecoder(const coding::CodingParams& params,
                             std::uint32_t session_id,
                             std::uint32_t generation_id, const CodeSpec& spec)
    : params_(params),
      session_id_(session_id),
      generation_id_(generation_id),
      spec_(spec.clamped_for(params)),
      filter_(params.generation_blocks),
      scratch_coeffs_(params.generation_blocks) {}

bool FamilyRecoder::offer(const coding::CodedPacketView& view,
                          const coding::CodedStructure& structure) {
  if (view.generation_id != generation_id_) return false;
  coding::CodedPacketView dense;
  if (!dense_view(view, structure, params_, scratch_coeffs_.data(), &dense) ||
      !dense.dimensions_match(params_)) {
    return false;
  }
  // The coefficient-only filter stays the single source of truth for rank.
  // Only an accepted row's bytes are copied — once — into the flat basis
  // arenas (reset() keeps their capacity, so the steady state re-fills in
  // place without allocating).
  if (!filter_.insert(dense.coefficients.data())) return false;
  basis_coeffs_.insert(basis_coeffs_.end(), dense.coefficients.begin(),
                       dense.coefficients.end());
  basis_payloads_.insert(basis_payloads_.end(), dense.payload.begin(),
                         dense.payload.end());
  if (!spec_.is_dense() && !structure.dense()) {
    // Keep a verbatim copy so the structure survives this relay hop.
    StoredRow row;
    row.structure = structure;
    row.window.assign(view.coefficients.begin(), view.coefficients.end());
    row.payload.assign(view.payload.begin(), view.payload.end());
    forward_rows_.push_back(std::move(row));
  }
  return true;
}

void FamilyRecoder::dense_recode_into(Rng& rng, coding::CodedPacket* out) {
  OMNC_SCOPED_TIMER("coding/recode");
  OMNC_ASSERT_MSG(can_send(), "recode with an empty basis");
  const std::size_t count = filter_.rank();
  const std::size_t n = params_.generation_blocks;
  const std::size_t m = params_.block_bytes;
  stamp_header(session_id_, generation_id_, params_, out);
  out->coefficients.assign(n, 0);
  out->payload.assign(m, 0);
  // Random combination over the basis: exactly rank() draws.
  multipliers_.resize(count);
  draw_nonzero(rng, multipliers_.data(), count);
  // Fold the combination through the fused kernels: 2-4 basis rows per
  // destination pass instead of re-reading the output row for each source.
  coeff_srcs_.resize(count);
  payload_srcs_.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    coeff_srcs_[k] = basis_coeffs_.data() + k * n;
    payload_srcs_[k] = basis_payloads_.data() + k * m;
  }
  gf::region_axpy_many(out->coefficients.data(), coeff_srcs_.data(),
                       multipliers_.data(), count, n);
  gf::region_axpy_many(out->payload.data(), payload_srcs_.data(),
                       multipliers_.data(), count, m);
}

void FamilyRecoder::recode_into(Rng& rng, coding::CodedPacket* out,
                                coding::CodedStructure* structure) {
  if (spec_.is_dense() || next_forward_ >= forward_rows_.size()) {
    dense_recode_into(rng, out);
    *structure = coding::CodedStructure::make_dense();
    return;
  }
  // Structure-preserving forwarding: re-emit a stored structured row
  // verbatim, zero RNG draws.
  const StoredRow& row = forward_rows_[next_forward_++];
  stamp_header(session_id_, generation_id_, params_, out);
  out->coefficients.assign(params_.generation_blocks, 0);
  coding::expand_coefficients(
      row.structure,
      std::span<const std::uint8_t>(row.window.data(), row.window.size()),
      params_.generation_blocks, out->coefficients.data());
  out->payload.assign(row.payload.begin(), row.payload.end());
  *structure = row.structure;
}

void FamilyRecoder::reset(std::uint32_t generation_id) {
  generation_id_ = generation_id;
  filter_.clear();
  basis_coeffs_.clear();
  basis_payloads_.clear();
  forward_rows_.clear();
  next_forward_ = 0;
}

// --- FamilyDecoder ---------------------------------------------------------

FamilyDecoder::FamilyDecoder(const coding::CodingParams& params,
                             std::uint32_t generation_id,
                             const CodeSpec& /*spec*/)
    : engine_(params, generation_id) {}

FamilyDecoder::OfferResult FamilyDecoder::offer(
    const coding::CodedPacketView& view,
    const coding::CodedStructure& structure) {
  OfferResult result;
  result.innovative = engine_.offer(view, structure);
  if (result.innovative) {
    result.pivot = engine_.last_pivot();
    result.uncoded =
        structure.kind == coding::CodedStructure::Kind::kUncoded &&
        result.pivot == static_cast<int>(structure.index);
  }
  return result;
}

}  // namespace omnc::codes
