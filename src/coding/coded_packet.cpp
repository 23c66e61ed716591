#include "coding/coded_packet.h"

#include <cstring>

namespace omnc::coding {
namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

}  // namespace

std::vector<std::uint8_t> CodedPacket::serialize() const {
  std::vector<std::uint8_t> wire;
  wire.reserve(wire_size());
  put_u32(wire, session_id);
  put_u32(wire, generation_id);
  put_u16(wire, generation_blocks);
  put_u16(wire, block_bytes);
  wire.insert(wire.end(), coefficients.begin(), coefficients.end());
  wire.insert(wire.end(), payload.begin(), payload.end());
  return wire;
}

bool CodedPacketView::parse(std::span<const std::uint8_t> wire,
                            CodedPacketView* out) {
  if (wire.size() < CodedPacket::kHeaderBytes) return false;
  CodedPacketView view;
  view.session_id = get_u32(wire.data());
  view.generation_id = get_u32(wire.data() + 4);
  view.generation_blocks = get_u16(wire.data() + 8);
  view.block_bytes = get_u16(wire.data() + 10);
  // Reject degenerate geometry before any arithmetic with the
  // attacker-controlled length fields.  The sum below cannot overflow —
  // both fields are u16, widened to size_t — but hostile headers should
  // fail on their own terms, not on a downstream size comparison.
  if (view.generation_blocks == 0 || view.block_bytes == 0) return false;
  const std::size_t expected =
      CodedPacket::kHeaderBytes +
      static_cast<std::size_t>(view.generation_blocks) + view.block_bytes;
  if (wire.size() != expected) return false;
  view.coefficients =
      wire.subspan(CodedPacket::kHeaderBytes, view.generation_blocks);
  view.payload = wire.subspan(
      CodedPacket::kHeaderBytes + view.generation_blocks, view.block_bytes);
  *out = view;
  return true;
}

CodedPacket CodedPacketView::to_packet() const {
  CodedPacket pkt;
  pkt.session_id = session_id;
  pkt.generation_id = generation_id;
  pkt.generation_blocks = generation_blocks;
  pkt.block_bytes = block_bytes;
  pkt.coefficients.assign(coefficients.begin(), coefficients.end());
  pkt.payload.assign(payload.begin(), payload.end());
  return pkt;
}

CodedPacketView CodedPacket::as_view() const {
  CodedPacketView view;
  view.session_id = session_id;
  view.generation_id = generation_id;
  view.generation_blocks = generation_blocks;
  view.block_bytes = block_bytes;
  view.coefficients = std::span<const std::uint8_t>(coefficients);
  view.payload = std::span<const std::uint8_t>(payload);
  return view;
}

CodedPacketView CodedPacket::as_view(const CodedStructure& structure) const {
  CodedPacketView view = as_view();
  switch (structure.kind) {
    case CodedStructure::Kind::kDense:
      break;
    case CodedStructure::Kind::kUncoded:
      view.coefficients = {};
      break;
    case CodedStructure::Kind::kWindow:
      view.coefficients =
          view.coefficients.subspan(structure.offset, structure.width);
      break;
  }
  return view;
}

bool CodedPacket::parse(std::span<const std::uint8_t> wire, CodedPacket* out) {
  CodedPacketView view;
  if (!CodedPacketView::parse(wire, &view)) return false;
  *out = view.to_packet();
  return true;
}

bool CodedStructure::valid_for(std::uint16_t generation_blocks) const {
  switch (kind) {
    case Kind::kDense:
      return true;
    case Kind::kUncoded:
      return index < generation_blocks;
    case Kind::kWindow:
      return width >= 1 &&
             static_cast<std::size_t>(offset) + width <= generation_blocks;
  }
  return false;
}

void expand_coefficients(const CodedStructure& structure,
                         std::span<const std::uint8_t> window,
                         std::uint16_t generation_blocks, std::uint8_t* out) {
  const std::size_t n = generation_blocks;
  switch (structure.kind) {
    case CodedStructure::Kind::kDense:
      std::memcpy(out, window.data(), n);
      return;
    case CodedStructure::Kind::kUncoded:
      std::memset(out, 0, n);
      out[structure.index] = 1;
      return;
    case CodedStructure::Kind::kWindow:
      std::memset(out, 0, n);
      std::memcpy(out + structure.offset, window.data(), structure.width);
      return;
  }
}

namespace {

/// Structure tag + fields, before the window coefficients and payload.
std::size_t structure_header_bytes(const CodedStructure& structure) {
  return structure.kind == CodedStructure::Kind::kUncoded ? 3 : 5;
}

}  // namespace

std::size_t compact_wire_size(const CodedStructure& structure,
                              std::uint16_t block_bytes) {
  const std::size_t coeffs =
      structure.kind == CodedStructure::Kind::kWindow ? structure.width : 0;
  return CodedPacket::kHeaderBytes + structure_header_bytes(structure) +
         coeffs + block_bytes;
}

bool serialize_compact(const CodedPacket& packet,
                       const CodedStructure& structure,
                       std::vector<std::uint8_t>& out) {
  if (structure.dense()) return false;
  if (!structure.valid_for(packet.generation_blocks)) return false;
  if (packet.coefficients.size() != packet.generation_blocks) return false;
  put_u32(out, packet.session_id);
  put_u32(out, packet.generation_id);
  put_u16(out, packet.generation_blocks);
  put_u16(out, packet.block_bytes);
  out.push_back(static_cast<std::uint8_t>(structure.kind));
  if (structure.kind == CodedStructure::Kind::kUncoded) {
    put_u16(out, structure.index);
  } else {
    put_u16(out, structure.offset);
    put_u16(out, structure.width);
    out.insert(out.end(), packet.coefficients.begin() + structure.offset,
               packet.coefficients.begin() + structure.offset +
                   structure.width);
  }
  out.insert(out.end(), packet.payload.begin(), packet.payload.end());
  return true;
}

bool parse_compact(std::span<const std::uint8_t> wire, CodedPacketView* view,
                   CodedStructure* structure) {
  if (wire.size() < CodedPacket::kHeaderBytes + 3) return false;
  CodedPacketView v;
  v.session_id = get_u32(wire.data());
  v.generation_id = get_u32(wire.data() + 4);
  v.generation_blocks = get_u16(wire.data() + 8);
  v.block_bytes = get_u16(wire.data() + 10);
  if (v.generation_blocks == 0 || v.block_bytes == 0) return false;
  CodedStructure s;
  const std::uint8_t kind = wire[CodedPacket::kHeaderBytes];
  std::size_t cursor = CodedPacket::kHeaderBytes + 1;
  if (kind == static_cast<std::uint8_t>(CodedStructure::Kind::kUncoded)) {
    s.kind = CodedStructure::Kind::kUncoded;
    if (wire.size() < cursor + 2) return false;
    s.index = get_u16(wire.data() + cursor);
    cursor += 2;
    v.coefficients = {};
  } else if (kind == static_cast<std::uint8_t>(CodedStructure::Kind::kWindow)) {
    s.kind = CodedStructure::Kind::kWindow;
    if (wire.size() < cursor + 4) return false;
    s.offset = get_u16(wire.data() + cursor);
    s.width = get_u16(wire.data() + cursor + 2);
    cursor += 4;
    if (wire.size() < cursor + s.width) return false;
    v.coefficients = wire.subspan(cursor, s.width);
    cursor += s.width;
  } else {
    return false;  // dense packets never use the compact form
  }
  if (!s.valid_for(v.generation_blocks)) return false;
  if (wire.size() != cursor + v.block_bytes) return false;
  v.payload = wire.subspan(cursor, v.block_bytes);
  *view = v;
  *structure = s;
  return true;
}

}  // namespace omnc::coding
