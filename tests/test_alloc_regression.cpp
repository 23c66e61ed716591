// Allocation-count regression: the steady-state receive paths — wire bytes
// -> DataFrameView -> decoder offer -> recover_into at the destination, and
// view offer -> recode_into -> serialize_into at a relay — must not touch
// the heap at all once first-generation warm-up has sized every arena and
// scratch vector.  Global operator new/delete are replaced with counting
// versions; each test drives one full generation inside a counting window
// and pins the delta to zero, so any future per-packet allocation (a stray
// copy, a vector that re-grows, a debug string) fails loudly instead of
// silently eroding the zero-copy pipeline.  A byte counter beside the
// allocation counter pins the decoder's set-up cost: its arenas wait for
// the first packet.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "codes/family_runtime.h"
#include "coding/coded_packet.h"
#include "coding/generation.h"
#include "coding_test_util.h"
#include "common/rng.h"
#include "wire/frame.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_allocated_bytes{0};

// Out of line: with the counters inlined into operator new, GCC 12 at -O2
// reports a false -Wmismatched-new-delete on gtest's own new/delete pairs.
[[gnu::noinline]] void count_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_allocation(size);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void* operator new(std::size_t size, std::align_val_t align) {
  count_allocation(size);
  const std::size_t alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded ? rounded : alignment)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace omnc {
namespace {

/// Serialized coded-data frames for one full generation (n + 4 packets —
/// enough redundancy that the decoder always completes).
std::vector<std::vector<std::uint8_t>> generation_frames(
    const coding::CodingParams& params, std::uint32_t generation_id) {
  const coding::Generation gen =
      coding::Generation::synthetic(generation_id, params, 7);
  codes::FamilyEncoder encoder(gen, 1, codes::CodeSpec::dense());
  Rng rng(100 + generation_id);
  std::vector<std::vector<std::uint8_t>> wires;
  for (int i = 0; i < params.generation_blocks + 4; ++i) {
    wire::Frame frame =
        wire::make_coded_data(testing_util::next_packet(encoder, rng));
    frame.trace_origin = 1;
    frame.trace_seq = static_cast<std::uint32_t>(i + 1);
    wires.push_back(frame.serialize());
  }
  return wires;
}

TEST(AllocRegression, SteadyStateDecodePathIsAllocationFree) {
  const coding::CodingParams params{8, 64};
  const auto warmup = generation_frames(params, 0);
  const auto steady = generation_frames(params, 1);

  codes::FamilyDecoder decoder(params, 0, codes::CodeSpec::dense());
  std::vector<std::uint8_t> recovered(params.generation_bytes());
  bool parsed_ok = true;
  bool completed = false;

  const auto drive = [&](const std::vector<std::vector<std::uint8_t>>& wires) {
    completed = false;
    for (const auto& bytes : wires) {
      wire::DataFrameView view;
      if (!wire::DataFrameView::parse(bytes, &view)) {
        parsed_ok = false;
        return;
      }
      decoder.offer(view.packet, view.structure);
      if (decoder.complete()) {
        completed = true;
        break;
      }
    }
    if (completed) decoder.recover_into(std::span<std::uint8_t>(recovered));
  };

  // Warm-up generation: arenas, pivot maps, and scratch vectors size here.
  drive(warmup);
  ASSERT_TRUE(parsed_ok);
  ASSERT_TRUE(completed);
  decoder.reset(1);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  drive(steady);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_TRUE(parsed_ok);
  EXPECT_TRUE(completed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state parse -> offer -> recover_into must not allocate";
  // The recovered bytes are the real generation, not stale warm-up data.
  const coding::Generation expected =
      coding::Generation::synthetic(1, params, 7);
  const std::span<const std::uint8_t> want = expected.bytes();
  ASSERT_EQ(recovered.size(), want.size());
  EXPECT_TRUE(std::equal(recovered.begin(), recovered.end(), want.begin()));
}

TEST(AllocRegression, NewDecoderDefersItsArenasToTheFirstOffer) {
  const coding::CodingParams params{40, 1024};
  const std::size_t before =
      g_allocated_bytes.load(std::memory_order_relaxed);
  codes::FamilyDecoder decoder(params, 0, codes::CodeSpec::dense());
  const std::size_t held =
      g_allocated_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LT(held, std::size_t{params.generation_blocks} * params.block_bytes)
      << "a decoder that has seen no packet must not hold n x m bytes";
  EXPECT_EQ(decoder.rank(), 0u);
}

TEST(AllocRegression, SteadyStateRelayPathIsAllocationFree) {
  const coding::CodingParams params{8, 64};
  const auto warmup = generation_frames(params, 0);
  const auto steady = generation_frames(params, 1);

  codes::FamilyRecoder recoder(params, 1, 0, codes::CodeSpec::dense());
  wire::Frame tx;
  coding::CodedStructure tx_structure;
  tx.type = wire::FrameType::kCodedData;
  std::vector<std::uint8_t> tx_bytes;
  Rng recode_rng(9);
  bool parsed_ok = true;

  const auto drive = [&](const std::vector<std::vector<std::uint8_t>>& wires) {
    for (const auto& bytes : wires) {
      wire::DataFrameView view;
      if (!wire::DataFrameView::parse(bytes, &view)) {
        parsed_ok = false;
        return;
      }
      recoder.offer(view.packet, view.structure);
      if (recoder.can_send()) {
        // The relay transmit path: recode from the basis arenas into the
        // reused packet, serialize into the reused buffer.
        recoder.recode_into(recode_rng, &tx.packet, &tx_structure);
        tx.session_id = tx.packet.session_id;
        tx.trace_origin = 2;
        tx.trace_seq = 1;
        tx.serialize_into(&tx_bytes);
      }
    }
  };

  drive(warmup);
  ASSERT_TRUE(parsed_ok);
  ASSERT_TRUE(recoder.is_full());
  recoder.reset(1);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  drive(steady);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_TRUE(parsed_ok);
  EXPECT_TRUE(recoder.is_full());
  EXPECT_EQ(after - before, 0u)
      << "steady-state offer -> recode_into -> serialize_into must not "
         "allocate";
}

}  // namespace
}  // namespace omnc
