// emu_bench: SessionMux emulations driven in-process through the public
// library API, for the emulation benchmark (README.md in this directory).
//
// Usage: emu_bench --workload NAME --seed N --mode MODE [--seconds S]
//
//   setup    one set-up in this fresh process, timed by part: topology
//            and node selection, rate control, transport and mux
//            construction.  run.py starts several such processes, so every
//            timed set-up meets the same cold heap: later set-ups in one
//            process reuse the freed buffers of earlier ones and run up to
//            8x faster on some rounds but not on others
//   measure  run whole rounds (fresh stack, one SessionMux::run each)
//            until S wall seconds have passed; reports per-round wall, CPU,
//            decoded bytes and broadcasts
//   single   one set-up and one round (the parent reads this process's
//            peak resident set)
//   check    one round through the tap decorator with frame capture:
//            conservation at the transport seam and the reference-GF
//            checks on captured frames
//   trace    one untraced round, one traced round
//            (tap with timing and capture, plus every check of `check`),
//            then a replay pass that times public calls on the captured
//            traffic
//
// Every mode checks the run's results, prints a digest of the per-session
// results (run.py compares digests across modes and processes on the
// det-clock workload), and prints one JSON object as its last line.
// Exit status is 0 even when a check fails; the JSON carries the verdict.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codes/code_spec.h"
#include "codes/family_runtime.h"
#include "coding/generation.h"
#include "common/rng.h"
#include "emu/loopback_transport.h"
#include "emu/session_mux.h"
#include "emu/udp_transport.h"
#include "galois/region.h"
#include "net/topology.h"
#include "opt/rate_control.h"
#include "opt/sunicast.h"
#include "ref_gf.h"
#include "routing/node_selection.h"
#include "tap_transport.h"
#include "time/clock.h"
#include "wire/frame.h"

using namespace omnc;
using perfbench::TapTransport;
using perfbench::wall_ns;

namespace {

// ---------------------------------------------------------------- workloads

struct Link {
  int a = 0;
  int b = 0;
  double p = 0.0;
};

// Both workloads run paper geometry: the Fig. 2 diamond (source 0, relays
// 1/2, destination 3), 64 sessions, dense 40 x 1024 B generations.
constexpr Link kDiamond[] = {{0, 1, 0.8}, {0, 2, 0.6}, {1, 3, 0.7}, {2, 3, 0.9}};
constexpr int kNodes = 4;
constexpr int kSessions = 64;
constexpr std::uint16_t kGenBlocks = 40;
constexpr std::uint16_t kBlockBytes = 1024;
// Two shards plus the completion watcher stay below the 4 vCPUs the
// benchmark was tuned on: with 4 shards every tick's warp barrier waited on
// whichever vCPU the host had just preempted, and run-to-run spread doubled.
constexpr int kUdpShards = 2;

struct Workload {
  const char* name;
  /// UdpTransport on 127.0.0.1 under the warp clock with kUdpShards worker
  /// threads; otherwise the loopback transport under the det clock.
  bool udp;
  int generations;  // per session
};

constexpr Workload kWorkloads[] = {
    {"paper_dense", false, 32},
    {"udp_sharded", true, 8},
};

/// splitmix64 finalizer: independent streams from one workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr double kCapacity = 2e4;          // MAC capacity C, bytes/s
constexpr double kVirtualHorizonS = 600.0;  // a generation not decoded by
                                            // then counts as failed
constexpr std::uint32_t kFirstSessionId = 1;

// ---------------------------------------------------------------- set-up

struct SetupTimes {
  double total = 0.0;
  double select_nodes = 0.0;
  double rate_control = 0.0;
  double build = 0.0;  // transport + mux construction + price table
};

/// One emulation stack.  Heap-allocated and never moved: the mux keeps
/// references to the graph and the transport.
struct Stack {
  std::optional<net::Topology> topology;
  routing::SessionGraph graph;
  std::unique_ptr<emu::Transport> base;
  std::unique_ptr<TapTransport> tap;
  std::unique_ptr<emu::SessionMux> mux;
  emu::MuxConfig config;
  SetupTimes times;
  std::vector<int> fanout;  // per local node, from the workload's link list
};

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

std::unique_ptr<Stack> set_up(const Workload& w, std::uint64_t seed,
                              const TapTransport::Options* tap_options) {
  auto stack = std::make_unique<Stack>();
  const std::int64_t t0 = wall_ns();
  std::vector<std::vector<double>> p(kNodes, std::vector<double>(kNodes, 0.0));
  for (const Link& link : kDiamond) {
    p[static_cast<std::size_t>(link.a)][static_cast<std::size_t>(link.b)] =
        link.p;
    p[static_cast<std::size_t>(link.b)][static_cast<std::size_t>(link.a)] =
        link.p;
  }
  stack->topology.emplace(net::Topology::from_link_matrix(p));
  const std::int64_t t1 = wall_ns();
  stack->graph = routing::select_nodes(*stack->topology, 0,
                                       static_cast<net::NodeId>(kNodes - 1));
  const std::int64_t t2 = wall_ns();
  opt::RateControlParams rc_params;
  rc_params.capacity = kCapacity;
  opt::DistributedRateControl rate_control(stack->graph, rc_params);
  const opt::RateControlResult rc = rate_control.run();
  std::vector<double> rates = rc.b;
  opt::rescale_to_feasible(stack->graph, rates, kCapacity);
  const std::int64_t t3 = wall_ns();

  const routing::SessionGraph& graph = stack->graph;
  if (w.udp) {
    stack->base = std::make_unique<emu::UdpTransport>(graph.size());
  } else {
    emu::LoopbackConfig loopback;
    loopback.seed = derive_seed(seed, 3);
    stack->base = std::make_unique<emu::LoopbackTransport>(
        graph.size(), emu::link_matrix_from_topology(*stack->topology, graph),
        loopback);
  }
  emu::Transport* transport = stack->base.get();
  if (tap_options != nullptr) {
    stack->tap = std::make_unique<TapTransport>(*stack->base, *tap_options);
    transport = stack->tap.get();
  }

  emu::MuxConfig& config = stack->config;
  config.emu.node.coding.generation_blocks = kGenBlocks;
  config.emu.node.coding.block_bytes = kBlockBytes;
  config.emu.node.code = codes::CodeSpec::dense();
  config.emu.node.session_id = kFirstSessionId;
  config.emu.node.data_seed = derive_seed(seed, 1);
  config.emu.node.rng_seed = derive_seed(seed, 2);
  config.emu.node.max_generations = w.generations;
  config.emu.clock_mode =
      w.udp ? vtime::ClockMode::kWarp : vtime::ClockMode::kDeterministic;
  config.emu.virtual_timeout_s = kVirtualHorizonS;
  config.sessions = kSessions;
  config.shards = w.udp ? kUdpShards : 1;
  stack->mux = std::make_unique<emu::SessionMux>(graph, *transport, config);
  stack->mux->install_price_table(rates, rc.lambda, rc.beta, rc.iterations);
  const std::int64_t t4 = wall_ns();

  stack->times.total = seconds_between(t0, t4);
  stack->times.select_nodes = seconds_between(t1, t2);
  stack->times.rate_control = seconds_between(t2, t3);
  stack->times.build = seconds_between(t3, t4);

  // Loopback fan-out of each local node: its neighbours in the benchmark's
  // own link list that node selection kept.
  stack->fanout.assign(static_cast<std::size_t>(graph.size()), 0);
  for (const Link& link : kDiamond) {
    const int a = graph.local_index(static_cast<net::NodeId>(link.a));
    const int b = graph.local_index(static_cast<net::NodeId>(link.b));
    if (a >= 0 && b >= 0 && link.p > 0.0) {
      ++stack->fanout[static_cast<std::size_t>(a)];
      ++stack->fanout[static_cast<std::size_t>(b)];
    }
  }
  return stack;
}

// ---------------------------------------------------------------- checks

struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

std::string fmt(const char* format, double a = 0, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double virtual_s = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t decoded_bytes = 0;
  std::size_t broadcasts = 0;
  std::string digest;
};

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// FNV-1a 64 over the printed per-session results: what a deterministic run
/// must reproduce exactly.
class Digest {
 public:
  void add(const std::string& text) {
    for (const char ch : text) {
      hash_ ^= static_cast<unsigned char>(ch);
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add_double(double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g;", value);
    add(buf);
  }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

Round run_round(const Workload& w, Stack& stack, Checks* checks) {
  Round round;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = wall_ns();
  const emu::MuxRunResult r = stack.mux->run();
  const std::int64_t t1 = wall_ns();
  round.cpu_s = cpu_seconds() - cpu0;
  round.wall_s = seconds_between(t0, t1);
  round.virtual_s = r.virtual_elapsed;
  round.broadcasts = r.transport.frames_sent;

  const int destination = stack.graph.destination;
  const std::size_t generation_bytes =
      stack.config.emu.node.coding.generation_bytes();
  std::size_t parse_errors = 0;
  Digest digest;
  for (int s = 0; s < kSessions; ++s) {
    const emu::EmuRunResult& session = r.sessions[static_cast<std::size_t>(s)];
    const emu::EmuNode::Stats& dst = stack.mux->node(s, destination).stats();
    const int decoded = std::min(dst.generations_completed, w.generations);
    const int good = (dst.data_ok && session.data_ok) ? decoded : 0;
    round.attempted += static_cast<std::size_t>(w.generations);
    round.failed += static_cast<std::size_t>(w.generations - good);
    round.decoded_bytes += static_cast<std::size_t>(good) * generation_bytes;
    parse_errors += session.parse_errors;
    digest.add(std::to_string(session.generations_completed) + ";" +
               std::to_string(session.data_packets_sent) + ";");
    digest.add_double(session.goodput_bytes_per_s);
    digest.add_double(session.last_ack_time);
    for (const double latency : session.ack_latencies) {
      digest.add_double(latency);
    }
  }
  digest.add(std::to_string(r.transport.frames_sent) + ";" +
             std::to_string(r.transport.copies_delivered) + ";" +
             std::to_string(r.transport.copies_dropped));
  round.digest = digest.hex();

  checks->expect(r.completed, "not every session completed by the horizon");
  checks->expect(r.data_ok, "a session's decoded data did not match");
  checks->expect(round.failed == 0,
                 fmt("%.0f of %.0f generations not decoded correctly",
                     static_cast<double>(round.failed),
                     static_cast<double>(round.attempted)));
  checks->expect(r.demux_unroutable == 0 && r.demux_session_mismatch == 0 &&
                     r.demux_unknown_session == 0,
                 fmt("demux rejections: %.0f unroutable, %.0f mismatch, "
                     "%.0f unknown",
                     static_cast<double>(r.demux_unroutable),
                     static_cast<double>(r.demux_session_mismatch),
                     static_cast<double>(r.demux_unknown_session)));
  checks->expect(parse_errors == 0,
                 fmt("%.0f parse errors", static_cast<double>(parse_errors)));
  checks->expect(r.transport.socket_errors == 0 &&
                     r.transport.datagrams_truncated == 0,
                 "socket errors or truncated datagrams");
  return round;
}

/// After the run: hand the copies still in flight to a no-op handler so the
/// tap's delivered count covers every copy the transport accepted.  The
/// loopback queues deliveries by virtual due time, so a clock far past the
/// horizon is bound for the drain.
void drain_in_flight(Stack& stack) {
  vtime::DeterministicClock late;
  late.start(1);
  late.advance_to(1e12);
  stack.tap->bind_clock(&late);
  for (int node = 0; node < stack.graph.size(); ++node) {
    stack.tap->poll(node, [](int, std::span<const std::uint8_t>) {});
  }
  stack.tap->bind_clock(nullptr);
}

struct SeamCounts {
  std::size_t broadcasts = 0;
  std::size_t expected_copies = 0;  // Σ fan-out over broadcasts
  std::size_t delivered = 0;
  std::size_t dropped = 0;
  std::size_t unaccounted = 0;
};

SeamCounts check_conservation(const Workload& w, Stack& stack,
                              Checks* checks) {
  drain_in_flight(stack);
  SeamCounts seam;
  const auto& counters = stack.tap->counters();
  const int n = stack.graph.size();
  for (int node = 0; node < n; ++node) {
    const auto& c = counters[static_cast<std::size_t>(node)];
    seam.broadcasts += c.sends;
    seam.delivered += c.delivered;
    seam.expected_copies +=
        c.sends * static_cast<std::size_t>(
                      w.udp ? n - 1 : stack.fanout[static_cast<std::size_t>(node)]);
  }
  const emu::TransportStats stats = stack.tap->stats();
  seam.dropped = stats.copies_dropped;
  checks->expect(stats.frames_sent == seam.broadcasts,
                 "transport broadcast count disagrees with the tap");
  checks->expect(stats.copies_delivered == seam.delivered,
                 "transport delivered count disagrees with the tap");
  if (seam.delivered + seam.dropped > seam.expected_copies) {
    checks->expect(false, fmt("delivered %.0f + dropped %.0f exceeds fan-out "
                              "%.0f",
                              static_cast<double>(seam.delivered),
                              static_cast<double>(seam.dropped),
                              static_cast<double>(seam.expected_copies)));
  } else {
    seam.unaccounted = seam.expected_copies - seam.delivered - seam.dropped;
  }
  if (!w.udp) {
    checks->expect(seam.unaccounted == 0,
                   fmt("loopback: %.0f copies neither delivered nor dropped",
                       static_cast<double>(seam.unaccounted)));
  }
  return seam;
}

// ------------------------------------------------ reference output checks

struct DataFrame {
  int from = -1;
  int to = -1;  // -1: captured at send
  std::uint32_t generation = 0;
  std::span<const std::uint8_t> coefficients;  // n, into the captured bytes
  std::span<const std::uint8_t> payload;       // m, into the captured bytes
  std::span<const std::uint8_t> bytes;
};

/// Parses the captured data frames; control frames are skipped.  A data
/// frame that does not parse with the workload's geometry is counted in
/// `malformed`.
std::vector<DataFrame> captured_data(const TapTransport& tap,
                                     std::size_t* malformed) {
  std::vector<DataFrame> frames;
  for (const perfbench::CapturedFrame& captured : tap.captured()) {
    wire::FrameType type = wire::FrameType::kGenerationAck;
    if (!wire::peek_type(captured.bytes, &type) ||
        (type != wire::FrameType::kCodedData &&
         type != wire::FrameType::kCodedDataCompact)) {
      continue;
    }
    wire::DataFrameView view;
    if (!wire::DataFrameView::parse(captured.bytes, &view) ||
        view.packet.coefficients.size() != kGenBlocks ||
        view.packet.payload.size() != kBlockBytes) {
      ++*malformed;
      continue;
    }
    frames.push_back(DataFrame{captured.from, captured.to,
                               view.packet.generation_id,
                               view.packet.coefficients, view.packet.payload,
                               captured.bytes});
  }
  return frames;
}

struct ReferenceCounts {
  std::size_t source_frames = 0;
  std::size_t relay_frames = 0;
  std::size_t generations_solved = 0;
};

ReferenceCounts check_reference(Stack& stack,
                                const std::vector<DataFrame>& frames,
                                std::size_t malformed,
                                std::uint32_t generations, Checks* checks) {
  static const perfbench::RefGf gf;
  ReferenceCounts counts;
  const coding::CodingParams& params = stack.config.emu.node.coding;
  const std::size_t n = params.generation_blocks;
  const std::size_t m = params.block_bytes;
  // Session 0 runs the template data seed.
  const std::uint64_t data_seed = stack.config.emu.node.data_seed;
  std::map<std::uint32_t, coding::Generation> sources;
  auto source_of = [&](std::uint32_t id) -> const coding::Generation& {
    auto it = sources.find(id);
    if (it == sources.end()) {
      it = sources
               .emplace(id, coding::Generation::synthetic(id, params, data_seed))
               .first;
    }
    return it->second;
  };
  std::size_t wrong = 0;
  for (const DataFrame& frame : frames) {
    if (frame.to != -1) continue;  // sent frames only
    const std::vector<std::uint8_t> want = gf.combine(
        frame.coefficients, source_of(frame.generation).bytes(), m);
    if (!std::equal(want.begin(), want.end(), frame.payload.begin())) {
      ++wrong;
    }
    if (frame.from == stack.graph.source) {
      ++counts.source_frames;
    } else {
      ++counts.relay_frames;
    }
  }
  checks->expect(wrong == 0, fmt("%.0f sampled data frames are not the "
                                 "stated combination of source blocks",
                                 static_cast<double>(wrong)));
  checks->expect(counts.source_frames > 0 && counts.relay_frames > 0,
                 "no source or no relay data frames were sampled");

  const int destination = stack.graph.destination;
  for (std::uint32_t g = 0; g < generations; ++g) {
    std::vector<std::vector<std::uint8_t>> rows;
    for (const DataFrame& frame : frames) {
      if (frame.to != destination || frame.generation != g) continue;
      std::vector<std::uint8_t> row(frame.coefficients.begin(),
                                    frame.coefficients.end());
      row.insert(row.end(), frame.payload.begin(), frame.payload.end());
      rows.push_back(std::move(row));
    }
    const std::vector<std::uint8_t> blocks = gf.solve(std::move(rows), n, m);
    const std::span<const std::uint8_t> want = source_of(g).bytes();
    if (blocks.size() == want.size() &&
        std::equal(blocks.begin(), blocks.end(), want.begin())) {
      ++counts.generations_solved;
    }
  }
  checks->expect(counts.generations_solved == generations,
                 fmt("independent elimination recovered %.0f of %.0f "
                     "captured generations",
                     static_cast<double>(counts.generations_solved),
                     static_cast<double>(generations)));
  checks->expect(malformed == 0,
                 fmt("%.0f captured data frames did not parse",
                     static_cast<double>(malformed)));
  checks->expect(!stack.tap->capture_overflowed(), "frame capture overflowed");
  return counts;
}

// ---------------------------------------------------------------- replay

/// Times `body` (which performs `calls_per_pass` calls) in passes until at
/// least `min_s` wall seconds have elapsed; returns ns per call.
template <typename Body>
double time_per_call(std::size_t calls_per_pass, double min_s, Body&& body) {
  if (calls_per_pass == 0) return 0.0;
  std::size_t calls = 0;
  const std::int64_t t0 = wall_ns();
  std::int64_t t1 = t0;
  do {
    body();
    calls += calls_per_pass;
    t1 = wall_ns();
  } while (seconds_between(t0, t1) < min_s);
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

volatile std::uint64_t g_sink = 0;

struct Replay {
  double parse_ns = 0, serialize_ns = 0, checksum_GBps = 0, classify_ns = 0;
  double encode_ns = 0, recode_offer_ns = 0, recode_ns = 0;
  double decode_offer_ns = 0, recover_us = 0, axpy_GBps = 0;
};

Replay replay(Stack& stack,
              const std::vector<DataFrame>& frames, std::uint32_t generations) {
  constexpr double kMin = 0.08;
  Replay out;
  const coding::CodingParams& params = stack.config.emu.node.coding;
  const codes::CodeSpec spec = stack.config.emu.node.code;
  const std::uint32_t session_id = kFirstSessionId;

  std::vector<std::span<const std::uint8_t>> sent;
  std::size_t sent_bytes = 0;
  for (const DataFrame& frame : frames) {
    if (frame.to == -1) {
      sent.push_back(frame.bytes);
      sent_bytes += frame.bytes.size();
    }
  }
  out.parse_ns = time_per_call(sent.size(), kMin, [&] {
    for (const auto bytes : sent) {
      wire::DataFrameView view;
      g_sink = g_sink + wire::DataFrameView::parse(bytes, &view);
    }
  });
  std::vector<wire::Frame> parsed(sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    wire::Frame::parse(sent[i], &parsed[i]);
  }
  std::vector<std::uint8_t> buffer;
  out.serialize_ns = time_per_call(parsed.size(), kMin, [&] {
    for (const wire::Frame& frame : parsed) {
      frame.serialize_into(&buffer);
      g_sink = g_sink + buffer.size();
    }
  });
  const double checksum_ns = time_per_call(sent.size(), kMin, [&] {
    for (const auto bytes : sent) {
      g_sink = g_sink + wire::fnv1a(bytes.subspan(wire::kTraceTagOffset));
    }
  });
  const double mean_checksummed =
      sent.empty() ? 0.0
                   : static_cast<double>(sent_bytes) /
                             static_cast<double>(sent.size()) -
                         static_cast<double>(wire::kTraceTagOffset);
  out.checksum_GBps = checksum_ns > 0 ? mean_checksummed / checksum_ns : 0.0;

  std::vector<std::span<const std::uint8_t>> all;
  for (const perfbench::CapturedFrame& captured : stack.tap->captured()) {
    all.push_back(captured.bytes);
  }
  out.classify_ns = time_per_call(all.size(), kMin, [&] {
    for (const auto bytes : all) {
      std::uint32_t session = 0;
      g_sink = g_sink + static_cast<std::uint64_t>(
                            emu::SessionMux::classify(bytes, &session));
    }
  });

  const coding::Generation generation =
      coding::Generation::synthetic(0, params, stack.config.emu.node.data_seed);
  {
    codes::FamilyEncoder encoder(generation, session_id, spec);
    Rng rng(7);
    coding::CodedPacket packet;
    coding::CodedStructure structure;
    constexpr std::size_t kBatch = 256;
    out.encode_ns = time_per_call(kBatch, kMin, [&] {
      for (std::size_t i = 0; i < kBatch; ++i) {
        encoder.next_packet_into(rng, &packet, &structure);
      }
      g_sink = g_sink + packet.payload[0];
    });
  }

  // Relay replay: the frames delivered to the relay that heard the most.
  std::map<int, std::size_t> relay_heard;
  for (const DataFrame& frame : frames) {
    if (frame.to >= 0 && frame.to != stack.graph.destination &&
        frame.to != stack.graph.source) {
      ++relay_heard[frame.to];
    }
  }
  int relay = -1;
  std::size_t best = 0;
  for (const auto& [node, count] : relay_heard) {
    if (count > best) {
      best = count;
      relay = node;
    }
  }
  auto views_for = [&](int to, std::uint32_t g) {
    std::vector<std::pair<coding::CodedPacketView, coding::CodedStructure>> v;
    for (const DataFrame& frame : frames) {
      if (frame.to != to || frame.generation != g) continue;
      wire::DataFrameView view;
      if (wire::DataFrameView::parse(frame.bytes, &view)) {
        v.emplace_back(view.packet, view.structure);
      }
    }
    return v;
  };
  if (relay >= 0) {
    std::vector<std::vector<std::pair<coding::CodedPacketView,
                                      coding::CodedStructure>>>
        per_gen;
    std::size_t offers = 0;
    for (std::uint32_t g = 0; g < generations; ++g) {
      per_gen.push_back(views_for(relay, g));
      offers += per_gen.back().size();
    }
    out.recode_offer_ns = time_per_call(offers, kMin, [&] {
      for (std::uint32_t g = 0; g < generations; ++g) {
        codes::FamilyRecoder recoder(params, session_id, g, spec);
        for (const auto& [view, structure] : per_gen[g]) {
          g_sink = g_sink + recoder.offer(view, structure);
        }
      }
    });
    codes::FamilyRecoder recoder(params, session_id, 0, spec);
    for (const auto& [view, structure] : per_gen[0]) {
      recoder.offer(view, structure);
    }
    if (recoder.can_send()) {
      Rng rng(11);
      coding::CodedPacket packet;
      coding::CodedStructure structure;
      constexpr std::size_t kBatch = 256;
      out.recode_ns = time_per_call(kBatch, kMin, [&] {
        for (std::size_t i = 0; i < kBatch; ++i) {
          recoder.recode_into(rng, &packet, &structure);
        }
        g_sink = g_sink + packet.payload[0];
      });
    }
  }

  // Destination replay: offers up to decode completion, then recovery.
  std::vector<std::vector<std::pair<coding::CodedPacketView,
                                    coding::CodedStructure>>>
      dest;
  std::size_t offers = 0;
  for (std::uint32_t g = 0; g < generations; ++g) {
    dest.push_back(views_for(stack.graph.destination, g));
  }
  for (std::uint32_t g = 0; g < generations; ++g) {
    codes::FamilyDecoder decoder(params, g, spec);
    for (const auto& [view, structure] : dest[g]) {
      decoder.offer(view, structure);
      ++offers;
      if (decoder.complete()) break;
    }
  }
  std::vector<std::uint8_t> recovered(params.generation_bytes());
  std::vector<std::optional<codes::FamilyDecoder>> decoders(generations);
  out.decode_offer_ns = time_per_call(offers, kMin, [&] {
    for (std::uint32_t g = 0; g < generations; ++g) {
      decoders[g].emplace(params, g, spec);
      for (const auto& [view, structure] : dest[g]) {
        decoders[g]->offer(view, structure);
        if (decoders[g]->complete()) break;
      }
    }
  });
  out.recover_us =
      1e-3 * time_per_call(generations, kMin, [&] {
        for (std::uint32_t g = 0; g < generations; ++g) {
          if (decoders[g]->complete()) {
            decoders[g]->recover_into(std::span<std::uint8_t>(recovered));
          }
        }
        g_sink = g_sink + recovered[0];
      });

  {
    std::vector<std::uint8_t> dst(kBlockBytes, 1);
    std::vector<std::uint8_t> src(kBlockBytes, 3);
    constexpr std::size_t kBatch = 1024;
    const double ns = time_per_call(kBatch, kMin, [&] {
      for (std::size_t i = 0; i < kBatch; ++i) {
        gf::region_axpy(dst.data(), src.data(),
                            static_cast<std::uint8_t>(2 + (i & 127)),
                            dst.size());
      }
      g_sink = g_sink + dst[0];
    });
    out.axpy_GBps = ns > 0 ? static_cast<double>(kBlockBytes) / ns : 0.0;
  }
  return out;
}

// ---------------------------------------------------------------- output

class Json {
 public:
  void num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    field(key, buf);
  }
  void str(const std::string& key, const std::string& value) {
    field(key, "\"" + value + "\"");
  }
  void raw(const std::string& key, const std::string& value) {
    field(key, value);
  }
  std::string done() const { return "{" + body_ + "}"; }

  static std::string list(const std::vector<double>& values) {
    std::string out = "[";
    char buf[64];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", values[i]);
      out += buf;
    }
    return out + "]";
  }
  static std::string strings(const std::vector<std::string>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::string escaped;
      for (const char ch : values[i]) {
        if (ch == '"' || ch == '\\') escaped += '\\';
        escaped += ch;
      }
      out += (i ? ",\"" : "\"") + escaped + "\"";
    }
    return out + "]";
  }

 private:
  void field(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
  }
  std::string body_;
};

void add_round(Json* json, const Round& round) {
  json->num("attempted", static_cast<double>(round.attempted));
  json->num("failed", static_cast<double>(round.failed));
  json->str("digest", round.digest);
}

TapTransport::Options tap_options(const Workload& w, bool timing) {
  TapTransport::Options options;
  options.timing = timing;
  options.capture_session = kFirstSessionId;
  options.capture_generations =
      static_cast<std::uint32_t>(std::min(w.generations, 4));
  return options;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t index = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  return values[index];
}

int run_setup(const Workload& w, std::uint64_t seed) {
  const SetupTimes times = set_up(w, seed, nullptr)->times;
  Json json;
  json.str("mode", "setup");
  json.num("total_s", times.total);
  json.num("select_nodes_s", times.select_nodes);
  json.num("rate_control_s", times.rate_control);
  json.num("build_s", times.build);
  std::printf("%s\n", json.done().c_str());
  return 0;
}

int run_measure(const Workload& w, std::uint64_t seed, double seconds) {
  Checks checks;
  std::vector<double> walls, cpus, bytes, broadcasts;
  std::size_t attempted = 0, failed = 0;
  std::string digest;
  bool digests_agree = true;
  const std::int64_t start = wall_ns();
  do {
    std::unique_ptr<Stack> stack = set_up(w, seed, nullptr);
    const Round round = run_round(w, *stack, &checks);
    walls.push_back(round.wall_s);
    cpus.push_back(round.cpu_s);
    bytes.push_back(static_cast<double>(round.decoded_bytes));
    broadcasts.push_back(static_cast<double>(round.broadcasts));
    attempted += round.attempted;
    failed += round.failed;
    if (digest.empty()) digest = round.digest;
    if (round.digest != digest) digests_agree = false;
  } while (seconds_between(start, wall_ns()) < seconds);
  if (!w.udp) {
    checks.expect(digests_agree,
                  "same-seed rounds in one process gave different results");
  }
  Json json;
  json.str("mode", "measure");
  json.num("attempted", static_cast<double>(attempted));
  json.num("failed", static_cast<double>(failed));
  json.str("digest", digest);
  json.raw("wall_s", Json::list(walls));
  json.raw("cpu_s", Json::list(cpus));
  json.raw("decoded_bytes", Json::list(bytes));
  json.raw("broadcasts", Json::list(broadcasts));
  json.raw("failures", Json::strings(checks.failures));
  std::printf("%s\n", json.done().c_str());
  return 0;
}

int run_single(const Workload& w, std::uint64_t seed) {
  Checks checks;
  std::unique_ptr<Stack> stack = set_up(w, seed, nullptr);
  const Round round = run_round(w, *stack, &checks);
  Json json;
  json.str("mode", "single");
  add_round(&json, round);
  json.num("wall_s", round.wall_s);
  json.raw("failures", Json::strings(checks.failures));
  std::printf("%s\n", json.done().c_str());
  return 0;
}

int run_check(const Workload& w, std::uint64_t seed) {
  Checks checks;
  const TapTransport::Options options = tap_options(w, false);
  std::unique_ptr<Stack> stack = set_up(w, seed, &options);
  const Round round = run_round(w, *stack, &checks);
  const SeamCounts seam = check_conservation(w, *stack, &checks);
  std::size_t malformed = 0;
  const auto frames = captured_data(*stack->tap, &malformed);
  const ReferenceCounts ref = check_reference(
      *stack, frames, malformed, options.capture_generations, &checks);
  Json json;
  json.str("mode", "check");
  add_round(&json, round);
  json.num("copies_unaccounted", static_cast<double>(seam.unaccounted));
  json.num("copies_expected", static_cast<double>(seam.expected_copies));
  json.num("reference_source_frames", static_cast<double>(ref.source_frames));
  json.num("reference_relay_frames", static_cast<double>(ref.relay_frames));
  json.num("reference_generations", static_cast<double>(ref.generations_solved));
  json.raw("failures", Json::strings(checks.failures));
  std::printf("%s\n", json.done().c_str());
  return 0;
}

int run_trace(const Workload& w, std::uint64_t seed) {
  Checks checks;
  Round untraced;
  {
    std::unique_ptr<Stack> stack = set_up(w, seed, nullptr);
    untraced = run_round(w, *stack, &checks);
  }
  const TapTransport::Options options = tap_options(w, true);
  std::unique_ptr<Stack> stack = set_up(w, seed, &options);
  const Round traced = run_round(w, *stack, &checks);
  const int nodes = stack->graph.size();
  const int shards = w.udp ? std::min(kUdpShards, nodes) : 1;

  // Layer times come from the run itself, before the post-run drain.
  double send_s = 0, send_in_handler_s = 0, poll_s = 0, handler_s = 0;
  std::size_t sends = 0, polls = 0, empty = 0, handler_calls = 0;
  std::size_t data = 0, ack = 0, price = 0, other = 0, bytes_sent = 0;
  std::size_t bytes_delivered = 0, data_to_relays = 0, data_to_dst = 0;
  std::size_t source_data_sends = 0, relay_data_sends = 0;
  for (int node = 0; node < nodes; ++node) {
    const auto& c = stack->tap->counters()[static_cast<std::size_t>(node)];
    send_s += static_cast<double>(c.send_ns) * 1e-9;
    send_in_handler_s += static_cast<double>(c.send_in_handler_ns) * 1e-9;
    poll_s += static_cast<double>(c.poll_ns) * 1e-9;
    handler_s += static_cast<double>(c.handler_ns) * 1e-9;
    sends += c.sends;
    polls += c.polls;
    empty += c.polls_empty;
    handler_calls += c.delivered;
    data += c.sends_data;
    ack += c.sends_ack;
    price += c.sends_price;
    other += c.sends_other;
    bytes_sent += c.bytes_sent;
    bytes_delivered += c.bytes_delivered;
    if (node == stack->graph.source) {
      source_data_sends += c.sends_data;
    } else if (node == stack->graph.destination) {
      data_to_dst += c.delivered_data;
    } else {
      relay_data_sends += c.sends_data;
      data_to_relays += c.delivered_data;
    }
  }
  const double busy = traced.wall_s * static_cast<double>(shards);
  const double poll_self = poll_s - handler_s;
  const double dispatch = handler_s - send_in_handler_s;
  const double step_self = busy - poll_s - (send_s - send_in_handler_s);

  const double tick = static_cast<double>(stack->config.emu.poll_sleep_us) *
                      1e-6 * stack->config.emu.speedup;
  std::vector<double> tick_us;
  const auto& marks = stack->tap->ticks();
  for (std::size_t i = 1; i < marks.size(); ++i) {
    const double span_ticks = std::max(
        1.0, std::round((marks[i].virtual_now - marks[i - 1].virtual_now) /
                        tick));
    tick_us.push_back(static_cast<double>(marks[i].wall - marks[i - 1].wall) *
                      1e-3 / span_ticks);
  }

  std::size_t innovative = 0, stall_boosts = 0, resync_requests = 0;
  std::size_t data_packets_sent = 0, decoded_generations = 0;
  for (int s = 0; s < kSessions; ++s) {
    for (int node = 0; node < nodes; ++node) {
      const emu::EmuNode::Stats& st = stack->mux->node(s, node).stats();
      innovative += st.innovative_received;
      stall_boosts += st.stall_boosts;
      resync_requests += st.resync_requests;
      data_packets_sent += st.data_packets_sent;
    }
    decoded_generations += static_cast<std::size_t>(
        stack->mux->node(s, stack->graph.destination)
            .stats()
            .generations_completed);
  }

  const SeamCounts seam = check_conservation(w, *stack, &checks);
  std::size_t malformed = 0;
  const auto frames = captured_data(*stack->tap, &malformed);
  check_reference(*stack, frames, malformed, options.capture_generations,
                  &checks);
  const Replay r = replay(*stack, frames, options.capture_generations);

  const double wall = untraced.wall_s;
  const double checksum_s =
      r.checksum_GBps > 0
          ? static_cast<double>(bytes_sent + bytes_delivered) /
                (r.checksum_GBps * 1e9)
          : 0.0;
  const double codes_s =
      1e-9 * (r.encode_ns * static_cast<double>(source_data_sends) +
              r.recode_ns * static_cast<double>(relay_data_sends) +
              r.recode_offer_ns * static_cast<double>(data_to_relays) +
              r.decode_offer_ns * static_cast<double>(data_to_dst)) +
      1e-6 * r.recover_us * static_cast<double>(decoded_generations);
  const double decoded_blocks = static_cast<double>(decoded_generations) *
                                static_cast<double>(kGenBlocks);

  Json layers;
  layers.num("transport.send_calls", static_cast<double>(sends));
  layers.num("transport.poll_calls", static_cast<double>(polls));
  layers.num("transport.send_self_s", send_s);
  layers.num("transport.poll_self_s", poll_self);
  layers.num("transport.poll_empty_ratio",
             polls ? static_cast<double>(empty) / static_cast<double>(polls)
                   : 0.0);
  layers.num("transport.copies_delivered", static_cast<double>(seam.delivered));
  layers.num("transport.copies_dropped", static_cast<double>(seam.dropped));
  layers.num("transport.copies_unaccounted",
             static_cast<double>(seam.unaccounted));
  layers.num("mux.dispatch_calls", static_cast<double>(handler_calls));
  layers.num("mux.dispatch_s", dispatch);
  layers.num("node.step_self_s", step_self);
  layers.num("share.transport", (poll_self + send_s) / busy);
  layers.num("share.dispatch", dispatch / busy);
  layers.num("share.step", step_self / busy);
  layers.num("time.ticks", static_cast<double>(marks.size()));
  layers.num("time.tick_wall_p50_us", quantile(tick_us, 0.5));
  layers.num("time.tick_wall_p99_us", quantile(tick_us, 0.99));
  layers.num("time.virtual_s_per_wall_s", traced.virtual_s / traced.wall_s);
  layers.num("wire.frames_data", static_cast<double>(data));
  layers.num("wire.frames_ack", static_cast<double>(ack));
  layers.num("wire.frames_price", static_cast<double>(price));
  layers.num("wire.frames_other", static_cast<double>(other));
  layers.num("wire.bytes_sent", static_cast<double>(bytes_sent));
  layers.num("protocols.innovative_ratio",
             data_to_relays + data_to_dst
                 ? static_cast<double>(innovative) /
                       static_cast<double>(data_to_relays + data_to_dst)
                 : 0.0);
  layers.num("protocols.data_frames_per_decoded_block",
             decoded_blocks > 0
                 ? static_cast<double>(data_packets_sent) / decoded_blocks
                 : 0.0);
  layers.num("node.stall_boosts", static_cast<double>(stall_boosts));
  layers.num("node.resync_requests", static_cast<double>(resync_requests));
  layers.num("wire.parse_ns", r.parse_ns);
  layers.num("wire.serialize_ns", r.serialize_ns);
  layers.num("wire.checksum_GBps", r.checksum_GBps);
  layers.num("mux.classify_ns", r.classify_ns);
  layers.num("codes.encode_ns", r.encode_ns);
  layers.num("codes.recode_offer_ns", r.recode_offer_ns);
  layers.num("codes.recode_ns", r.recode_ns);
  layers.num("codes.decode_offer_ns", r.decode_offer_ns);
  layers.num("codes.recover_us", r.recover_us);
  layers.num("galois.axpy_GBps", r.axpy_GBps);
  layers.num("wire.checksum_est_share", checksum_s / wall);
  layers.num("codes.est_share", codes_s / wall);
  layers.num("trace_overhead", traced.wall_s / untraced.wall_s - 1.0);

  Json json;
  json.str("mode", "trace");
  json.num("attempted",
           static_cast<double>(untraced.attempted + traced.attempted));
  json.num("failed", static_cast<double>(untraced.failed + traced.failed));
  json.str("digest", untraced.digest);
  json.str("traced_digest", traced.digest);
  json.raw("layers", layers.done());
  json.raw("failures", Json::strings(checks.failures));
  std::printf("%s\n", json.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, mode = "measure";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--mode") {
      mode = value;
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n", workload_name.c_str());
    return 2;
  }
  if (mode == "setup") return run_setup(*workload, seed);
  if (mode == "measure") return run_measure(*workload, seed, seconds);
  if (mode == "single") return run_single(*workload, seed);
  if (mode == "check") return run_check(*workload, seed);
  if (mode == "trace") return run_trace(*workload, seed);
  std::fprintf(stderr, "unknown --mode '%s'\n", mode.c_str());
  return 2;
}
