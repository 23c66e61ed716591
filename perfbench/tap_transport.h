// Transport decorator the benchmark puts between SessionMux and the real
// transport.  It forwards every call unchanged (bind_clock and
// make_readiness included, so UDP keeps its epoll path) and, from outside
// the program, records:
//
//   * per-node counts: sends by frame type, bytes, polls, empty polls,
//     delivered copies (data copies separately);
//   * when timing is on, the wall time of send(), of poll() and of the
//     handler poll() calls back into (mux classify + EmuNode::deliver), with
//     sends made from inside a handler kept apart so self times add up;
//   * tick boundaries, read from the bound clock's now() on every call;
//   * a copy of one session's frames: every frame it sends, and every data
//     frame delivered to it, for the generations below a limit (at most
//     kCaptureMaxBytes in all).
//
// Threading follows the Transport contract: send(i)/poll(i) run only on
// node i's thread, so per-node counters need no lock; the tick log and the
// capture buffer take a mutex, and only on a tick change or a captured
// frame.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "emu/transport.h"
#include "wire/frame.h"

namespace perfbench {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CapturedFrame {
  int from = -1;
  int to = -1;  // -1: captured at send
  std::vector<std::uint8_t> bytes;
};

class TapTransport final : public omnc::emu::Transport {
 public:
  struct Options {
    bool timing = false;
    std::uint32_t capture_session = 0;      // wire session id
    std::uint32_t capture_generations = 0;  // data generations [0, limit)
  };

  static constexpr std::size_t kCaptureMaxBytes = 32u << 20;

  struct alignas(64) NodeCounters {
    std::size_t sends = 0;
    std::size_t sends_data = 0;
    std::size_t sends_ack = 0;
    std::size_t sends_price = 0;
    std::size_t sends_other = 0;
    std::size_t bytes_sent = 0;
    std::size_t polls = 0;
    std::size_t polls_empty = 0;
    std::size_t delivered = 0;
    std::size_t delivered_data = 0;
    std::size_t bytes_delivered = 0;
    std::int64_t send_ns = 0;             // all send() calls
    std::int64_t send_in_handler_ns = 0;  // the part made inside a handler
    std::int64_t poll_ns = 0;             // poll() including handlers
    std::int64_t handler_ns = 0;          // handlers including nested sends
    bool in_handler = false;
  };

  struct TickMark {
    double virtual_now = 0.0;
    std::int64_t wall = 0;
  };

  TapTransport(omnc::emu::Transport& inner, Options options)
      : inner_(inner),
        options_(options),
        counters_(static_cast<std::size_t>(inner.nodes())) {}

  int nodes() const override { return inner_.nodes(); }

  void send(int from, std::span<const std::uint8_t> frame) override {
    NodeCounters& c = counters_[static_cast<std::size_t>(from)];
    ++c.sends;
    c.bytes_sent += frame.size();
    omnc::wire::FrameType type = omnc::wire::FrameType::kCodedData;
    if (omnc::wire::peek_type(frame, &type)) {
      switch (type) {
        case omnc::wire::FrameType::kCodedData:
        case omnc::wire::FrameType::kCodedDataCompact:
          ++c.sends_data;
          break;
        case omnc::wire::FrameType::kGenerationAck:
          ++c.sends_ack;
          break;
        case omnc::wire::FrameType::kPriceUpdate:
          ++c.sends_price;
          break;
        default:
          ++c.sends_other;
          break;
      }
    } else {
      ++c.sends_other;
    }
    maybe_capture(from, -1, frame);
    if (!options_.timing) {
      inner_.send(from, frame);
      return;
    }
    mark_tick();
    const std::int64_t start = wall_ns();
    inner_.send(from, frame);
    const std::int64_t spent = wall_ns() - start;
    c.send_ns += spent;
    if (c.in_handler) c.send_in_handler_ns += spent;
  }

  std::size_t poll(int to, const Handler& handler) override {
    NodeCounters& c = counters_[static_cast<std::size_t>(to)];
    ++c.polls;
    // One pointer of capture keeps the wrapper inside std::function's
    // small-object buffer: no allocation per poll.
    struct Ctx {
      TapTransport* self;
      const Handler* handler;
      int to;
    } ctx{this, &handler, to};
    const Handler wrapped = [p = &ctx](int from,
                                       std::span<const std::uint8_t> bytes) {
      p->self->on_delivery(p->to, from, bytes, *p->handler);
    };
    std::size_t delivered = 0;
    if (options_.timing) {
      mark_tick();
      const std::int64_t start = wall_ns();
      delivered = inner_.poll(to, wrapped);
      c.poll_ns += wall_ns() - start;
    } else {
      delivered = inner_.poll(to, wrapped);
    }
    if (delivered == 0) ++c.polls_empty;
    return delivered;
  }

  omnc::emu::TransportStats stats() const override { return inner_.stats(); }

  void bind_clock(const omnc::vtime::Clock* clock) override {
    Transport::bind_clock(clock);
    inner_.bind_clock(clock);
  }

  std::unique_ptr<omnc::emu::TransportReadiness> make_readiness(
      std::span<const int> nodes) override {
    return inner_.make_readiness(nodes);
  }

  const std::vector<NodeCounters>& counters() const { return counters_; }
  /// Read after the run (threads joined).
  const std::vector<TickMark>& ticks() const { return ticks_; }
  const std::vector<CapturedFrame>& captured() const { return captured_; }
  bool capture_overflowed() const { return capture_overflow_; }

 private:
  void on_delivery(int to, int from, std::span<const std::uint8_t> bytes,
                   const Handler& handler) {
    NodeCounters& c = counters_[static_cast<std::size_t>(to)];
    ++c.delivered;
    c.bytes_delivered += bytes.size();
    omnc::wire::FrameType type = omnc::wire::FrameType::kGenerationAck;
    const bool data =
        omnc::wire::peek_type(bytes, &type) &&
        (type == omnc::wire::FrameType::kCodedData ||
         type == omnc::wire::FrameType::kCodedDataCompact);
    if (data) {
      ++c.delivered_data;
      maybe_capture(from, to, bytes);
    }
    if (!options_.timing) {
      handler(from, bytes);
      return;
    }
    c.in_handler = true;
    const std::int64_t start = wall_ns();
    handler(from, bytes);
    c.handler_ns += wall_ns() - start;
    c.in_handler = false;
  }

  void mark_tick() {
    const double now = clock_now();
    if (now <= last_tick_.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(tick_mutex_);
    if (now <= last_tick_.load(std::memory_order_relaxed)) return;
    last_tick_.store(now, std::memory_order_relaxed);
    ticks_.push_back(TickMark{now, wall_ns()});
  }

  void maybe_capture(int from, int to, std::span<const std::uint8_t> bytes) {
    std::uint32_t session = 0;
    if (!omnc::wire::peek_session(bytes, &session) ||
        session != options_.capture_session) {
      return;
    }
    std::uint32_t generation = 0;
    if (omnc::wire::peek_generation(bytes, &generation) &&
        generation >= options_.capture_generations) {
      return;
    }
    std::lock_guard<std::mutex> lock(capture_mutex_);
    if (captured_bytes_ + bytes.size() > kCaptureMaxBytes) {
      capture_overflow_ = true;
      return;
    }
    captured_bytes_ += bytes.size();
    captured_.push_back(
        CapturedFrame{from, to, std::vector<std::uint8_t>(bytes.begin(),
                                                          bytes.end())});
  }

  omnc::emu::Transport& inner_;
  Options options_;
  std::vector<NodeCounters> counters_;

  std::atomic<double> last_tick_{-1.0};
  std::mutex tick_mutex_;
  std::vector<TickMark> ticks_;

  std::mutex capture_mutex_;
  std::vector<CapturedFrame> captured_;
  std::size_t captured_bytes_ = 0;
  bool capture_overflow_ = false;
};

}  // namespace perfbench
