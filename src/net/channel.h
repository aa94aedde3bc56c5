// In-memory duplex link simulating the C1 <-> C2 connection.
//
// Channel::CreatePair() returns two endpoints; frames sent on one are
// received on the other, FIFO. Closing either endpoint unblocks receivers.
// A query's traffic is counted per query at the call layer (QueryMeter,
// proto/query_meter.h), not here.
#ifndef SKNN_NET_CHANNEL_H_
#define SKNN_NET_CHANNEL_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/endpoint.h"

namespace sknn {

struct TrafficStats {
  uint64_t frames_a_to_b = 0;
  uint64_t bytes_a_to_b = 0;
  uint64_t frames_b_to_a = 0;
  uint64_t bytes_b_to_a = 0;

  uint64_t total_bytes() const { return bytes_a_to_b + bytes_b_to_a; }
  uint64_t total_frames() const { return frames_a_to_b + frames_b_to_a; }
  TrafficStats operator+(const TrafficStats& o) const {
    return {frames_a_to_b + o.frames_a_to_b, bytes_a_to_b + o.bytes_a_to_b,
            frames_b_to_a + o.frames_b_to_a, bytes_b_to_a + o.bytes_b_to_a};
  }
  std::string ToString() const;
};

class ChannelEndpoint;

/// \brief Shared state of a duplex link between two endpoints (A and B).
/// One mutex guards the whole link: both queues, the latency knob and the
/// closed flag (frames are multi-KB ciphertext vectors, so
/// finer-grained locking would buy nothing).
class Channel {
 public:
  struct EndpointPair {
    std::unique_ptr<ChannelEndpoint> a;
    std::unique_ptr<ChannelEndpoint> b;
  };

  /// \brief Creates a connected endpoint pair.
  static EndpointPair CreatePair();

  /// \brief Simulated one-way link latency (default zero). Frames become
  /// visible to the receiver `latency` after Send — this is how the bench
  /// harness models a WAN between the two clouds, making round-trip-depth
  /// differences (e.g. SMIN_n tournament vs linear scan) measurable.
  void set_latency(std::chrono::microseconds latency);
  std::chrono::microseconds latency() const;

 private:
  friend class ChannelEndpoint;

  using Clock = std::chrono::steady_clock;

  struct TimedFrame {
    Clock::time_point deliver_at;
    std::vector<uint8_t> bytes;
  };

  struct Queue {
    std::deque<TimedFrame> frames;
    CondVar cv;
  };

  mutable Mutex mutex_;
  Queue a_to_b_ GUARDED_BY(mutex_);
  Queue b_to_a_ GUARDED_BY(mutex_);
  std::chrono::microseconds latency_ GUARDED_BY(mutex_){0};
  bool closed_ GUARDED_BY(mutex_) = false;
};

/// \brief One side of a Channel. Send/Recv are thread-safe.
class ChannelEndpoint : public Endpoint {
 public:
  ChannelEndpoint(std::shared_ptr<Channel> channel, bool is_a)
      : channel_(std::move(channel)), is_a_(is_a) {}
  ~ChannelEndpoint() override { Close(); }

  /// \brief Enqueues a frame for the peer. Returns false if closed.
  bool Send(std::vector<uint8_t> frame) override;

  /// \brief Blocks for the next frame. Returns false when the link is closed
  /// and drained.
  bool Recv(std::vector<uint8_t>* frame) override;

  /// \brief Closes the link in both directions; wakes all blocked receivers.
  void Close() override;

  Channel& channel() { return *channel_; }

 private:
  std::shared_ptr<Channel> channel_;
  bool is_a_;
};

}  // namespace sknn

#endif  // SKNN_NET_CHANNEL_H_
