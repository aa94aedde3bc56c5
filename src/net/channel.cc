#include "net/channel.h"

#include <sstream>

namespace sknn {

std::string TrafficStats::ToString() const {
  std::ostringstream os;
  os << "C1->C2: " << frames_a_to_b << " frames / " << bytes_a_to_b
     << " B; C2->C1: " << frames_b_to_a << " frames / " << bytes_b_to_a
     << " B";
  return os.str();
}

Channel::EndpointPair Channel::CreatePair() {
  auto channel = std::shared_ptr<Channel>(new Channel());
  EndpointPair pair;
  pair.a = std::make_unique<ChannelEndpoint>(channel, /*is_a=*/true);
  pair.b = std::make_unique<ChannelEndpoint>(channel, /*is_a=*/false);
  return pair;
}

void Channel::set_latency(std::chrono::microseconds latency) {
  MutexLock lock(&mutex_);
  latency_ = latency;
}

std::chrono::microseconds Channel::latency() const {
  MutexLock lock(&mutex_);
  return latency_;
}

bool ChannelEndpoint::Send(std::vector<uint8_t> frame) {
  Channel& ch = *channel_;
  MutexLock lock(&ch.mutex_);
  if (ch.closed_) return false;
  Channel::Queue& q = is_a_ ? ch.a_to_b_ : ch.b_to_a_;
  q.frames.push_back(
      {Channel::Clock::now() + ch.latency_, std::move(frame)});
  q.cv.NotifyOne();
  return true;
}

bool ChannelEndpoint::Recv(std::vector<uint8_t>* frame) {
  Channel& ch = *channel_;
  MutexLock lock(&ch.mutex_);
  Channel::Queue& q = is_a_ ? ch.b_to_a_ : ch.a_to_b_;
  for (;;) {
    while (!ch.closed_ && q.frames.empty()) q.cv.Wait(ch.mutex_);
    if (q.frames.empty()) return false;  // closed and drained
    // Honor the simulated link latency: frames are FIFO, so only the head's
    // delivery time matters.
    Channel::Clock::time_point ready_at = q.frames.front().deliver_at;
    if (ready_at <= Channel::Clock::now()) break;
    q.cv.WaitUntil(ch.mutex_, ready_at);
  }
  *frame = std::move(q.frames.front().bytes);
  q.frames.pop_front();
  return true;
}

void ChannelEndpoint::Close() {
  Channel& ch = *channel_;
  MutexLock lock(&ch.mutex_);
  if (ch.closed_) return;
  ch.closed_ = true;
  ch.a_to_b_.cv.NotifyAll();
  ch.b_to_a_.cv.NotifyAll();
}

}  // namespace sknn
