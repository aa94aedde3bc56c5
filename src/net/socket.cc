#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "common/logging.h"

namespace sknn {
namespace {

using Clock = std::chrono::steady_clock;

// Writes the whole buffer, looping over partial writes and EINTR.
bool WriteAll(int fd, const uint8_t* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    ssize_t n = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

// Reads exactly len bytes; false on EOF or error.
bool ReadAll(int fd, uint8_t* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    ssize_t n = ::recv(fd, data + done, len - done, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // orderly shutdown
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

SocketEndpoint::~SocketEndpoint() {
  Close();
  // The fd is released here and only here: Close() may run while another
  // thread is blocked inside recv(2)/send(2) on this fd, and closing it
  // under that thread would let the kernel recycle the number for an
  // unrelated descriptor mid-read. By destruction time no other thread may
  // touch the endpoint, so the close is safe.
  ::close(fd_);
}

bool SocketEndpoint::Send(std::vector<uint8_t> frame) {
  if (closed_.load(std::memory_order_acquire)) return false;
  // Oversized frames would wrap the length prefix.
  if (frame.size() > 0xFFFFFFFFu) return false;
  uint8_t header[4];
  uint32_t len = static_cast<uint32_t>(frame.size());
  for (int i = 0; i < 4; ++i) header[i] = static_cast<uint8_t>(len >> (8 * i));
  MutexLock lock(&send_mutex_);
  if (!WriteAll(fd_, header, 4) ||
      !WriteAll(fd_, frame.data(), frame.size())) {
    return false;
  }
  bytes_sent_.fetch_add(4 + frame.size(), std::memory_order_relaxed);
  return true;
}

bool SocketEndpoint::Recv(std::vector<uint8_t>* frame) {
  MutexLock lock(&recv_mutex_);
  uint8_t header[4];
  if (!ReadAll(fd_, header, 4)) return false;
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<uint32_t>(header[i]) << (8 * i);
  // The prefix is the peer's claim, not a promise: grow the buffer only as
  // bytes land, one chunk at a time, so a header alone allocates nothing.
  frame->clear();
  for (std::size_t have = 0; have < len;) {
    const std::size_t step = std::min<std::size_t>(len - have, kRecvChunkBytes);
    frame->resize(have + step);
    if (!ReadAll(fd_, frame->data() + have, step)) return false;
    have += step;
  }
  bytes_received_.fetch_add(4 + len, std::memory_order_relaxed);
  return true;
}

void SocketEndpoint::Close() {
  bool expected = false;
  if (closed_.compare_exchange_strong(expected, true)) {
    // shutdown(2), not close(2): unblocks any reader/writer without
    // releasing the fd number while they still hold it (see ~SocketEndpoint).
    ::shutdown(fd_, SHUT_RDWR);
  }
}

Channel::EndpointPair Channel::CreatePair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    SKNN_LOG(Error) << "Channel::CreatePair: socketpair(): "
                    << std::strerror(errno);
    return {};
  }
  return {std::make_unique<SocketEndpoint>(fds[0]),
          std::make_unique<SocketEndpoint>(fds[1])};
}

// The send time goes as the host-order bytes of the clock's count: both
// ends run in one process.
bool DelayedEndpoint::Send(std::vector<uint8_t> frame) {
  const Clock::rep sent = Clock::now().time_since_epoch().count();
  const auto* stamp = reinterpret_cast<const uint8_t*>(&sent);
  frame.insert(frame.begin(), stamp, stamp + sizeof(sent));
  return inner_->Send(std::move(frame));
}

bool DelayedEndpoint::Recv(std::vector<uint8_t>* frame) {
  Clock::rep sent = 0;
  if (!inner_->Recv(frame) || frame->size() < sizeof(sent)) return false;
  std::memcpy(&sent, frame->data(), sizeof(sent));
  frame->erase(frame->begin(), frame->begin() + sizeof(sent));
  std::this_thread::sleep_until(Clock::time_point(Clock::duration(sent)) +
                                latency_);
  return true;
}

Status ParseHostPort(const std::string& addr, std::string* host,
                     uint16_t* port) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == addr.size()) {
    return Status::InvalidArgument("address '" + addr + "' is not host:port");
  }
  uint32_t value = 0;
  for (std::size_t i = colon + 1; i < addr.size(); ++i) {
    const char c = addr[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("address '" + addr +
                                     "' has a non-digit in its port");
    }
    value = value * 10 + static_cast<uint32_t>(c - '0');
    if (value > 65535) break;
  }
  if (value == 0 || value > 65535) {
    return Status::InvalidArgument("address '" + addr +
                                   "' has a port outside 1..65535");
  }
  *host = addr.substr(0, colon);
  *port = static_cast<uint16_t>(value);
  return Status::OK();
}

Result<std::unique_ptr<SocketEndpoint>> ConnectTcp(const std::string& host,
                                                   uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket(): " + std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  std::string resolved = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("ConnectTcp: bad IPv4 address '" + host +
                                   "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("connect(" + host + ":" + std::to_string(port) +
                           "): " + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<SocketEndpoint>(fd);
}

Result<TcpListener> TcpListener::Bind(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket(): " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("bind(:" + std::to_string(port) +
                           "): " + std::strerror(errno));
  }
  if (::listen(fd, 8) != 0) {
    ::close(fd);
    return Status::IoError("listen(): " + std::string(std::strerror(errno)));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    ::close(fd);
    return Status::IoError("getsockname(): " +
                           std::string(std::strerror(errno)));
  }
  return TcpListener(fd, ntohs(addr.sin_port));
}

TcpListener::~TcpListener() { Close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_.exchange(-1, std::memory_order_acq_rel)),
      port_(other.port_) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_.store(other.fd_.exchange(-1, std::memory_order_acq_rel),
              std::memory_order_release);
    port_ = other.port_;
  }
  return *this;
}

Result<std::unique_ptr<SocketEndpoint>> TcpListener::Accept() {
  // Read the fd once: Close() may flip it to -1 concurrently
  // (RpcListener::Shutdown), and a blocked accept(2) on the old fd then
  // fails with EBADF/EINVAL — which the caller's stop flag turns into a
  // clean exit.
  int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) {
    return Status::IoError("accept(): listener is closed");
  }
  int client = ::accept(fd, nullptr, nullptr);
  if (client < 0) {
    return Status::IoError("accept(): " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<SocketEndpoint>(client);
}

void TcpListener::Close() {
  int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace sknn
