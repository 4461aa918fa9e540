// TCP backend: the multi-host transport. Plain blocking sockets with
// poll-guarded deadlines, MSG_NOSIGNAL on every send (a worker dying
// mid-run must surface as a typed kClosed error on its peers, never as a
// process-fatal SIGPIPE), and EINTR retry on every syscall.
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>

#include "net/transport.hpp"

namespace isasgd::net::detail {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_io(const std::string& what) {
  throw TransportError(TransportError::Kind::kIo,
                       what + ": " + std::strerror(errno));
}

/// Remaining milliseconds until `deadline`, rounded up so that a poll never
/// wakes before it, and clamped at 0; -1 when unbounded.
int remaining_ms(bool bounded, Clock::time_point deadline) {
  if (!bounded) return -1;
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
  return static_cast<int>(std::max<std::int64_t>(0, left.count()));
}

/// Polls until `fd` is ready for `events` or the deadline passes.
void wait_ready(int fd, short events, bool bounded, Clock::time_point deadline,
                const char* what) {
  while (true) {
    pollfd pfd{fd, events, 0};
    const int ready = ::poll(&pfd, 1, remaining_ms(bounded, deadline));
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_io("poll");
    }
    if (ready == 0) {
      throw TransportError(TransportError::Kind::kTimeout,
                           std::string(what) + " timed out");
    }
    return;
  }
}

/// host:port → sockaddr_in (numeric or resolvable host).
sockaddr_in parse_host_port(const std::string& host_port) {
  const std::size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    throw TransportError(TransportError::Kind::kIo,
                         "tcp address '" + host_port +
                             "' is not of the form host:port");
  }
  const std::string host = host_port.substr(0, colon);
  const std::string port = host_port.substr(colon + 1);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  char* end = nullptr;
  const long p = std::strtol(port.c_str(), &end, 10);
  if (end == port.c_str() || *end != '\0' || p < 0 || p > 65535) {
    throw TransportError(TransportError::Kind::kIo,
                         "tcp port '" + port + "' is not a valid port");
  }
  addr.sin_port = htons(static_cast<std::uint16_t>(p));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* result = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &result) != 0 ||
        result == nullptr) {
      throw TransportError(TransportError::Kind::kIo,
                           "cannot resolve tcp host '" + host + "'");
    }
    addr.sin_addr =
        reinterpret_cast<const sockaddr_in*>(result->ai_addr)->sin_addr;
    ::freeaddrinfo(result);
  }
  return addr;
}

class TcpEndpoint final : public Endpoint {
 public:
  explicit TcpEndpoint(int fd) : fd_(fd) {
    // Request/response round-trips per sample: Nagle off or the fenced
    // schedule pays 40ms delayed-ACK stalls per step.
    int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpEndpoint() override { close(); }

  void send_bytes(const void* data, std::size_t size) override {
    const auto deadline = start_deadline();
    const char* p = static_cast<const char*>(data);
    std::size_t sent = 0;
    while (sent < size) {
      wait_ready(fd_, POLLOUT, timeout_ms_ >= 0, deadline, "tcp send");
      // Non-blocking: a blocking send of more than the socket buffer holds
      // would wait for the peer to drain it, past any deadline.
      const ssize_t n =
          ::send(fd_, p + sent, size - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        if (errno == EPIPE || errno == ECONNRESET) {
          throw TransportError(TransportError::Kind::kClosed,
                               "tcp peer closed while sending");
        }
        throw_io("tcp send");
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  void recv_bytes(void* data, std::size_t size) override {
    const auto deadline = start_deadline();
    char* p = static_cast<char*>(data);
    std::size_t received = 0;
    while (received < size) {
      wait_ready(fd_, POLLIN, timeout_ms_ >= 0, deadline, "tcp recv");
      const ssize_t n = ::recv(fd_, p + received, size - received, 0);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        if (errno == ECONNRESET) {
          throw TransportError(TransportError::Kind::kClosed,
                               "tcp peer reset while receiving");
        }
        throw_io("tcp recv");
      }
      if (n == 0) {
        throw TransportError(
            TransportError::Kind::kClosed,
            received == 0
                ? "tcp peer closed"
                : "tcp peer closed mid-message (torn frame: got " +
                      std::to_string(received) + " of " +
                      std::to_string(size) + " bytes)");
      }
      received += static_cast<std::size_t>(n);
    }
  }

  void set_io_timeout(int timeout_ms) override { timeout_ms_ = timeout_ms; }

  void close() override {
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  [[nodiscard]] Clock::time_point start_deadline() const {
    return timeout_ms_ >= 0
               ? Clock::now() + std::chrono::milliseconds(timeout_ms_)
               : Clock::time_point{};
  }

  int fd_ = -1;
  int timeout_ms_ = -1;
};

class TcpListener final : public Listener {
 public:
  explicit TcpListener(const std::string& host_port) {
    sockaddr_in addr = parse_host_port(host_port);
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw_io("tcp socket");
    int one = 1;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      const int saved = errno;
      ::close(fd_);
      fd_ = -1;
      errno = saved;
      throw_io("tcp bind " + host_port);
    }
    if (::listen(fd_, 64) < 0) {
      const int saved = errno;
      ::close(fd_);
      fd_ = -1;
      errno = saved;
      throw_io("tcp listen " + host_port);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      throw_io("tcp getsockname");
    }
    char host[INET_ADDRSTRLEN] = {};
    ::inet_ntop(AF_INET, &bound.sin_addr, host, sizeof(host));
    address_ = "tcp://" + std::string(host) + ":" +
               std::to_string(ntohs(bound.sin_port));
  }

  ~TcpListener() override { close(); }

  std::unique_ptr<Endpoint> accept() override {
    if (fd_ < 0) {
      throw TransportError(TransportError::Kind::kClosed,
                           "tcp listener is closed");
    }
    const auto deadline =
        timeout_ms_ >= 0 ? Clock::now() + std::chrono::milliseconds(timeout_ms_)
                         : Clock::time_point{};
    while (true) {
      wait_ready(fd_, POLLIN, timeout_ms_ >= 0, deadline, "tcp accept");
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) {
        if (errno == EINTR) continue;
        throw_io("tcp accept");
      }
      return std::make_unique<TcpEndpoint>(conn);
    }
  }

  std::string address() const override { return address_; }

  void set_accept_timeout(int timeout_ms) override { timeout_ms_ = timeout_ms; }

  void close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  int timeout_ms_ = -1;
  std::string address_;
};

}  // namespace

std::unique_ptr<Listener> tcp_listen(const std::string& host_port) {
  return std::make_unique<TcpListener>(host_port);
}

std::unique_ptr<Endpoint> tcp_connect(const std::string& host_port,
                                      int timeout_ms) {
  const sockaddr_in addr = parse_host_port(host_port);
  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           timeout_ms < 0 ? 0 : timeout_ms);
  while (true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_io("tcp socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return std::make_unique<TcpEndpoint>(fd);
    }
    const int saved = errno;
    ::close(fd);
    // A process group starts in arbitrary order: retry refused connections
    // until the deadline (timeout_ms < 0 = forever) so workers may come up
    // before their server.
    if (saved == ECONNREFUSED || saved == ETIMEDOUT) {
      if (timeout_ms < 0 || Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        continue;
      }
      throw TransportError(TransportError::Kind::kTimeout,
                           "tcp connect to " + host_port +
                               " not accepted within the deadline");
    }
    errno = saved;
    throw_io("tcp connect " + host_port);
  }
}

}  // namespace isasgd::net::detail
