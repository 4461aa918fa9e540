#include "net/transport.hpp"

#include <cstring>

namespace isasgd::net {

// Backend factories (tcp.cpp / shm_ring.cpp).
namespace detail {
std::unique_ptr<Listener> tcp_listen(const std::string& host_port);
std::unique_ptr<Endpoint> tcp_connect(const std::string& host_port,
                                      int timeout_ms);
std::unique_ptr<Listener> shm_listen(const std::string& prefix);
std::unique_ptr<Endpoint> shm_connect(const std::string& prefix,
                                      int timeout_ms);
void shm_remove_listener_files(const std::string& prefix);
}  // namespace detail

namespace {

constexpr std::string_view kTcpScheme = "tcp://";
constexpr std::string_view kShmScheme = "shm://";

[[noreturn]] void bad_address(const std::string& address) {
  throw TransportError(TransportError::Kind::kIo,
                       "unsupported transport address '" + address +
                           "' (expected tcp://host:port or shm://path)");
}

}  // namespace

std::string_view transport_error_kind_name(TransportError::Kind kind) noexcept {
  switch (kind) {
    case TransportError::Kind::kClosed:
      return "closed";
    case TransportError::Kind::kTimeout:
      return "timeout";
    case TransportError::Kind::kProtocol:
      return "protocol";
    case TransportError::Kind::kIo:
      return "io";
  }
  return "unknown";
}

std::unique_ptr<Listener> listen(const std::string& address) {
  if (address.rfind(kTcpScheme, 0) == 0) {
    return detail::tcp_listen(address.substr(kTcpScheme.size()));
  }
  if (address.rfind(kShmScheme, 0) == 0) {
    return detail::shm_listen(address.substr(kShmScheme.size()));
  }
  bad_address(address);
}

void remove_listener_files(const std::string& address) {
  if (address.rfind(kShmScheme, 0) == 0) {
    detail::shm_remove_listener_files(address.substr(kShmScheme.size()));
  }
}

std::unique_ptr<Endpoint> connect(const std::string& address, int timeout_ms) {
  if (address.rfind(kTcpScheme, 0) == 0) {
    return detail::tcp_connect(address.substr(kTcpScheme.size()), timeout_ms);
  }
  if (address.rfind(kShmScheme, 0) == 0) {
    return detail::shm_connect(address.substr(kShmScheme.size()), timeout_ms);
  }
  bad_address(address);
}

namespace {

void check_payload_size(std::size_t size) {
  if (size > kMaxFramePayload) {
    throw TransportError(TransportError::Kind::kProtocol,
                         "frame payload of " + std::to_string(size) +
                             " bytes exceeds the " +
                             std::to_string(kMaxFramePayload) + "-byte cap");
  }
}

}  // namespace

void write_frame(Endpoint& endpoint, std::uint32_t type, FrameBuffer& frame) {
  std::string& bytes = frame.bytes_;
  const std::uint64_t length = bytes.size() - kFrameHeaderBytes;
  check_payload_size(length);
  const std::uint32_t magic = kFrameMagic;
  std::memcpy(bytes.data(), &magic, 4);
  std::memcpy(bytes.data() + 4, &type, 4);
  std::memcpy(bytes.data() + 8, &length, 8);
  // One contiguous send per frame: the SPSC ring and TCP both prefer a
  // single send over several tiny ones, a FaultyEndpoint counts one call as
  // one frame, and the header must never interleave with another thread's
  // payload anyway (single-owner send contract).
  endpoint.send_bytes(bytes.data(), bytes.size());
}

void write_frame(Endpoint& endpoint, std::uint32_t type,
                 std::string_view payload) {
  check_payload_size(payload.size());
  thread_local FrameBuffer scratch;
  scratch.clear();
  scratch.append(payload.data(), payload.size());
  write_frame(endpoint, type, scratch);
}

void read_frame(Endpoint& endpoint, Frame& frame) {
  char header[kFrameHeaderBytes];
  endpoint.recv_bytes(header, sizeof(header));
  std::uint32_t magic = 0;
  std::uint32_t type = 0;
  std::uint64_t length = 0;
  std::memcpy(&magic, header, 4);
  std::memcpy(&type, header + 4, 4);
  std::memcpy(&length, header + 8, 8);
  if (magic != kFrameMagic) {
    throw TransportError(TransportError::Kind::kProtocol,
                         "bad frame magic (stream desynchronised or peer is "
                         "not a transport frame writer)");
  }
  if (length > kMaxFramePayload) {
    throw TransportError(TransportError::Kind::kProtocol,
                         "frame announces " + std::to_string(length) +
                             " payload bytes, above the " +
                             std::to_string(kMaxFramePayload) + "-byte cap");
  }
  frame.type = type;
  std::string& payload = frame.payload;
  if (length > payload.capacity()) {
    // Grow to the announced length only: std::string's geometric growth
    // could reserve up to twice kMaxFramePayload.
    std::string grown;
    grown.reserve(static_cast<std::size_t>(length));
    payload.swap(grown);
  }
  payload.resize(static_cast<std::size_t>(length));
  if (length > 0) endpoint.recv_bytes(payload.data(), payload.size());
}

Frame read_frame(Endpoint& endpoint) {
  Frame frame;
  read_frame(endpoint, frame);
  return frame;
}

void expect_frame(Endpoint& endpoint, Frame& frame, std::uint32_t type,
                  const char* what) {
  read_frame(endpoint, frame);
  if (frame.type != type) {
    throw TransportError(TransportError::Kind::kProtocol,
                         std::string(what) + ": expected frame type " +
                             std::to_string(type) + ", got " +
                             std::to_string(frame.type));
  }
}

Frame expect_frame(Endpoint& endpoint, std::uint32_t type, const char* what) {
  Frame frame;
  expect_frame(endpoint, frame, type, what);
  return frame;
}

}  // namespace isasgd::net
