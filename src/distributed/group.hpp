// What the roles of a forked process group share (real_runtime.cpp: the
// controller, the PS worker and the all-reduce pair; ps_server.cpp: the
// parameter server): the deadlines every blocking call runs under, the
// hello each connection opens with, the accept of a group's first
// connections, and the wire elements more than one role reads.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "distributed/cluster.hpp"
#include "distributed/ps_wire.hpp"
#include "net/fault.hpp"
#include "net/transport.hpp"

namespace isasgd::distributed {

/// Generous per-call I/O deadline inside a fault-free group. Every blocking
/// call a process makes is bounded by it, so a dead peer turns into a typed
/// TransportError instead of a wedged group. Fault-tolerant runs (a wire
/// FaultSpec or FaultScenario is active) switch to the much tighter
/// RecoveryOptions deadlines instead.
inline constexpr int kGroupIoTimeoutMs = 120000;
inline constexpr int kConnectTimeoutMs = 30000;

using Clock = std::chrono::steady_clock;

inline bool fault_tolerant(const ClusterSpec& spec) {
  return spec.wire_faults.enabled() || spec.fault.enabled();
}

inline std::shared_ptr<const net::FaultPlan> make_plan(
    const ClusterSpec& spec) {
  if (!spec.wire_faults.enabled()) return nullptr;
  return std::make_shared<net::FaultPlan>(spec.wire_faults);
}

/// Hellos are always sent on the UNWRAPPED endpoint (before any fault
/// decorator is attached): losing the handshake would deadlock group setup
/// without exercising anything the recovery protocol is responsible for.
inline void send_hello(net::Endpoint& ep, std::uint32_t role,
                       std::uint32_t rank, std::uint32_t resume) {
  wire::Packer p;
  p.u32(role).u32(rank).u32(resume);
  net::write_frame(ep, wire::kHello, p);
}

/// A parsed kHello: who a new connection is.
struct Hello {
  std::uint32_t role = 0;
  std::uint32_t rank = 0;
  std::uint32_t resume = 0;
};

/// Reads the kHello every connection opens with.
inline Hello read_hello(net::Endpoint& ep) {
  const net::Frame f = net::expect_frame(ep, wire::kHello, "hello");
  wire::Unpacker u(f.payload);
  Hello hello;
  hello.role = u.u32();
  hello.rank = u.u32();
  hello.resume = u.u32();
  return hello;
}

/// Accepts a group's initial connections: the controller, whose endpoint
/// is returned, and one worker per rank in [0, k), each handed to
/// `adopt(hello, endpoint)`. Used by both the PS server and the reducer.
template <typename Adopt>
std::unique_ptr<net::Endpoint> accept_group(net::Listener& listener,
                                            std::size_t k, Adopt&& adopt) {
  listener.set_accept_timeout(kConnectTimeoutMs);
  std::unique_ptr<net::Endpoint> controller;
  std::vector<char> joined(k, 0);
  std::size_t have = 0;
  while (controller == nullptr || have < k) {
    std::unique_ptr<net::Endpoint> ep = listener.accept();
    ep->set_io_timeout(kConnectTimeoutMs);
    const Hello hello = read_hello(*ep);
    if (hello.role == wire::kRoleController) {
      controller = std::move(ep);
      controller->set_io_timeout(kGroupIoTimeoutMs);
    } else if (hello.rank < k && !joined[hello.rank]) {
      joined[hello.rank] = 1;
      ++have;
      adopt(hello, std::move(ep));
    } else {
      throw net::TransportError(net::TransportError::Kind::kProtocol,
                                "duplicate or out-of-range worker rank " +
                                    std::to_string(hello.rank));
    }
  }
  return controller;
}

/// Reads one model coordinate; an index past the model is a typed protocol
/// error, never an out-of-bounds access.
inline std::uint32_t read_coordinate(wire::Unpacker& u, std::size_t dim) {
  const std::uint32_t c = u.u32();
  if (c >= dim) {
    throw net::TransportError(net::TransportError::Kind::kProtocol,
                              "coordinate " + std::to_string(c) +
                                  " out of range (dim " + std::to_string(dim) +
                                  ")");
  }
  return c;
}

/// Wire sizes of the repeated elements the count sites bound.
inline constexpr std::size_t kGoEntryBytes =
    sizeof(std::uint32_t) + sizeof(std::uint64_t);  // (walk, ff)
inline constexpr std::size_t kCoordValueBytes =
    sizeof(std::uint32_t) + sizeof(double);  // (idx, val)

/// One (walk, fast-forward) assignment entry of a kEpochGo.
struct GoEntry {
  std::uint32_t walk = 0;
  std::uint64_t ff = 0;
};

}  // namespace isasgd::distributed
