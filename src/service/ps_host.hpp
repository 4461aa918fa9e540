// Parameter-server hosting inside the training daemon.
//
// PsHost turns the daemon into a standing parameter-server endpoint: it owns
// a dense model vector and serves the distributed wire protocol
// (distributed/ps_wire.hpp) over a net::Transport listener — coordinate gets
// (kStep → kStepReply) and sparse pushes (kPush → apply → kPushAck) — so
// external worker processes can train against a model that outlives any one
// of them. The apply is fenced::apply_push, the fused sparse kernel the
// Hogwild solvers, the fenced simulator and the forked process groups all
// step with: a worker talking to a hosted PS sees exactly the update rule
// every other backend implements.
//
// Lifecycle: construct (binds the listener, resolves ephemeral addresses),
// serve connections on a background thread, stop() to wind down. Connections
// are served one at a time — a PS transaction is a short request/response
// exchange and the accept loop polls its stop flag between timeouts, so a
// slow client delays, never wedges, the host. The daemon protocol drives
// this via `ps_serve` / `ps_stop` (service/protocol.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "objectives/objective.hpp"

namespace isasgd::service {

class PsHost {
 public:
  /// Binds `address` (e.g. "tcp://127.0.0.1:0" or "shm:///tmp/prefix") and
  /// starts serving a zero-initialised `dim`-dimensional model under `reg`.
  /// Throws std::invalid_argument, before binding, when reg's strength is
  /// negative or not finite, and net::TransportError when the address
  /// cannot be bound.
  PsHost(std::size_t dim, const std::string& address,
         objectives::Regularization reg = objectives::Regularization::none());
  ~PsHost();

  PsHost(const PsHost&) = delete;
  PsHost& operator=(const PsHost&) = delete;

  /// The bound address with ephemeral parts resolved — hand this to workers.
  [[nodiscard]] const std::string& address() const noexcept { return address_; }

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Pushes applied since construction.
  [[nodiscard]] std::uint64_t pushes() const noexcept {
    return pushes_.load(std::memory_order_relaxed);
  }

  /// Snapshot of the current model (copy under the model lock).
  [[nodiscard]] std::vector<double> model() const;

  /// Stops the accept loop and joins the serving thread. Idempotent.
  void stop();

 private:
  void serve();
  void serve_connection(net::Endpoint& ep);

  std::size_t dim_;
  objectives::Regularization reg_;
  std::string address_;
  std::unique_ptr<net::Listener> listener_;
  mutable std::mutex model_mu_;
  std::vector<double> model_;
  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace isasgd::service
