#include "service/ps_host.hpp"

#include <cstdint>
#include <span>
#include <utility>

#include "distributed/fenced.hpp"
#include "distributed/ps_wire.hpp"

namespace isasgd::service {

namespace wire = distributed::wire;

namespace {

/// A worker that connects and then stalls must not hold the host hostage:
/// each in-flight request gets this long before its connection is dropped.
constexpr int kConnectionIoTimeoutMs = 5000;
/// Accept poll period — the stop flag is checked at this cadence.
constexpr int kAcceptPollMs = 100;

}  // namespace

PsHost::PsHost(std::size_t dim, const std::string& address,
               objectives::Regularization reg)
    : dim_(dim), reg_(std::move(reg)), model_(dim, 0.0) {
  reg_.validate("PsHost");
  listener_ = net::listen(address);
  address_ = listener_->address();
  listener_->set_accept_timeout(kAcceptPollMs);
  thread_ = std::thread([this] { serve(); });
}

PsHost::~PsHost() { stop(); }

std::vector<double> PsHost::model() const {
  std::lock_guard lock(model_mu_);
  return model_;
}

void PsHost::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (listener_) listener_->close();
}

void PsHost::serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    std::unique_ptr<net::Endpoint> ep;
    try {
      ep = listener_->accept();
    } catch (const net::TransportError& e) {
      if (e.kind() == net::TransportError::Kind::kTimeout) continue;
      break;  // listener closed or unusable: wind down
    }
    ep->set_io_timeout(kConnectionIoTimeoutMs);
    try {
      serve_connection(*ep);
    } catch (const net::TransportError&) {
      // A misbehaving or vanished client costs its own connection, nothing
      // else — the host keeps serving.
    }
  }
}

void PsHost::serve_connection(net::Endpoint& ep) {
  for (;;) {
    net::Frame frame;
    try {
      frame = net::read_frame(ep);
    } catch (const net::TransportError& e) {
      if (e.kind() == net::TransportError::Kind::kClosed) return;  // done
      throw;
    }
    switch (frame.type) {
      case wire::kHello:
        break;  // identification only; no reply in the wire map
      case wire::kStep: {
        wire::Unpacker in(frame.payload);
        const auto ncols = in.count<std::uint64_t>(sizeof(std::uint32_t));
        wire::Packer out;
        {
          std::lock_guard lock(model_mu_);
          for (std::uint64_t j = 0; j < ncols; ++j) {
            const std::uint32_t c = in.u32();
            out.f64(c < dim_ ? model_[c] : 0.0);
          }
        }
        net::write_frame(ep, wire::kStepReply, std::move(out).take());
        break;
      }
      case wire::kPush: {
        wire::Unpacker in(frame.payload);
        const double gradient_scale = in.f64();
        const double scaled_step = in.f64();
        const auto nnz =
            in.count<std::uint64_t>(sizeof(std::uint32_t) + sizeof(double));
        std::vector<std::uint32_t> idx(nnz);
        std::vector<double> val(nnz);
        for (std::uint64_t j = 0; j < nnz; ++j) {
          idx[j] = in.u32();
          val[j] = in.f64();
          if (idx[j] >= dim_) {
            throw net::TransportError(
                net::TransportError::Kind::kProtocol,
                "push coordinate " + std::to_string(idx[j]) +
                    " out of range (dim " + std::to_string(dim_) + ")");
          }
        }
        {
          std::lock_guard lock(model_mu_);
          distributed::fenced::apply_push(idx, val, gradient_scale,
                                          scaled_step, reg_, model_);
        }
        pushes_.fetch_add(1, std::memory_order_relaxed);
        net::write_frame(ep, wire::kPushAck, {});
        break;
      }
      default:
        throw net::TransportError(
            net::TransportError::Kind::kProtocol,
            "hosted PS: unexpected frame type " + std::to_string(frame.type));
    }
  }
}

}  // namespace isasgd::service
