// Hosted parameter-server endpoint (service::PsHost + the ps_serve/ps_stop
// protocol verbs): a daemon-owned model that external workers train against
// over the distributed wire protocol, applying pushes with the same
// fenced::apply_push arithmetic as every other backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "distributed/fenced.hpp"
#include "distributed/ps_wire.hpp"
#include "net/transport.hpp"
#include "objectives/objective.hpp"
#include "service/protocol.hpp"
#include "service/ps_host.hpp"
#include "service/training_service.hpp"

namespace isasgd {
namespace {

namespace wire = distributed::wire;

std::vector<double> step_values(net::Endpoint& ep,
                                const std::vector<std::uint32_t>& idx) {
  wire::Packer req;
  req.u64(idx.size());
  for (const std::uint32_t c : idx) req.u32(c);
  net::write_frame(ep, wire::kStep, std::move(req).take());
  const net::Frame reply = net::expect_frame(ep, wire::kStepReply, "step");
  wire::Unpacker in(reply.payload);
  std::vector<double> values(idx.size());
  for (double& v : values) v = in.f64();
  return values;
}

void push(net::Endpoint& ep, double gradient_scale, double scaled_step,
          const std::vector<std::uint32_t>& idx,
          const std::vector<double>& val) {
  wire::Packer req;
  req.f64(gradient_scale).f64(scaled_step).u64(idx.size());
  for (std::size_t j = 0; j < idx.size(); ++j) {
    req.u32(idx[j]);
    req.f64(val[j]);
  }
  net::write_frame(ep, wire::kPush, std::move(req).take());
  (void)net::expect_frame(ep, wire::kPushAck, "push");
}

TEST(PsHost, ServesGetsAndAppliesPushesWithSharedApplyArithmetic) {
  service::PsHost host(/*dim=*/16, "tcp://127.0.0.1:0");
  auto ep = net::connect(host.address());
  ep->set_io_timeout(5000);

  // Fresh model is all zeros.
  const std::vector<std::uint32_t> idx{1, 4, 9};
  EXPECT_EQ(step_values(*ep, idx), (std::vector<double>{0.0, 0.0, 0.0}));

  // One push must land exactly as fenced::apply_push lands it locally.
  const std::vector<double> val{0.5, -1.25, 2.0};
  const double gscale = 0.375, sstep = 0.0625;
  std::vector<double> expected(16, 0.0);
  distributed::fenced::apply_push(idx, val, gscale, sstep,
                                  objectives::Regularization::none(),
                                  expected);
  push(*ep, gscale, sstep, idx, val);
  const std::vector<double> got = step_values(*ep, idx);
  for (std::size_t j = 0; j < idx.size(); ++j) {
    EXPECT_EQ(got[j], expected[idx[j]]) << "coordinate " << idx[j];
  }
  EXPECT_EQ(host.pushes(), 1u);
  EXPECT_EQ(host.model(), expected);
}

TEST(PsHost, RejectsANegativeOrNonFiniteStrength) {
  using objectives::Regularization;
  for (const Regularization& reg :
       {Regularization::l1(-1.0),
        Regularization::l1(std::numeric_limits<double>::quiet_NaN()),
        Regularization::l2(std::numeric_limits<double>::infinity())}) {
    EXPECT_THROW(service::PsHost(4, "tcp://127.0.0.1:0", reg),
                 std::invalid_argument)
        << reg.name() << "(" << reg.eta << ")";
  }
}

TEST(PsHost, ModelOutlivesWorkerConnections) {
  service::PsHost host(/*dim=*/4, "tcp://127.0.0.1:0");
  {
    auto first = net::connect(host.address());
    first->set_io_timeout(5000);
    push(*first, 1.0, 0.5, {2}, {1.0});  // w[2] -= 0.5
    first->close();
  }
  auto second = net::connect(host.address());
  second->set_io_timeout(5000);
  EXPECT_EQ(step_values(*second, {2}), (std::vector<double>{-0.5}));
  EXPECT_EQ(host.pushes(), 1u);
}

TEST(PsHost, OutOfRangePushCoordinateCostsOnlyThatConnection) {
  service::PsHost host(/*dim=*/4, "tcp://127.0.0.1:0");
  // A coordinate past the model, and an nnz of 2^40 that no payload backs
  // (trusted, it would size a multi-terabyte buffer and take the host down).
  wire::Packer bad_coordinate, bad_count;
  bad_coordinate.f64(1.0).f64(1.0).u64(1).u32(99).f64(1.0);
  bad_count.f64(1.0).f64(1.0).u64(std::uint64_t{1} << 40).u32(0).f64(1.0);
  for (const std::string_view payload :
       {bad_coordinate.view(), bad_count.view()}) {
    auto bad = net::connect(host.address());
    bad->set_io_timeout(5000);
    net::write_frame(*bad, wire::kPush, payload);
    // The host drops the connection without acking.
    EXPECT_THROW((void)net::read_frame(*bad), net::TransportError);
  }
  auto good = net::connect(host.address());
  good->set_io_timeout(5000);
  EXPECT_EQ(step_values(*good, {0}), (std::vector<double>{0.0}));
  EXPECT_EQ(host.pushes(), 0u);
}

TEST(WireUnpacker, CountIsBoundedByTheRemainingPayload) {
  wire::Packer p;
  p.u32(2).u32(7).f64(0.5).u32(8).f64(1.5);
  {
    wire::Unpacker u(p.view());
    EXPECT_EQ(u.count(sizeof(std::uint32_t) + sizeof(double)), 2u);
  }
  {
    // Three 12-byte elements do not fit in the 24 bytes that follow.
    wire::Unpacker u(p.view());
    EXPECT_THROW((void)u.count(13), net::TransportError);
  }
  try {
    wire::Packer huge;
    huge.u64(std::uint64_t{1} << 40).u32(0);
    wire::Unpacker u(huge.view());
    (void)u.count<std::uint64_t>(sizeof(std::uint32_t));
    FAIL() << "expected a protocol error";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kProtocol);
  }
  {
    // A zero count needs no payload; a truncated count field is still the
    // ordinary short-read error.
    wire::Packer zero;
    zero.u32(0);
    wire::Unpacker u(zero.view());
    EXPECT_EQ(u.count(8), 0u);
    EXPECT_TRUE(u.done());
    wire::Unpacker short_field(std::string_view("\x01\x00", 2));
    EXPECT_THROW((void)short_field.count(8), net::TransportError);
  }
}

TEST(PsHost, MidPushConnectionDropLeavesNoHalfAppliedUpdate) {
  service::PsHost host(/*dim=*/4, "tcp://127.0.0.1:0");
  {
    // A worker dies mid-push: hand-build the full kPush wire bytes, deliver
    // the header plus half the payload, and vanish. The host parses a push
    // only from a complete frame, so the torn one must cost nothing — not
    // one coordinate of it may land.
    auto torn = net::connect(host.address());
    torn->set_io_timeout(5000);
    wire::Packer req;
    req.f64(1.0).f64(0.5).u64(2).u32(0).f64(1.0).u32(1).f64(1.0);
    const std::string payload = std::move(req).take();
    std::string bytes(16 + payload.size(), '\0');
    const std::uint32_t magic = net::kFrameMagic;
    const std::uint32_t type = wire::kPush;
    const std::uint64_t length = payload.size();
    std::memcpy(bytes.data(), &magic, 4);
    std::memcpy(bytes.data() + 4, &type, 4);
    std::memcpy(bytes.data() + 8, &length, 8);
    std::memcpy(bytes.data() + 16, payload.data(), payload.size());
    torn->send_bytes(bytes.data(), 16 + payload.size() / 2);
    torn->close();
  }
  // The host stays serviceable: the next worker's push is the FIRST applied
  // update, and the model is exactly that one push — nothing half-applied.
  auto good = net::connect(host.address());
  good->set_io_timeout(5000);
  const std::vector<std::uint32_t> idx{2};
  const std::vector<double> val{1.0};
  push(*good, 1.0, 0.5, idx, val);
  std::vector<double> expected(4, 0.0);
  distributed::fenced::apply_push(idx, val, 1.0, 0.5,
                                  objectives::Regularization::none(),
                                  expected);
  EXPECT_EQ(host.pushes(), 1u);
  EXPECT_EQ(host.model(), expected);
  EXPECT_EQ(step_values(*good, {0, 1}), (std::vector<double>{0.0, 0.0}));
}

TEST(PsHostProtocol, ServeStopRoundTripThroughTheVerbs) {
  service::TrainingService svc{service::TrainingService::Options{}};
  service::ProtocolHandler handler(svc);

  EXPECT_EQ(handler.handle_line("ps_stop"), "err no hosted ps");

  const std::string reply = handler.handle_line("ps_serve dim=8");
  ASSERT_EQ(reply.rfind("ok addr=", 0), 0u) << reply;
  ASSERT_NE(reply.find(" dim=8"), std::string::npos) << reply;
  const std::string addr =
      reply.substr(8, reply.find(' ', 8) - 8);  // between addr= and " dim"

  // Second serve is refused while one is running.
  EXPECT_EQ(handler.handle_line("ps_serve dim=8").rfind("err ", 0), 0u);

  // A worker can train against the daemon-hosted model.
  {
    auto ep = net::connect(addr);
    ep->set_io_timeout(5000);
    push(*ep, 2.0, 0.25, {3}, {1.0});
    push(*ep, 2.0, 0.25, {3}, {1.0});
    EXPECT_EQ(step_values(*ep, {3}), (std::vector<double>{-1.0}));
  }
  EXPECT_EQ(handler.handle_line("ps_stop"), "ok pushes=2");
  EXPECT_EQ(handler.handle_line("ps_stop"), "err no hosted ps");

  // Bad arguments are typed errors, not crashes.
  EXPECT_EQ(handler.handle_line("ps_serve dim=0"),
            "err ps_serve requires dim > 0");
  EXPECT_EQ(handler.handle_line("ps_serve").rfind("err ", 0), 0u);
  EXPECT_EQ(handler.handle_line("ps_serve dim=-1").rfind("err bad integer", 0),
            0u);
}

TEST(PsHostProtocol, ShutdownStopsTheHostedPs) {
  service::TrainingService svc{service::TrainingService::Options{}};
  service::ProtocolHandler handler(svc);
  ASSERT_EQ(handler.handle_line("ps_serve dim=2").rfind("ok ", 0), 0u);
  EXPECT_EQ(handler.handle_line("shutdown"), "ok bye");
  EXPECT_TRUE(handler.shutdown_requested());
  EXPECT_EQ(handler.ps_host(), nullptr);
}

}  // namespace
}  // namespace isasgd
