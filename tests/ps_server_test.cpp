// The process group's parameter server (distributed/ps_server.hpp), driven
// in-process over tcp and shm: the server runs on a thread, and the test
// plays the controller and the workers with hand-packed frames. It pins the
// apply arithmetic, the exactly-once answer to a retransmitted push, every
// check that turns a malformed frame into a kProtocol error, and the end of
// the run when the controller's connection closes mid-epoch.
#include "distributed/ps_server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "distributed/cluster.hpp"
#include "distributed/fenced.hpp"
#include "distributed/group.hpp"
#include "distributed/ps_wire.hpp"
#include "net/transport.hpp"
#include "objectives/objective.hpp"
#include "solvers/options.hpp"

namespace isasgd::distributed {
namespace {

constexpr std::size_t kDim = 8;
constexpr int kIoTimeoutMs = 10000;

std::string listen_address(const std::string& transport) {
  if (transport == "tcp") return "tcp://127.0.0.1:0";
  static int groups = 0;
  return "shm:///tmp/isasgd_ps_server_test_" + std::to_string(::getpid()) +
         "_" + std::to_string(groups++);
}

/// A parameter server on a thread, serving a group of k workers under
/// `spec` (fault-free by default) on a zero model of kDim coordinates, and
/// the test's connections to it.
class Server {
 public:
  Server(const std::string& transport, std::size_t k, ClusterSpec spec = {})
      : spec_(std::move(spec)) {
    std::unique_ptr<net::Listener> listener =
        net::listen(listen_address(transport));
    address_ = listener->address();
    done_ = std::async(std::launch::async,
                       [this, k, listener = std::move(listener)]() mutable {
                         serve_parameter_server(std::move(listener), k, kDim,
                                                options_, spec_);
                       });
  }

  /// Closes the test's side first, so a server still waiting on it reaches
  /// its deadlines; done_ then joins the thread.
  ~Server() {
    for (const auto& peer : peers_) peer->close();
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Connects and says hello as the controller or as worker `rank`.
  net::Endpoint& join(std::uint32_t role, std::uint32_t rank = 0) {
    peers_.push_back(net::connect(address_, kIoTimeoutMs));
    peers_.back()->set_io_timeout(kIoTimeoutMs);
    send_hello(*peers_.back(), role, rank, 0);
    return *peers_.back();
  }

  /// The server must have finished its run without an error.
  void expect_stopped() { done_.get(); }

  /// The server must stop within `within` with a `kind` error whose
  /// message holds `check`: the words of the check that must fire.
  void expect_error(net::TransportError::Kind kind, std::string_view check,
                    std::chrono::seconds within = std::chrono::seconds(30)) {
    if (done_.wait_for(within) != std::future_status::ready) {
      ADD_FAILURE() << "the server is still serving after " << within.count()
                    << " s";
      for (const auto& peer : peers_) peer->close();
    }
    try {
      done_.get();
      ADD_FAILURE() << "the server finished without an error";
    } catch (const net::TransportError& e) {
      EXPECT_EQ(e.kind(), kind) << e.what();
      EXPECT_NE(std::string_view(e.what()).find(check), std::string_view::npos)
          << e.what();
    }
  }

  /// The server must stop on the frame just sent, with a kProtocol error.
  void expect_protocol_error(std::string_view check) {
    expect_error(net::TransportError::Kind::kProtocol, check);
  }

 private:
  solvers::SolverOptions options_;
  ClusterSpec spec_;
  std::string address_;
  std::vector<std::unique_ptr<net::Endpoint>> peers_;
  std::future<void> done_;
};

void send(net::Endpoint& ep, std::uint32_t type, wire::Packer frame) {
  net::write_frame(ep, type, frame);
}

wire::Packer step_frame(std::uint64_t seq,
                        const std::vector<std::uint32_t>& cols) {
  wire::Packer p;
  p.u64(seq).u32(static_cast<std::uint32_t>(cols.size()));
  for (const std::uint32_t c : cols) p.u32(c);
  return p;
}

wire::Packer push_step_frame(std::uint64_t seq, std::uint32_t walk,
                             double gradient_scale, double scaled_step,
                             const std::vector<double>& val,
                             const std::vector<std::uint32_t>& next_cols) {
  wire::Packer p;
  p.u64(seq).u32(walk).f64(gradient_scale).f64(scaled_step);
  p.u32(static_cast<std::uint32_t>(val.size()));
  for (const double v : val) p.f64(v);
  p.u32(static_cast<std::uint32_t>(next_cols.size()));
  for (const std::uint32_t c : next_cols) p.u32(c);
  return p;
}

wire::Packer push_frame(std::uint64_t seq, std::uint32_t walk,
                        double gradient_scale, double scaled_step,
                        const std::vector<std::uint32_t>& idx,
                        const std::vector<double>& val) {
  wire::Packer p;
  p.u64(seq).u32(walk).f64(gradient_scale).f64(scaled_step);
  p.u32(static_cast<std::uint32_t>(idx.size()));
  for (std::size_t j = 0; j < idx.size(); ++j) p.u32(idx[j]).f64(val[j]);
  return p;
}

/// Reads a kStepReply to request `seq` and returns its `n` values.
std::vector<double> step_reply(net::Endpoint& ep, std::uint64_t seq,
                               std::size_t n) {
  const net::Frame f = net::expect_frame(ep, wire::kStepReply, "step reply");
  wire::Unpacker u(f.payload);
  EXPECT_EQ(u.u64(), seq);
  std::vector<double> values(n);
  for (double& v : values) v = u.f64();
  EXPECT_TRUE(u.done());
  return values;
}

void expect_push_ack(net::Endpoint& ep, std::uint64_t seq) {
  const net::Frame f = net::expect_frame(ep, wire::kPushAck, "push ack");
  wire::Unpacker u(f.payload);
  EXPECT_EQ(u.u64(), seq);
}

class PsServerTest : public ::testing::TestWithParam<std::string> {};

/// One worker's epoch of two pushes, the second sent twice when
/// `retransmit` is set, ended by a fence that stops the run. The fence must
/// ship the model fenced::apply_push makes of the two pushes on zeros.
void serve_one_epoch(const std::string& transport, bool retransmit) {
  Server server(transport, /*k=*/1);
  net::Endpoint& controller = server.join(wire::kRoleController);
  net::Endpoint& worker = server.join(wire::kRoleWorker, 0);
  const std::vector<std::uint32_t> first{1, 4, 6}, second{0, 4};
  const std::vector<double> first_val{0.5, -1.25, 2.0}, second_val{1.5, -0.75};
  std::vector<double> expected(kDim, 0.0);
  const auto none = objectives::Regularization::none();

  send(worker, wire::kStep, step_frame(1, first));
  EXPECT_EQ(step_reply(worker, 1, first.size()),
            (std::vector<double>{0.0, 0.0, 0.0}));

  send(worker, wire::kPushStep,
       push_step_frame(2, 0, 0.375, 0.0625, first_val, second));
  fenced::apply_push(first, first_val, 0.375, 0.0625, none, expected);
  EXPECT_EQ(step_reply(worker, 2, second.size()),
            (std::vector<double>{expected[0], expected[4]}));

  send(worker, wire::kPush, push_frame(3, 0, -0.5, 0.125, second, second_val));
  fenced::apply_push(second, second_val, -0.5, 0.125, none, expected);
  expect_push_ack(worker, 3);
  if (retransmit) {
    // The same request again, as a worker whose ack was lost sends it: the
    // server answers from its cache and applies nothing.
    send(worker, wire::kPush,
         push_frame(3, 0, -0.5, 0.125, second, second_val));
    expect_push_ack(worker, 3);
  }

  wire::Packer end;
  end.u64(4).u64(/*retries=*/0);
  send(worker, wire::kEpochEnd, std::move(end));

  const net::Frame fence = net::expect_frame(controller, wire::kFence, "fence");
  wire::Unpacker u(fence.payload);
  EXPECT_EQ(u.u64(), 1u);  // epoch
  EXPECT_EQ(u.u64(), 2u);  // applied
  EXPECT_EQ(u.u64(), 2u);  // messages
  (void)u.u64();           // bytes
  EXPECT_EQ(u.u64(), 0u);  // retries
  ASSERT_EQ(u.u32(), 1u);  // nranks
  EXPECT_EQ(u.u32(), 1u);  // rank 0 alive
  ASSERT_EQ(u.u32(), 1u);  // nwalks
  EXPECT_EQ(u.u64(), 2u);  // walk 0's applied draws
  ASSERT_EQ(u.u64(), kDim);
  std::vector<double> w(kDim);
  u.raw(w.data(), kDim * sizeof(double));
  EXPECT_EQ(w, expected);

  wire::Packer stop;
  stop.u32(/*continue=*/0).u32(/*nranks=*/1).u32(/*alive=*/1).u32(0);
  send(controller, wire::kFenceReply, std::move(stop));
  const net::Frame go = net::expect_frame(worker, wire::kEpochGo, "epoch go");
  wire::Unpacker g(go.payload);
  EXPECT_EQ(g.u64(), 4u);  // answers the kEpochEnd
  EXPECT_EQ(g.u32(), 0u);  // stop
  server.expect_stopped();
}

TEST_P(PsServerTest, AppliesPushesWithTheSharedApplyAndShipsThemAtTheFence) {
  serve_one_epoch(GetParam(), /*retransmit=*/false);
}

TEST_P(PsServerTest, AnswersARetransmittedPushFromItsCacheAndAppliesItOnce) {
  serve_one_epoch(GetParam(), /*retransmit=*/true);
}

/// One worker's requests that break the protocol; each must end the run at
/// the check whose message holds `check`.
struct BadInput {
  const char* name;
  const char* check;
  void (*play)(net::Endpoint& worker);
};

const BadInput kBadInputs[] = {
    {"a step coordinate past the model", "out of range (dim",
     [](net::Endpoint& w) {
       send(w, wire::kStep, step_frame(1, {2, kDim}));
     }},
    {"a column count its payload cannot hold", "payload bytes left",
     [](net::Endpoint& w) {
       wire::Packer p;
       p.u64(1).u32(/*ncols=*/1000).u32(0);
       send(w, wire::kStep, std::move(p));
     }},
    {"a push with fewer values than its step has columns", "-column step",
     [](net::Endpoint& w) {
       send(w, wire::kStep, step_frame(1, {0, 1}));
       (void)step_reply(w, 1, 2);
       send(w, wire::kPushStep, push_step_frame(2, 0, 1.0, 0.5, {1.0}, {2}));
     }},
    {"a kPush whose coordinates differ from its step's",
     "coordinates differ",
     [](net::Endpoint& w) {
       send(w, wire::kStep, step_frame(1, {0, 1}));
       (void)step_reply(w, 1, 2);
       send(w, wire::kPush, push_frame(2, 0, 1.0, 0.5, {0, 2}, {1.0, 1.0}));
     }},
    {"a sequence number that skips ahead", "jumped from seq",
     [](net::Endpoint& w) {
       send(w, wire::kStep, step_frame(2, {0}));
     }},
    {"a push for a walk past k", "out-of-range walk",
     [](net::Endpoint& w) {
       send(w, wire::kStep, step_frame(1, {0}));
       (void)step_reply(w, 1, 1);
       send(w, wire::kPushStep,
            push_step_frame(2, /*walk=*/1, 1.0, 0.5, {1.0}, {1}));
     }},
};

TEST_P(PsServerTest, AMalformedRequestEndsTheRunWithAProtocolError) {
  for (const BadInput& in : kBadInputs) {
    SCOPED_TRACE(in.name);
    Server server(GetParam(), /*k=*/1);
    server.join(wire::kRoleController);
    in.play(server.join(wire::kRoleWorker, 0));
    server.expect_protocol_error(in.check);
  }
}

TEST_P(PsServerTest, ADuplicateOrOutOfRangeRankAtAcceptIsAProtocolError) {
  for (const std::uint32_t second_rank : {0u, 2u}) {
    SCOPED_TRACE(second_rank);
    Server server(GetParam(), /*k=*/2);
    server.join(wire::kRoleController);
    server.join(wire::kRoleWorker, 0);
    server.join(wire::kRoleWorker, second_rank);
    server.expect_protocol_error("duplicate or out-of-range worker rank");
  }
}

TEST_P(PsServerTest, AClosedControllerEndsTheRunWhileAWorkerIsAwaited) {
  // The worker's connection closes after one answered step, so the server
  // of a fault-tolerant group (a scripted crash past the run: nothing
  // crashes) waits up to a minute for it to reconnect; the controller's
  // close must end that wait at once.
  ClusterSpec spec;
  spec.fault.crash_epoch = 1000;
  spec.recovery.liveness_timeout_ms = 60'000;
  Server server(GetParam(), /*k=*/1, spec);
  net::Endpoint& controller = server.join(wire::kRoleController);
  net::Endpoint& worker = server.join(wire::kRoleWorker, 0);
  send(worker, wire::kStep, step_frame(1, {0, 3}));
  EXPECT_EQ(step_reply(worker, 1, 2), (std::vector<double>{0.0, 0.0}));
  worker.close();
  controller.close();
  server.expect_error(net::TransportError::Kind::kClosed, "peer closed",
                      std::chrono::seconds(2));
}

TEST_P(PsServerTest, AWorkerThatClosesEndsAFaultFreeRunAtOnce) {
  // No worker of a fault-free group reconnects, so a close after one
  // answered step means the worker died: with the controller still open,
  // the server must end the run naming the rank, not wait out the group's
  // 120 s I/O deadline.
  Server server(GetParam(), /*k=*/1);
  server.join(wire::kRoleController);
  net::Endpoint& worker = server.join(wire::kRoleWorker, 0);
  send(worker, wire::kStep, step_frame(1, {0, 3}));
  EXPECT_EQ(step_reply(worker, 1, 2), (std::vector<double>{0.0, 0.0}));
  worker.close();
  server.expect_error(net::TransportError::Kind::kClosed, "worker rank 0",
                      std::chrono::seconds(2));
}

INSTANTIATE_TEST_SUITE_P(Transports, PsServerTest,
                         ::testing::Values(std::string("shm"),
                                           std::string("tcp")),
                         [](const auto& info) { return info.param; });

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

}  // namespace
}  // namespace isasgd::distributed
