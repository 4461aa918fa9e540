// Fault-injection layer conformance: FaultPlan purity and determinism, the
// per-action behavior of FaultyEndpoint over BOTH backends (tcp and shm),
// identical seed ⇒ identical injected-event log, and the shm peer-death
// probe (a reader blocked on a ring whose peer process died gets a typed
// kClosed instead of spinning forever — including while the peer is an
// unreaped zombie, which is what a crashed PS worker looks like until the
// controller reaps it at a fence).
#include "net/fault.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hpp"

namespace isasgd::net {
namespace {

std::string temp_prefix(const char* tag) {
  return "/tmp/isasgd_fault_test_" + std::string(tag) + "_" +
         std::to_string(::getpid());
}

std::string listen_address(const std::string& backend, const char* tag) {
  if (backend == "tcp") return "tcp://127.0.0.1:0";
  return "shm://" + temp_prefix(tag);
}

struct Pair {
  std::unique_ptr<Listener> listener;
  std::unique_ptr<Endpoint> server;
  std::unique_ptr<Endpoint> client;
};

Pair make_pair_over(const std::string& backend, const char* tag) {
  Pair pair;
  pair.listener = listen(listen_address(backend, tag));
  std::thread connector(
      [&] { pair.client = connect(pair.listener->address(), 5000); });
  pair.listener->set_accept_timeout(5000);
  pair.server = pair.listener->accept();
  connector.join();
  return pair;
}

// ---- FaultPlan: pure, deterministic, validated ------------------------------

TEST(FaultPlan, DecideIsAPureFunctionOfSeedStreamFrame) {
  FaultSpec spec;
  spec.seed = 42;
  spec.drop_rate = 0.2;
  spec.delay_rate = 0.2;
  spec.torn_rate = 0.1;
  spec.reset_rate = 0.1;
  const FaultPlan plan(spec);
  const FaultPlan twin(spec);
  // Any order, any repetition, two instances: always the same decision.
  for (std::uint64_t frame = 100; frame-- > 0;) {
    for (std::uint64_t stream : {std::uint64_t{0}, std::uint64_t{7},
                                 FaultPlan::stream_id(1, 3, 2)}) {
      const FaultDecision a = plan.decide(stream, frame);
      const FaultDecision b = plan.decide(stream, frame);
      const FaultDecision c = twin.decide(stream, frame);
      EXPECT_EQ(a.action, b.action);
      EXPECT_EQ(a.action, c.action);
      EXPECT_EQ(a.delay_ms, c.delay_ms);
    }
  }
}

TEST(FaultPlan, DifferentSeedsGiveDifferentSchedules) {
  FaultSpec spec;
  spec.drop_rate = 0.5;
  spec.seed = 1;
  const FaultPlan a(spec);
  spec.seed = 2;
  const FaultPlan b(spec);
  int disagreements = 0;
  for (std::uint64_t f = 0; f < 200; ++f) {
    if (a.decide(0, f).action != b.decide(0, f).action) ++disagreements;
  }
  EXPECT_GT(disagreements, 0);
}

TEST(FaultPlan, RatesPartitionTheFrames) {
  FaultSpec spec;
  spec.seed = 9;
  spec.drop_rate = 0.25;
  spec.delay_rate = 0.25;
  spec.torn_rate = 0.25;
  spec.reset_rate = 0.25;
  const FaultPlan plan(spec);
  int counts[5] = {0, 0, 0, 0, 0};
  constexpr int kFrames = 4000;
  for (std::uint64_t f = 0; f < kFrames; ++f) {
    const FaultDecision d = plan.decide(3, f);
    ++counts[static_cast<int>(d.action)];
    if (d.action == FaultAction::kDelay) {
      EXPECT_GE(d.delay_ms, 1u);
      EXPECT_LE(d.delay_ms, spec.max_delay_ms);
    }
  }
  EXPECT_EQ(counts[static_cast<int>(FaultAction::kNone)], 0);
  for (const FaultAction a : {FaultAction::kDrop, FaultAction::kDelay,
                              FaultAction::kTorn, FaultAction::kReset}) {
    const double share =
        static_cast<double>(counts[static_cast<int>(a)]) / kFrames;
    EXPECT_NEAR(share, 0.25, 0.05) << fault_action_name(a);
  }
}

TEST(FaultPlan, FirstFaultyFrameShieldsTheSetupPrefix) {
  FaultSpec spec;
  spec.seed = 5;
  spec.drop_rate = 1.0;
  spec.first_faulty_frame = 10;
  const FaultPlan plan(spec);
  for (std::uint64_t f = 0; f < 10; ++f) {
    EXPECT_EQ(plan.decide(0, f).action, FaultAction::kNone) << f;
  }
  EXPECT_EQ(plan.decide(0, 10).action, FaultAction::kDrop);
}

TEST(FaultSpec, ValidationNamesTheOffendingField) {
  const auto expect_throw = [](FaultSpec spec, const char* field) {
    try {
      spec.validate();
      FAIL() << field << " must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  FaultSpec spec;
  spec.drop_rate = -0.1;
  expect_throw(spec, "drop_rate");
  spec = {};
  spec.delay_rate = 1.5;
  expect_throw(spec, "delay_rate");
  spec = {};
  spec.drop_rate = 0.6;
  spec.reset_rate = 0.6;
  expect_throw(spec, "rate");  // sum > 1
  spec = {};
  spec.delay_rate = 0.1;
  spec.max_delay_ms = 0;
  expect_throw(spec, "max_delay_ms");
}

// ---- FaultyEndpoint over both backends --------------------------------------

class FaultyEndpointSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultyEndpointSuite, DropSwallowsTheFrameThenDeliveryResumes) {
  Pair pair = make_pair_over(GetParam(), "drop");
  FaultSpec spec;
  spec.seed = 3;
  spec.drop_rate = 1.0;
  spec.max_faults_per_stream = 1;  // only the first frame is eaten
  auto log = std::make_shared<FaultLog>();
  auto faulty = wrap_faulty(std::move(pair.client),
                            std::make_shared<FaultPlan>(spec), 0, log);
  write_frame(*faulty, 1, "dropped");
  pair.server->set_io_timeout(100);
  try {
    (void)read_frame(*pair.server);
    FAIL() << "dropped frame must never arrive";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kTimeout);
  }
  pair.server->set_io_timeout(-1);
  std::thread sender([&] { write_frame(*faulty, 2, "delivered"); });
  const Frame frame = read_frame(*pair.server);
  sender.join();
  EXPECT_EQ(frame.type, 2u);
  EXPECT_EQ(frame.payload, "delivered");
  const auto events = log->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].action, FaultAction::kDrop);
  EXPECT_EQ(events[0].frame, 0u);
}

TEST_P(FaultyEndpointSuite, DelayedFrameStillArrivesIntact) {
  Pair pair = make_pair_over(GetParam(), "delay");
  FaultSpec spec;
  spec.seed = 4;
  spec.delay_rate = 1.0;
  spec.max_delay_ms = 3;
  auto log = std::make_shared<FaultLog>();
  auto faulty = wrap_faulty(std::move(pair.client),
                            std::make_shared<FaultPlan>(spec), 0, log);
  std::thread sender([&] { write_frame(*faulty, 8, "late but whole"); });
  const Frame frame = read_frame(*pair.server);
  sender.join();
  EXPECT_EQ(frame.type, 8u);
  EXPECT_EQ(frame.payload, "late but whole");
  const auto events = log->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].action, FaultAction::kDelay);
  EXPECT_GE(events[0].delay_ms, 1u);
  EXPECT_LE(events[0].delay_ms, 3u);
}

TEST_P(FaultyEndpointSuite, TornWriteIsKClosedOnBothSides) {
  Pair pair = make_pair_over(GetParam(), "torn");
  FaultSpec spec;
  spec.seed = 6;
  spec.torn_rate = 1.0;
  auto faulty = wrap_faulty(std::move(pair.client),
                            std::make_shared<FaultPlan>(spec), 0);
  std::thread sender([&] {
    try {
      write_frame(*faulty, 9, std::string(1000, 'x'));
      ADD_FAILURE() << "torn write must throw at the writer";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind(), TransportError::Kind::kClosed);
    }
    // The endpoint is dead from here on: every further send is kClosed.
    try {
      write_frame(*faulty, 10, "after death");
      ADD_FAILURE() << "dead endpoint must stay dead";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind(), TransportError::Kind::kClosed);
    }
  });
  try {
    (void)read_frame(*pair.server);
    FAIL() << "the reader must see a torn frame";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kClosed);
    EXPECT_NE(std::string(e.what()).find("torn frame"), std::string::npos)
        << e.what();
  }
  sender.join();
}

TEST_P(FaultyEndpointSuite, ResetClosesBeforeAnyBytes) {
  Pair pair = make_pair_over(GetParam(), "reset");
  FaultSpec spec;
  spec.seed = 11;
  spec.reset_rate = 1.0;
  auto faulty = wrap_faulty(std::move(pair.client),
                            std::make_shared<FaultPlan>(spec), 0);
  try {
    write_frame(*faulty, 1, "never sent");
    FAIL() << "reset must throw at the writer";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kClosed);
  }
  // Nothing of the frame reached the wire; the peer sees a clean close.
  try {
    (void)read_frame(*pair.server);
    FAIL() << "the reader must see the close";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kClosed);
    EXPECT_EQ(std::string(e.what()).find("torn frame"), std::string::npos)
        << e.what();
  }
}

TEST_P(FaultyEndpointSuite, DisabledSpecIsAPassThrough) {
  Pair pair = make_pair_over(GetParam(), "clean");
  auto wrapped = wrap_faulty(std::move(pair.client),
                             std::make_shared<FaultPlan>(FaultSpec{}), 0);
  std::thread sender([&] { write_frame(*wrapped, 4, "clean"); });
  const Frame frame = read_frame(*pair.server);
  sender.join();
  EXPECT_EQ(frame.payload, "clean");
}

TEST_P(FaultyEndpointSuite, IdenticalSeedGivesIdenticalFaultLog) {
  // The replayability contract of the whole layer: rerunning the same
  // scripted exchange under the same spec injects the same events at the
  // same frames, and exactly the un-dropped frames arrive.
  FaultSpec spec;
  spec.seed = 77;
  spec.drop_rate = 0.3;
  spec.delay_rate = 0.2;
  spec.max_delay_ms = 2;
  constexpr int kFrames = 40;
  std::vector<FaultEvent> first_log;
  std::vector<std::uint32_t> first_arrivals;
  for (int run = 0; run < 2; ++run) {
    Pair pair = make_pair_over(GetParam(), run == 0 ? "log0" : "log1");
    auto log = std::make_shared<FaultLog>();
    auto faulty =
        wrap_faulty(std::move(pair.client), std::make_shared<FaultPlan>(spec),
                    FaultPlan::stream_id(0, 2, 0), log);
    std::thread sender([&] {
      for (int i = 0; i < kFrames; ++i) {
        write_frame(*faulty, static_cast<std::uint32_t>(i),
                    std::to_string(i));
      }
      faulty->close();
    });
    std::vector<std::uint32_t> arrivals;
    try {
      for (;;) arrivals.push_back(read_frame(*pair.server).type);
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind(), TransportError::Kind::kClosed);
    }
    sender.join();
    const auto events = log->events();
    EXPECT_GT(events.size(), 0u);
    // Arrivals are exactly the frames the log does not mark dropped.
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      bool dropped = false;
      for (const FaultEvent& ev : events) {
        if (ev.frame == i && ev.action == FaultAction::kDrop) dropped = true;
      }
      if (!dropped) expected.push_back(i);
    }
    EXPECT_EQ(arrivals, expected);
    if (run == 0) {
      first_log = events;
      first_arrivals = arrivals;
    } else {
      EXPECT_EQ(events, first_log);
      EXPECT_EQ(arrivals, first_arrivals);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, FaultyEndpointSuite,
                         ::testing::Values(std::string("tcp"),
                                           std::string("shm")),
                         [](const auto& info) { return info.param; });

// ---- shm peer-death detection ----------------------------------------------

TEST(ShmPeerDeath, ReaderUnblocksWithKClosedWhenPeerDiesMidFrame) {
  // The child connects, sends half a frame header, and dies without closing
  // — exactly what a crashed worker leaves behind. The parent does NOT reap
  // it before reading, so the probe must see through the zombie state.
  auto listener = listen("shm://" + temp_prefix("peerdeath"));
  const std::string address = listener->address();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      auto child = connect(address, 5000);
      char half[8];
      std::memset(half, 0, sizeof(half));
      child->send_bytes(half, sizeof(half));
      (void)child.release();  // leak: the ring must say nothing of the death
    } catch (...) {
      ::_exit(1);
    }
    ::_exit(0);
  }
  listener->set_accept_timeout(5000);
  auto server = listener->accept();
  server->set_io_timeout(10000);  // the probe must fire long before this
  try {
    (void)read_frame(*server);
    FAIL() << "reader must detect the dead peer";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kClosed);
    EXPECT_NE(std::string(e.what()).find("peer process died"),
              std::string::npos)
        << e.what();
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(ShmPeerDeath, WriterUnblocksWhenPeerDiesWithFullRing) {
  // The child stops draining, so the parent's bulk send fills the 1 MB ring
  // and blocks; when the child then dies the send loop must throw kClosed
  // instead of spinning until the io timeout.
  auto listener = listen("shm://" + temp_prefix("peerfull"));
  const std::string address = listener->address();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      auto child = connect(address, 5000);
      // Read one byte as a handshake, then die without draining the rest.
      char byte = 0;
      child->recv_bytes(&byte, 1);
      (void)child.release();  // leak: no close flag, only the dead pid
    } catch (...) {
      ::_exit(1);
    }
    ::_exit(0);
  }
  listener->set_accept_timeout(5000);
  auto server = listener->accept();
  server->set_io_timeout(10000);
  const std::string big(std::size_t{4} << 20, 'y');  // 4 MB >> ring capacity
  try {
    server->send_bytes(big.data(), big.size());
    FAIL() << "writer must detect the dead peer";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kClosed);
    EXPECT_NE(std::string(e.what()).find("peer process died"),
              std::string::npos)
        << e.what();
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(ShmPeerDeath, KilledServerLeavesNoRingFile) {
  // A connection's ring file goes as soon as both sides have mapped it, so
  // a server that is SIGKILLed (as ChildReaper kills a group) leaves none
  // behind. The listener's 8-byte control file stays: the listener needs it
  // for as long as it accepts.
  const std::string prefix = temp_prefix("killed");
  int accepted[2];
  ASSERT_EQ(::pipe(accepted), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      auto listener = listen("shm://" + prefix);
      listener->set_accept_timeout(5000);
      auto server = listener->accept();
      const char byte = 1;
      if (::write(accepted[1], &byte, 1) != 1) ::_exit(1);
      while (true) ::pause();  // killed here, endpoint and listener live
    } catch (...) {
      ::_exit(1);
    }
  }
  ::close(accepted[1]);
  auto client = connect("shm://" + prefix, 5000);
  char byte = 0;
  ASSERT_EQ(::read(accepted[0], &byte, 1), 1);
  ::close(accepted[0]);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  struct stat st {};
  EXPECT_NE(::stat((prefix + ".0").c_str(), &st), 0)
      << "the ring file outlived the killed server";
  ASSERT_EQ(::stat((prefix + ".ctl").c_str(), &st), 0);
  EXPECT_EQ(st.st_size, 8);
  ::unlink((prefix + ".ctl").c_str());
  ::unlink((prefix + ".0").c_str());
}

}  // namespace
}  // namespace isasgd::net
