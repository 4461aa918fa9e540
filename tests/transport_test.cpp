// Transport conformance suite: every property the distributed runtime relies
// on, asserted for BOTH backends (tcp and shm) through the same test body.
// Partial transfers, EINTR interruption, torn and oversized frames, typed
// timeouts, and byte-for-byte parity between the backends.
#include "net/transport.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace isasgd::net {
namespace {

std::string temp_prefix(const char* tag) {
  return "/tmp/isasgd_transport_test_" + std::string(tag) + "_" +
         std::to_string(::getpid());
}

/// A listener address per backend. tcp binds an ephemeral port; shm uses a
/// per-test, per-process file prefix.
std::string listen_address(const std::string& backend, const char* tag) {
  if (backend == "tcp") return "tcp://127.0.0.1:0";
  return "shm://" + temp_prefix(tag);
}

/// Connected endpoint pair over `backend`: .first is the accepted (server)
/// side, .second the connecting (client) side.
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

std::string random_payload(std::size_t size, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::string payload(size, '\0');
  for (char& c : payload) c = static_cast<char>(rng() & 0xff);
  return payload;
}

class TransportSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(TransportSuite, FrameRoundTripPreservesTypeAndPayload) {
  Pair pair = make_pair_over(GetParam(), "roundtrip");
  const std::string payload = random_payload(4096, 1);
  std::thread sender([&] { write_frame(*pair.client, 7, payload); });
  const Frame frame = read_frame(*pair.server);
  sender.join();
  EXPECT_EQ(frame.type, 7u);
  EXPECT_EQ(frame.payload, payload);
}

TEST_P(TransportSuite, EmptyPayloadFrame) {
  Pair pair = make_pair_over(GetParam(), "empty");
  std::thread sender([&] { write_frame(*pair.client, 42, {}); });
  const Frame frame = read_frame(*pair.server);
  sender.join();
  EXPECT_EQ(frame.type, 42u);
  EXPECT_TRUE(frame.payload.empty());
}

TEST_P(TransportSuite, MultiMegabytePayloadSurvivesPartialTransfers) {
  // 8 MB is far beyond any socket buffer or the 1 MB shm ring, so both
  // backends are forced through many partial send/recv iterations; any
  // offset bug scrambles the bytes.
  Pair pair = make_pair_over(GetParam(), "large");
  const std::string payload = random_payload(std::size_t{8} << 20, 2);
  std::thread sender([&] { write_frame(*pair.client, 3, payload); });
  const Frame frame = read_frame(*pair.server);
  sender.join();
  EXPECT_EQ(frame.type, 3u);
  ASSERT_EQ(frame.payload.size(), payload.size());
  EXPECT_EQ(frame.payload, payload);
}

TEST_P(TransportSuite, ReadFrameIntoReusedFrameLeavesNoStaleBytes) {
  // One Frame reads frames that shrink, empty and grow again: each read must
  // show exactly the bytes sent, never a tail left over from a longer one.
  Pair pair = make_pair_over(GetParam(), "reuse");
  const std::vector<std::string> payloads = {
      random_payload(std::size_t{64} << 10, 4), random_payload(7, 5), "",
      random_payload((std::size_t{1} << 20) + 3, 6)};
  std::thread sender([&] {
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      write_frame(*pair.client, static_cast<std::uint32_t>(100 + i),
                  payloads[i]);
    }
  });
  Frame frame;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    read_frame(*pair.server, frame);
    EXPECT_EQ(frame.type, 100 + i);
    ASSERT_EQ(frame.payload.size(), payloads[i].size()) << "frame " << i;
    EXPECT_TRUE(frame.payload == payloads[i]) << "frame " << i;
  }
  sender.join();
}

TEST_P(TransportSuite, ManySmallFramesKeepOrderAndBoundaries) {
  Pair pair = make_pair_over(GetParam(), "many");
  constexpr int kFrames = 500;
  std::thread sender([&] {
    for (int i = 0; i < kFrames; ++i) {
      write_frame(*pair.client, static_cast<std::uint32_t>(i),
                  std::to_string(i * 31));
    }
  });
  for (int i = 0; i < kFrames; ++i) {
    const Frame frame = read_frame(*pair.server);
    EXPECT_EQ(frame.type, static_cast<std::uint32_t>(i));
    EXPECT_EQ(frame.payload, std::to_string(i * 31));
  }
  sender.join();
}

TEST_P(TransportSuite, PeerCloseMidFrameIsTornFrameKClosed) {
  Pair pair = make_pair_over(GetParam(), "torn");
  // Send only the header + half the announced payload, then close.
  std::thread sender([&] {
    std::string wire(16, '\0');
    const std::uint32_t magic = kFrameMagic;
    const std::uint32_t type = 9;
    const std::uint64_t length = 1000;
    std::memcpy(wire.data(), &magic, 4);
    std::memcpy(wire.data() + 4, &type, 4);
    std::memcpy(wire.data() + 8, &length, 8);
    wire.append(500, 'x');
    pair.client->send_bytes(wire.data(), wire.size());
    pair.client->close();
  });
  try {
    (void)read_frame(*pair.server);
    FAIL() << "torn frame must throw";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kClosed);
    EXPECT_NE(std::string(e.what()).find("torn frame"), std::string::npos)
        << e.what();
  }
  sender.join();
}

TEST_P(TransportSuite, CleanCloseBeforeAnyFrameIsKClosed) {
  Pair pair = make_pair_over(GetParam(), "eof");
  pair.client->close();
  try {
    (void)read_frame(*pair.server);
    FAIL() << "EOF must throw";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kClosed);
  }
}

TEST_P(TransportSuite, OversizedFrameHeaderIsKProtocolNotAllocation) {
  Pair pair = make_pair_over(GetParam(), "oversized");
  std::thread sender([&] {
    char header[16];
    const std::uint32_t magic = kFrameMagic;
    const std::uint32_t type = 1;
    const std::uint64_t length = std::uint64_t{1} << 40;  // 1 TB claim
    std::memcpy(header, &magic, 4);
    std::memcpy(header + 4, &type, 4);
    std::memcpy(header + 8, &length, 8);
    pair.client->send_bytes(header, sizeof(header));
  });
  try {
    (void)read_frame(*pair.server);
    FAIL() << "oversized frame must throw";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kProtocol);
  }
  sender.join();
}

TEST_P(TransportSuite, BadMagicIsKProtocol) {
  Pair pair = make_pair_over(GetParam(), "magic");
  std::thread sender([&] {
    const char junk[16] = {'n', 'o', 't', 'a', 'f', 'r', 'a', 'm',
                           'e', 'a', 't', 'a', 'l', 'l', '!', '!'};
    pair.client->send_bytes(junk, sizeof(junk));
  });
  try {
    (void)read_frame(*pair.server);
    FAIL() << "bad magic must throw";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kProtocol);
  }
  sender.join();
}

TEST_P(TransportSuite, OversizedSendIsRejectedLocally) {
  Pair pair = make_pair_over(GetParam(), "sendcap");
  const std::string too_big(kMaxFramePayload + 1, 'x');
  try {
    write_frame(*pair.client, 1, too_big);
    FAIL() << "oversized payload must throw before sending";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kProtocol);
  }
}

/// A call bounded by a 100 ms I/O timeout must wait out the whole timeout
/// and must not overrun it by more than a generous scheduling margin.
void expect_timeout_window(std::chrono::steady_clock::duration took) {
  EXPECT_GE(took, std::chrono::milliseconds(100));
  EXPECT_LE(took, std::chrono::milliseconds(100) + std::chrono::seconds(2));
}

TEST_P(TransportSuite, RecvTimeoutIsTypedKTimeout) {
  Pair pair = make_pair_over(GetParam(), "timeout");
  pair.server->set_io_timeout(100);
  char byte = 0;
  const auto start = std::chrono::steady_clock::now();
  try {
    pair.server->recv_bytes(&byte, 1);
    FAIL() << "recv with no sender must time out";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kTimeout);
  }
  expect_timeout_window(std::chrono::steady_clock::now() - start);
  // The timeout must not poison the stream: clear it, send, receive fine.
  pair.server->set_io_timeout(-1);
  std::thread sender([&] { write_frame(*pair.client, 5, "after-timeout"); });
  const Frame frame = read_frame(*pair.server);
  sender.join();
  EXPECT_EQ(frame.payload, "after-timeout");
}

TEST_P(TransportSuite, SendTimeoutIsTypedKTimeout) {
  // 32 MiB is far more than the shm ring or the loopback socket buffers
  // hold, so a peer that never reads stalls the writer until its deadline.
  Pair pair = make_pair_over(GetParam(), "send_timeout");
  pair.client->set_io_timeout(100);
  const std::string bulk(std::size_t{32} << 20, 'z');
  const auto start = std::chrono::steady_clock::now();
  try {
    pair.client->send_bytes(bulk.data(), bulk.size());
    FAIL() << "send to a peer that never reads must time out";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kTimeout);
  }
  expect_timeout_window(std::chrono::steady_clock::now() - start);
}

TEST_P(TransportSuite, AcceptTimeoutIsTypedKTimeout) {
  auto listener = listen(listen_address(GetParam(), "accept_to"));
  listener->set_accept_timeout(100);
  try {
    (void)listener->accept();
    FAIL() << "accept with no client must time out";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kTimeout);
  }
}

TEST_P(TransportSuite, ConnectToNobodyTimesOut) {
  const std::string address = GetParam() == "tcp"
                                  ? "tcp://127.0.0.1:1"  // reserved port
                                  : "shm://" + temp_prefix("nobody");
  try {
    (void)connect(address, 200);
    FAIL() << "connect with no listener must time out";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kTimeout);
  }
}

TEST_P(TransportSuite, KilledPeerIsKClosedEvenToAZeroTimeoutRecv) {
  // A zero-timeout recv is a poll. It must still tell a quiet peer
  // (kTimeout) from a dead one (kClosed), as a poll of a closed socket
  // does: a parameter server polls its controller this way.
  auto listener = listen(listen_address(GetParam(), "killed_peer"));
  const std::string address = listener->address();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      const auto ep = connect(address, 5000);
      while (true) ::pause();
    } catch (...) {
    }
    ::_exit(1);
  }
  listener->set_accept_timeout(5000);
  const auto server = listener->accept();
  server->set_io_timeout(0);
  char byte = 0;
  try {
    server->recv_bytes(&byte, 1);
    FAIL() << "a live peer that sent nothing must time out";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kTimeout) << e.what();
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  try {
    server->recv_bytes(&byte, 1);
    FAIL() << "a killed peer must read as closed";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kClosed) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportSuite,
                         ::testing::Values(std::string("tcp"),
                                           std::string("shm")),
                         [](const auto& info) { return info.param; });

// ---- shm rendezvous ---------------------------------------------------------

TEST(ShmRendezvous, ConnectBeforeListenWaitsForTheListener) {
  // Role-mode groups start in any order, so a client may be polling for the
  // listener's control file while the listener creates it. It must wait for
  // a complete control file, never fail on a half-written one.
  const std::string address = "shm://" + temp_prefix("rendezvous");
  int failures = 0;
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::unique_ptr<Endpoint> client;
    std::string error;
    std::thread connector([&] {
      try {
        client = connect(address, 5000);
      } catch (const TransportError& e) {
        error = e.what();
      }
    });
    auto listener = listen(address);
    connector.join();
    if (!error.empty()) {
      ADD_FAILURE() << "attempt " << attempt << ": " << error;
      ++failures;
      continue;
    }
    listener->set_accept_timeout(5000);
    auto server = listener->accept();
    write_frame(*client, 1, "ping");
    EXPECT_EQ(read_frame(*server).payload, "ping");
  }
  EXPECT_EQ(failures, 0);
}

// ---- EINTR resilience (tcp only: shm blocks in no read, write or poll) --

std::atomic<int> g_sigusr1_count{0};
void count_signal(int) { g_sigusr1_count.fetch_add(1); }

TEST(TransportEintr, TcpTransferSurvivesSignalStorm) {
  // Install SIGUSR1 *without* SA_RESTART so every blocking syscall in the
  // receiver thread is genuinely interrupted with EINTR.
  struct sigaction sa {};
  sa.sa_handler = count_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  auto listener = listen("tcp://127.0.0.1:0");
  std::unique_ptr<Endpoint> client;
  std::thread connector(
      [&] { client = connect(listener->address(), 5000); });
  listener->set_accept_timeout(5000);
  auto server = listener->accept();
  connector.join();

  const std::string payload = random_payload(std::size_t{4} << 20, 3);
  std::atomic<bool> done{false};
  Frame frame;
  std::thread receiver([&] {
    frame = read_frame(*server);
    done.store(true);
  });
  std::thread sender([&] {
    // Trickle the payload so the receiver spends real time blocked in
    // recv/poll while signals land.
    constexpr std::size_t kChunk = 64 << 10;
    std::string wire(16, '\0');
    const std::uint32_t magic = kFrameMagic;
    const std::uint32_t type = 11;
    const std::uint64_t length = payload.size();
    std::memcpy(wire.data(), &magic, 4);
    std::memcpy(wire.data() + 4, &type, 4);
    std::memcpy(wire.data() + 8, &length, 8);
    client->send_bytes(wire.data(), wire.size());
    for (std::size_t off = 0; off < payload.size(); off += kChunk) {
      client->send_bytes(payload.data() + off,
                         std::min(kChunk, payload.size() - off));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  while (!done.load()) {
    pthread_kill(receiver.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  receiver.join();
  sender.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);

  EXPECT_GT(g_sigusr1_count.load(), 0);
  EXPECT_EQ(frame.type, 11u);
  EXPECT_EQ(frame.payload, payload);
}

// ---- Cross-backend parity ---------------------------------------------------

/// 64 random frames of up to 20 KB.
std::vector<Frame> small_random_frames() {
  std::vector<Frame> frames;
  std::mt19937 rng(17);
  for (int i = 0; i < 64; ++i) {
    Frame f;
    f.type = rng() % 1000;
    f.payload = random_payload(rng() % 20000, rng());
    frames.push_back(std::move(f));
  }
  return frames;
}

/// 48 frames, every third within 16 bytes of the 1 MiB shm ring capacity
/// and the rest under 5 KB: about sixteen ring capacities in all, with
/// frames that straddle the ring's wrap at shifting offsets.
std::vector<Frame> wrap_straddling_frames() {
  constexpr std::size_t kRing = std::size_t{1} << 20;
  std::vector<Frame> frames;
  std::mt19937 rng(29);
  for (int i = 0; i < 48; ++i) {
    Frame f;
    f.type = rng() % 1000;
    const std::size_t size =
        i % 3 == 0 ? kRing - 16 + rng() % 33 : rng() % 5000;
    f.payload = random_payload(size, rng());
    frames.push_back(std::move(f));
  }
  return frames;
}

TEST(TransportParity, ShmAndTcpDeliverIdenticalBytes) {
  // The distributed runtime treats the transport as interchangeable: the
  // same frame sequence pushed through both backends must come out
  // byte-identical, or "bit-identical training over shm and tcp" is void.
  // The reader pauses 1 ms after every 16th frame, so on the second input
  // the writer fills the ring, blocks, and resumes only once it sees the
  // reader's progress.
  for (const std::vector<Frame>& sent :
       {small_random_frames(), wrap_straddling_frames()}) {
    for (const std::string backend : {"tcp", "shm"}) {
      Pair pair = make_pair_over(backend, "parity");
      std::thread sender([&] {
        for (const Frame& f : sent) {
          write_frame(*pair.client, f.type, f.payload);
        }
      });
      for (std::size_t i = 0; i < sent.size(); ++i) {
        const Frame got = read_frame(*pair.server);
        ASSERT_EQ(got.type, sent[i].type) << backend << " frame " << i;
        ASSERT_TRUE(got.payload == sent[i].payload)
            << backend << " frame " << i << " of " << sent[i].payload.size()
            << " bytes";
        if (i % 16 == 15) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      sender.join();
    }
  }
}

}  // namespace
}  // namespace isasgd::net
