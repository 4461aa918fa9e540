// Transport microbenchmark: frame round-trip latency and streaming
// throughput for the two real-backend transports (shm rings vs TCP
// loopback), the numbers that decide how much of a distributed step is
// communication.
//
// Two shapes per transport:
//   * ping/pong with 64-byte frames  — per-message latency (the kStep /
//     kStepReply / kPush / kPushAck exchanges are all this size class),
//   * one-way stream of 1 MiB frames — bulk bandwidth (the kFence model
//     snapshot and kModelDelta broadcasts).
//
// Self-contained timing (no google-benchmark), same flag conventions and
// bench record (one row per entry) as the other bench binaries:
//   transport_bench [--seconds S] [--out FILE]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "net/transport.hpp"

namespace {

using namespace isasgd;
using Clock = std::chrono::steady_clock;

struct Pair {
  std::unique_ptr<net::Listener> listener;
  std::unique_ptr<net::Endpoint> server;
  std::unique_ptr<net::Endpoint> client;
};

Pair make_pair_over(const std::string& transport) {
  Pair p;
  std::string address;
  if (transport == "tcp") {
    address = "tcp://127.0.0.1:0";
  } else {
    address = "shm:///tmp/isasgd_bench_" +
              std::to_string(static_cast<unsigned>(::getpid()));
  }
  p.listener = net::listen(address);
  std::thread connector(
      [&] { p.client = net::connect(p.listener->address()); });
  p.server = p.listener->accept();
  connector.join();
  return p;
}

/// Round trips per second with `size`-byte payloads, echoed by a peer
/// thread.
util::RecordFields pingpong(const std::string& transport, double seconds) {
  Pair p = make_pair_over(transport);
  std::thread echo([&] {
    try {
      for (;;) {
        net::Frame f = net::read_frame(*p.server);
        if (f.type == 0xdead) return;
        net::write_frame(*p.server, f.type, f.payload);
      }
    } catch (const net::TransportError&) {
    }
  });
  const std::string payload(64, 'p');
  // Warmup.
  for (int i = 0; i < 100; ++i) {
    net::write_frame(*p.client, 1, payload);
    (void)net::read_frame(*p.client);
  }
  std::uint64_t ops = 0;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  while (Clock::now() < deadline) {
    for (int i = 0; i < 64; ++i) {
      net::write_frame(*p.client, 1, payload);
      (void)net::read_frame(*p.client);
      ++ops;
    }
  }
  const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  net::write_frame(*p.client, 0xdead, {});
  echo.join();
  const double us_per_rt = 1e6 * elapsed / static_cast<double>(ops);
  std::printf("  %-28s %10.2f us/roundtrip  (%.0f rt/s)\n",
              (transport + "/pingpong_64B").c_str(), us_per_rt, ops / elapsed);
  return {{"name", transport + "/pingpong_64B_us"},
          {"value", us_per_rt},
          {"unit", "us/roundtrip"}};
}

/// One-way MiB/s with 1 MiB frames.
util::RecordFields stream(const std::string& transport, double seconds) {
  Pair p = make_pair_over(transport);
  std::thread sink([&] {
    try {
      for (;;) {
        net::Frame f = net::read_frame(*p.server);
        if (f.type == 0xdead) return;
      }
    } catch (const net::TransportError&) {
    }
  });
  const std::string payload(std::size_t{1} << 20, 's');
  for (int i = 0; i < 8; ++i) net::write_frame(*p.client, 1, payload);
  std::uint64_t frames = 0;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  while (Clock::now() < deadline) {
    net::write_frame(*p.client, 1, payload);
    ++frames;
  }
  const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  net::write_frame(*p.client, 0xdead, {});
  sink.join();
  const double mib_s = static_cast<double>(frames) / elapsed;
  std::printf("  %-28s %10.0f MiB/s\n", (transport + "/stream_1MiB").c_str(),
              mib_s);
  return {{"name", transport + "/stream_1MiB_mibs"},
          {"value", mib_s},
          {"unit", "MiB/s"}};
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("transport_bench",
                      "frame latency and throughput for the shm and tcp "
                      "transports");
  cli.add_flag("seconds", "1.0", "measurement window per entry");
  cli.add_flag("out", "BENCH_transport.json", "JSON results file ('' = none)");
  if (!cli.parse(argc, argv)) return 0;
  const double seconds = cli.get_double("seconds");

  util::BenchRecord rec{.bench = "transport_bench"};
  rec.config = {{"seconds", seconds}};
  for (const char* transport : {"shm", "tcp"}) {
    std::printf("%s:\n", transport);
    rec.rows.push_back(pingpong(transport, seconds));
    rec.rows.push_back(stream(transport, seconds));
  }
  return bench::finish(rec, cli.get("out"));
}
