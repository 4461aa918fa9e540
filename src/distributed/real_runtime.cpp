#include "distributed/real_runtime.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "distributed/fenced.hpp"
#include "distributed/node_walk.hpp"
#include "distributed/ps_wire.hpp"
#include "distributed/recovery.hpp"
#include "net/fault.hpp"
#include "net/transport.hpp"
#include "solvers/schedule.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace isasgd::distributed {

namespace {

/// Generous per-call I/O deadline inside a fault-free group. Every blocking
/// call a process makes is bounded by it, so a dead peer turns into a typed
/// TransportError instead of a wedged group. Fault-tolerant runs (a wire
/// FaultSpec or FaultScenario is active) switch to the much tighter
/// RecoveryOptions deadlines instead.
constexpr int kGroupIoTimeoutMs = 120000;
constexpr int kConnectTimeoutMs = 30000;
/// Accept/read poll granularity while a fault-tolerant server waits: short
/// enough to notice reconnects promptly, long enough not to spin.
constexpr int kPollMs = 50;

using Clock = std::chrono::steady_clock;

bool fault_tolerant(const ClusterSpec& spec) {
  return spec.wire_faults.enabled() || spec.fault.enabled();
}

std::shared_ptr<const net::FaultPlan> make_plan(const ClusterSpec& spec) {
  if (!spec.wire_faults.enabled()) return nullptr;
  return std::make_shared<net::FaultPlan>(spec.wire_faults);
}

std::string pick_address(const ClusterSpec& spec) {
  if (!spec.bind_address.empty()) return spec.bind_address;
  if (spec.transport == "tcp") return "tcp://127.0.0.1:0";
  static std::atomic<std::uint32_t> counter{0};
  return "shm:///tmp/isasgd_group_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

/// Reaps (and on scope exit kills) the forked children. The controller path
/// rethrows transport errors; this guard guarantees the group never
/// outlives the call, success or failure.
class ChildReaper {
 public:
  ~ChildReaper() {
    for (const pid_t pid : children_) {
      ::kill(pid, SIGKILL);
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }

  void add(pid_t pid) { children_.push_back(pid); }

  /// Waits for every child; throws if any exited abnormally. A scripted
  /// crash is a clean _exit(0), so it passes — an assertion failure or
  /// signal in any child still fails the run.
  void join_all() {
    std::string failures;
    while (!children_.empty()) {
      const pid_t pid = children_.back();
      children_.pop_back();
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        failures += " pid " + std::to_string(pid) +
                    (WIFSIGNALED(status)
                         ? " killed by signal " + std::to_string(WTERMSIG(status))
                         : " exited " + std::to_string(WEXITSTATUS(status)));
      }
    }
    if (!failures.empty()) {
      throw std::runtime_error("distributed process group failed:" + failures);
    }
  }

 private:
  std::vector<pid_t> children_;
};

/// Writes the server's resolved listen address through the pipe fd, then
/// closes it.
void report_address(int fd, const std::string& address) {
  const std::string line = address + "\n";
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("address pipe write failed");
    }
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

/// Reads the resolved address line from the pipe fd (controller side).
std::string read_address(int fd) {
  std::string line;
  char c = 0;
  while (true) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0 || c == '\n') break;
    line.push_back(c);
  }
  ::close(fd);
  if (line.empty()) {
    throw std::runtime_error(
        "distributed server process died before reporting its address");
  }
  return line;
}

/// Hellos are always sent on the UNWRAPPED endpoint (before any fault
/// decorator is attached): losing the handshake would deadlock group setup
/// without exercising anything the recovery protocol is responsible for.
void send_hello(net::Endpoint& ep, std::uint32_t role, std::uint32_t rank,
                std::uint32_t resume) {
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
Hello read_hello(net::Endpoint& ep) {
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
std::uint32_t read_coordinate(wire::Unpacker& u, std::size_t dim) {
  const std::uint32_t c = u.u32();
  if (c >= dim) {
    throw net::TransportError(net::TransportError::Kind::kProtocol,
                              "coordinate " + std::to_string(c) +
                                  " out of range (dim " + std::to_string(dim) +
                                  ")");
  }
  return c;
}

/// True when two strictly increasing column lists share a coordinate.
bool share_coordinate(std::span<const std::uint32_t> a,
                      std::span<const std::uint32_t> b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// Wire sizes of the repeated elements the count sites bound.
constexpr std::size_t kGoEntryBytes =
    sizeof(std::uint32_t) + sizeof(std::uint64_t);  // (walk, ff)
constexpr std::size_t kCoordValueBytes =
    sizeof(std::uint32_t) + sizeof(double);  // (idx, val)

// ---- Fault-tolerant PS wire client ------------------------------------------

/// One (walk, fast-forward) assignment entry of a kEpochGo.
struct GoEntry {
  std::uint32_t walk = 0;
  std::uint64_t ff = 0;
};

/// Parsed kEpochGo.
struct EpochGo {
  bool cont = false;
  std::size_t next_epoch = 0;
  std::vector<GoEntry> assign;
};

/// The worker side of the sequence-numbered PS protocol: every request gets
/// a fresh seq, and request() retransmits (reconnecting on kClosed) until
/// the matching reply arrives or the retry budget is spent. Because the
/// server caches the last reply per rank and dedups on seq, a retried push
/// is applied exactly once no matter where the wire failed.
class PsClient {
 public:
  PsClient(std::string address, std::size_t rank, const ClusterSpec& spec,
           std::shared_ptr<const net::FaultPlan> plan)
      : address_(std::move(address)),
        rank_(static_cast<std::uint32_t>(rank)),
        spec_(spec),
        plan_(std::move(plan)),
        reply_timeout_ms_(fault_tolerant(spec) ? spec.recovery.reply_timeout_ms
                                               : kGroupIoTimeoutMs),
        fence_timeout_ms_(fault_tolerant(spec)
                              ? spec.recovery.fence_reply_timeout_ms
                              : kGroupIoTimeoutMs),
        backoff_({.initial_ms = spec.recovery.backoff_initial_ms,
                  .max_ms = spec.recovery.backoff_max_ms,
                  .multiplier = 2.0,
                  .jitter = spec.recovery.backoff_jitter,
                  .seed = util::derive_seed(spec.wire_faults.seed,
                                            0xba0fu + rank)}) {
    connect();
  }

  /// Opens the epoch's first step: returns w[c] for each of its columns, in
  /// order. The span is valid until the next call.
  std::span<const double> step(std::span<const std::uint32_t> cols) {
    const std::uint64_t seq = ++seq_;
    out_.clear();
    out_.u64(seq).u32(static_cast<std::uint32_t>(cols.size()));
    out_.raw(cols.data(), cols.size() * sizeof(std::uint32_t));
    return values(request(wire::kStep, seq, wire::kStepReply,
                          reply_timeout_ms_),
                  cols.size());
  }

  /// Pushes the open step's update, as values in its column order, and
  /// opens the next step on `next_cols`: one round trip, whose reply is the
  /// next step's values (as step() returns them) and confirms the push.
  std::span<const double> push_step(std::uint32_t walk, double gradient_scale,
                                    double scaled_step,
                                    std::span<const double> val,
                                    std::span<const std::uint32_t> next_cols) {
    const std::uint64_t seq = ++seq_;
    out_.clear();
    out_.u64(seq).u32(walk).f64(gradient_scale).f64(scaled_step);
    out_.u32(static_cast<std::uint32_t>(val.size()));
    out_.raw(val.data(), val.size() * sizeof(double));
    out_.u32(static_cast<std::uint32_t>(next_cols.size()));
    out_.raw(next_cols.data(), next_cols.size() * sizeof(std::uint32_t));
    return values(request(wire::kPushStep, seq, wire::kStepReply,
                          reply_timeout_ms_),
                  next_cols.size());
  }

  /// Pushes the open step's update and opens no other: the last push of an
  /// epoch, or the one before a scripted crash. Applied exactly once
  /// server-side, like every push.
  void push(std::uint32_t walk, double gradient_scale, double scaled_step,
            std::span<const std::uint32_t> idx, std::span<const double> val) {
    const std::uint64_t seq = ++seq_;
    out_.clear();
    out_.u64(seq).u32(walk).f64(gradient_scale).f64(scaled_step);
    out_.u32(static_cast<std::uint32_t>(idx.size()));
    for (std::size_t j = 0; j < idx.size(); ++j) {
      out_.u32(idx[j]);
      out_.f64(val[j]);
    }
    (void)request(wire::kPush, seq, wire::kPushAck, reply_timeout_ms_);
  }

  /// Epoch fence: reports this client's cumulative wire retries, blocks on
  /// the kEpochGo carrying the continue flag and next epoch's assignment.
  /// The wait retransmits kEpochEnd at the ordinary reply cadence — the
  /// fence can legitimately take long (controller eval, dead-rank
  /// detection), and only a steady frame stream keeps the server's liveness
  /// deadline from declaring THIS rank dead meanwhile; the server dedups
  /// the repeats by sequence number.
  EpochGo epoch_end() {
    const std::uint64_t seq = ++seq_;
    out_.clear();
    out_.u64(seq).u64(retries_);
    wire::Unpacker u(
        request(wire::kEpochEnd, seq, wire::kEpochGo, reply_timeout_ms_));
    (void)u.u64();  // seq
    EpochGo go;
    go.cont = u.u32() != 0;
    go.next_epoch = u.u32();
    const std::uint32_t nwalks = u.count(kGoEntryBytes);
    go.assign.resize(nwalks);
    for (GoEntry& e : go.assign) {
      e.walk = u.u32();
      e.ff = u.u64();
    }
    return go;
  }

  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }

 private:
  /// Parses a kStepReply of `n` values into values_.
  std::span<const double> values(const std::string& reply, std::size_t n) {
    wire::Unpacker u(reply);
    (void)u.u64();  // seq, already matched
    values_.resize(n);
    for (double& v : values_) v = u.f64();
    return values_;
  }

  void connect() {
    auto raw = net::connect(address_, kConnectTimeoutMs);
    raw->set_io_timeout(kConnectTimeoutMs);
    // resume=0 only on a fresh process's first connection: the server resets
    // the rank's sequence state so a rejoining replacement starts at seq 1.
    send_hello(*raw, wire::kRoleWorker, rank_, incarnation_ > 0 ? 1 : 0);
    ep_ = net::wrap_faulty(
        std::move(raw), plan_,
        net::FaultPlan::stream_id(0, rank_, incarnation_), nullptr);
    ++incarnation_;
  }

  /// Sends the request packed in out_ and returns the matching reply's
  /// payload, which stays valid until the next request.
  const std::string& request(std::uint32_t type, std::uint64_t seq,
                             std::uint32_t reply_type, int timeout_ms) {
    // Two failure budgets: timeouts retransmit until the fence deadline (a
    // slow server mid-fence or mid-liveness-wait is not an error, and the
    // retransmits are what keep THIS rank looking alive to it); closes
    // reconnect at most max_retries times (a server that keeps tearing the
    // connection down is one).
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(fence_timeout_ms_);
    backoff_.reset();
    std::size_t closes = 0;
    while (true) {
      try {
        if (!ep_) connect();
        ep_->set_io_timeout(timeout_ms);
        net::write_frame(*ep_, type, out_);
        while (true) {
          net::read_frame(*ep_, in_);
          wire::Unpacker u(in_.payload);
          const std::uint64_t rseq = u.u64();
          // A duplicate of an earlier reply (our retransmit crossed the
          // original answer, or a stale cached resend): discard and keep
          // reading — sequence numbers are monotonic per rank.
          if (rseq < seq) continue;
          if (rseq != seq || in_.type != reply_type) {
            throw net::TransportError(
                net::TransportError::Kind::kProtocol,
                "ps client rank " + std::to_string(rank_) +
                    ": expected reply type " + std::to_string(reply_type) +
                    " seq " + std::to_string(seq) + ", got type " +
                    std::to_string(in_.type) + " seq " + std::to_string(rseq));
          }
          return in_.payload;
        }
      } catch (const net::TransportError& e) {
        if (e.kind() == net::TransportError::Kind::kProtocol ||
            e.kind() == net::TransportError::Kind::kIo) {
          throw;
        }
        // kTimeout: the stream is still frame-aligned (whole frames are
        // dropped or delayed, never split) — retransmit on it. kClosed:
        // torn/reset/dead peer — reconnect with a fresh incarnation.
        if (e.kind() == net::TransportError::Kind::kClosed) {
          ep_.reset();
          if (++closes > spec_.recovery.max_retries) throw;
        }
        if (Clock::now() >= deadline) throw;
        ++retries_;
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_.next_ms()));
      }
    }
  }

  std::string address_;
  std::uint32_t rank_;
  const ClusterSpec& spec_;
  std::shared_ptr<const net::FaultPlan> plan_;
  int reply_timeout_ms_;
  int fence_timeout_ms_;
  util::Backoff backoff_;
  std::unique_ptr<net::Endpoint> ep_;
  std::uint32_t incarnation_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t retries_ = 0;
  // Reused from request to request, so a warm client allocates nothing.
  wire::Packer out_;
  net::Frame in_;
  std::vector<double> values_;
};

// ---- Fault-tolerant PS server -----------------------------------------------

/// The PS process: serves coordinate gets and applies pushes in the fenced
/// rank order (one applied push per live rank per round — the exact apply
/// sequence of the simulator's fenced schedule, crash-aware or not).
/// Detects a dead worker by its liveness deadline expiring, reports
/// per-rank liveness and per-walk applied-draw counts at each fence, and
/// executes whatever assignment the controller replies with.
///
/// The workers compute at the same time all the same. The server keeps a
/// window: the queue of open steps (a step whose coordinates a rank read
/// and whose push it owes) in fenced order, at most one per live rank.
/// Pushes apply only at the window's head, so the apply sequence is the
/// simulator's. A newly read step is answered at once when no step ahead of
/// it in the window shares a coordinate with it: no push still to land
/// before it in the fenced order writes what it reads, so the values it
/// gets are the ones the fenced schedule would give it. Otherwise it is
/// answered when it reaches the head. A push must write exactly its step's
/// coordinates, which is what makes an early read exact. The server blocks
/// only on the head's rank, on an epoch's opening kStep and on a finished
/// rank's kEpochEnd, never on a rank whose reply it has deferred, so it
/// cannot deadlock.
class PsServer {
 public:
  PsServer(int addr_fd, const std::string& bind, std::size_t k,
           std::size_t dim, const solvers::SolverOptions& options,
           const ClusterSpec& spec)
      : k_(k),
        options_(options),
        spec_(spec),
        plan_(make_plan(spec)),
        ft_(fault_tolerant(spec)),
        liveness_ms_(ft_ ? spec.recovery.liveness_timeout_ms
                         : kGroupIoTimeoutMs),
        poll_ms_(ft_ ? kPollMs : kGroupIoTimeoutMs),
        w_(dim, 0.0),
        walk_draws_(k, 0),
        ranks_(k) {
    window_.reserve(k);
    listener_ = net::listen(bind);
    report_address(addr_fd, listener_->address());
    controller_ = accept_group(
        *listener_, k_,
        [&](const Hello& hello, std::unique_ptr<net::Endpoint> ep) {
          install(hello.rank, hello.resume, std::move(ep));
        });
  }

  void run() {
    for (std::size_t epoch = 1;; ++epoch) {
      // Every live rank opens the epoch with its first step (or ends it at
      // once on an empty quota), read in rank order so that the window
      // starts in fenced order.
      for (std::size_t r = 0; r < k_; ++r) {
        ranks_[r].ended = false;
        if (!ranks_[r].dead) open_epoch(r);
      }
      while (!window_.empty()) serve_head();
      // A rank whose last push landed owes its kEpochEnd; one that never
      // sends it (a scripted crash) is dead.
      for (std::size_t r = 0; r < k_; ++r) {
        if (!ranks_[r].dead && !ranks_[r].ended) end_epoch(r);
      }
      if (!fence(epoch)) break;
    }
    if (ft_) drain_shutdown();
  }

 private:
  struct RankState {
    std::unique_ptr<net::Endpoint> ep;
    bool dead = false;
    bool ended = false;  // sent this epoch's kEpochEnd
    // The open step: its columns, whether they are strictly increasing (a
    // list that is not shares a coordinate with every other, as far as the
    // window knows), and whether its values went out.
    std::vector<std::uint32_t> cols;
    bool increasing = true;
    bool answered = false;
    std::uint64_t last_seq = 0;
    std::uint32_t cached_type = 0;  // 0 = no cached reply
    wire::Packer cached_reply;
    std::uint32_t incarnations = 0;
    std::uint64_t go_seq = 0;
    std::uint64_t retries = 0;  // worker-reported cumulative wire retries
  };

  void install(std::uint32_t rank, std::uint32_t resume,
               std::unique_ptr<net::Endpoint> ep) {
    RankState& rs = ranks_[rank];
    if (resume == 0) {
      // Fresh process (first worker or rejoining replacement): its sequence
      // numbers restart at 1.
      rs.last_seq = 0;
      rs.cached_type = 0;
      rs.cached_reply.clear();
      rs.retries = 0;
    }
    rs.ep = net::wrap_faulty(
        std::move(ep), plan_,
        net::FaultPlan::stream_id(1, rank, rs.incarnations), nullptr);
    ++rs.incarnations;
  }

  /// Accepts connections until `target`'s (re)connect arrives or the
  /// deadline passes. Other ranks' reconnects arriving meanwhile are
  /// installed too — waiting on one rank must not eat another's handshake.
  bool await_rank(std::size_t target, Clock::time_point deadline) {
    listener_->set_accept_timeout(poll_ms_);
    while (Clock::now() < deadline) {
      std::unique_ptr<net::Endpoint> ep;
      try {
        ep = listener_->accept();
      } catch (const net::TransportError& e) {
        if (e.kind() == net::TransportError::Kind::kTimeout) continue;
        throw;
      }
      Hello hello;
      try {
        ep->set_io_timeout(std::max(poll_ms_ * 4, 200));
        hello = read_hello(*ep);
      } catch (const net::TransportError& e) {
        if (e.kind() == net::TransportError::Kind::kProtocol) throw;
        continue;  // half-open connection: drop it, keep waiting
      }
      if (hello.role != wire::kRoleWorker || hello.rank >= k_) {
        throw net::TransportError(
            net::TransportError::Kind::kProtocol,
            "unexpected mid-run hello (role " + std::to_string(hello.role) +
                ", rank " + std::to_string(hello.rank) + ")");
      }
      install(hello.rank, hello.resume, std::move(ep));
      if (hello.rank == target) return true;
    }
    return false;
  }

  void mark_dead(std::size_t r) {
    RankState& rs = ranks_[r];
    rs.dead = true;
    rs.ep.reset();
  }

  /// Sends the reply packed in reply_ and keeps it as the rank's cached
  /// reply, so a duplicate of the request (seq == last_seq) can be answered
  /// again without re-executing. The swap hands reply_ the rank's previous
  /// buffer, so replies reuse capacity instead of allocating. A send
  /// failure just drops the connection — the worker reconnects and
  /// retransmits, hitting the cache.
  void reply_cached(RankState& rs, std::uint32_t type) {
    rs.cached_type = type;
    std::swap(rs.cached_reply, reply_);
    send_cached(rs);
  }

  void send_cached(RankState& rs) {
    if (!rs.ep) return;
    try {
      net::write_frame(*rs.ep, rs.cached_type, rs.cached_reply);
    } catch (const net::TransportError& e) {
      if (e.kind() == net::TransportError::Kind::kProtocol ||
          e.kind() == net::TransportError::Kind::kIo) {
        throw;
      }
      rs.ep.reset();
    }
  }

  /// Reads rank r's next frame into frame_; false once `deadline` passes.
  /// Whenever the rank's connection is down it waits for a reconnect
  /// instead (each such wait capped at `reconnect_ms` when positive); a
  /// closed connection just means the worker died or is reconnecting, and
  /// await_rank decides which.
  bool next_frame(std::size_t r, Clock::time_point deadline,
                  int reconnect_ms = 0) {
    RankState& rs = ranks_[r];
    while (true) {
      if (!rs.ep) {
        Clock::time_point until = deadline;
        if (reconnect_ms > 0) {
          until = std::min(until, Clock::now() +
                                      std::chrono::milliseconds(reconnect_ms));
        }
        if (!await_rank(r, until)) return false;
        continue;
      }
      try {
        rs.ep->set_io_timeout(poll_ms_);
        net::read_frame(*rs.ep, frame_);
        return true;
      } catch (const net::TransportError& e) {
        if (e.kind() == net::TransportError::Kind::kTimeout) {
          if (Clock::now() < deadline) continue;
          return false;
        }
        if (e.kind() != net::TransportError::Kind::kClosed) throw;
        rs.ep.reset();
      }
    }
  }

  /// Reads rank r's next request: resends the cached reply to a retransmit
  /// of the last one and skips older ones, so every request is executed
  /// exactly once. Returns the request's payload past its seq, which becomes
  /// the rank's last_seq; nullopt once the rank's liveness deadline passes.
  std::optional<wire::Unpacker> next_request(std::size_t r) {
    RankState& rs = ranks_[r];
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(liveness_ms_);
    while (next_frame(r, deadline)) {
      wire::Unpacker u(frame_.payload);
      const std::uint64_t seq = u.u64();
      if (seq <= rs.last_seq) {
        if (seq == rs.last_seq && rs.cached_type != 0) send_cached(rs);
        continue;
      }
      if (seq != rs.last_seq + 1) {
        throw net::TransportError(
            net::TransportError::Kind::kProtocol,
            "ps server: rank " + std::to_string(r) + " jumped from seq " +
                std::to_string(rs.last_seq) + " to " + std::to_string(seq));
      }
      rs.last_seq = seq;
      rs.cached_type = 0;  // no reply to this request yet
      return u;
    }
    return std::nullopt;
  }

  [[noreturn]] void unexpected_frame() const {
    throw net::TransportError(
        net::TransportError::Kind::kProtocol,
        "ps server: unexpected frame type " + std::to_string(frame_.type));
  }

  /// Takes a rank's kEpochEnd (cumulative wire retries): the kEpochGo the
  /// fence sends becomes its cached reply.
  void take_epoch_end(RankState& rs, wire::Unpacker& u) {
    rs.retries = u.u64();
    rs.go_seq = rs.last_seq;
    rs.ended = true;
  }

  /// Reads rank r's first request of an epoch: a kStep opens its first
  /// step, a kEpochEnd (an empty quota) ends its epoch at once.
  void open_epoch(std::size_t r) {
    std::optional<wire::Unpacker> u = next_request(r);
    if (!u) return mark_dead(r);
    switch (frame_.type) {
      case wire::kStep:
        return open_step(r, *u);
      case wire::kEpochEnd:
        return take_epoch_end(ranks_[r], *u);
      default:
        unexpected_frame();
    }
  }

  /// Reads the kEpochEnd of rank r, whose last push has landed.
  void end_epoch(std::size_t r) {
    std::optional<wire::Unpacker> u = next_request(r);
    if (!u) return mark_dead(r);
    if (frame_.type != wire::kEpochEnd) unexpected_frame();
    take_epoch_end(ranks_[r], *u);
  }

  /// Opens rank r's next step on the column list in u, at the window's
  /// tail. It is answered at once unless a step ahead of it shares a
  /// coordinate with it, decided by a sorted merge of the two lists.
  void open_step(std::size_t r, wire::Unpacker& u) {
    RankState& rs = ranks_[r];
    const std::uint32_t ncols = u.count(sizeof(std::uint32_t));
    rs.cols.resize(ncols);
    rs.increasing = true;
    for (std::uint32_t j = 0; j < ncols; ++j) {
      rs.cols[j] = read_coordinate(u, w_.size());
      if (j > 0 && rs.cols[j] <= rs.cols[j - 1]) rs.increasing = false;
    }
    bool clear = true;
    for (const std::size_t a : window_) {
      if (!rs.increasing || !ranks_[a].increasing ||
          share_coordinate(ranks_[a].cols, rs.cols)) {
        clear = false;
        break;
      }
    }
    window_.push_back(r);
    rs.answered = false;
    if (clear) answer(rs);
  }

  /// Sends rs's open step its values, as the model holds them now.
  void answer(RankState& rs) {
    reply_.clear();
    reply_.u64(rs.last_seq);
    for (const std::uint32_t c : rs.cols) reply_.f64(w_[c]);
    rs.answered = true;
    reply_cached(rs, wire::kStepReply);
  }

  /// Serves the window's head: answers it if its reply was deferred, reads
  /// its rank's push and applies it. A kPushStep puts the rank's next step
  /// at the tail; after a kPush the rank owes its kEpochEnd. A rank that
  /// misses its liveness deadline is dead and its push is never applied.
  void serve_head() {
    const std::size_t r = window_.front();
    RankState& rs = ranks_[r];
    if (!rs.answered) answer(rs);
    std::optional<wire::Unpacker> u = next_request(r);
    window_.erase(window_.begin());
    if (!u) return mark_dead(r);
    switch (frame_.type) {
      case wire::kPushStep:
        apply(rs, *u, /*with_coordinates=*/false);
        return open_step(r, *u);
      case wire::kPush:
        apply(rs, *u, /*with_coordinates=*/true);
        reply_.clear();
        reply_.u64(rs.last_seq);
        return reply_cached(rs, wire::kPushAck);
      default:
        unexpected_frame();
    }
  }

  /// Applies the push in u to the model on rs's open step. A kPushStep
  /// carries one value per step column; a kPush carries (idx, val) pairs,
  /// whose coordinates must be the step's. Either way the push writes
  /// exactly the coordinates the window checked later steps against, and
  /// anything else is a protocol error.
  void apply(RankState& rs, wire::Unpacker& u, bool with_coordinates) {
    const std::uint32_t walk = u.u32();
    const double gradient_scale = u.f64();
    const double scaled_step = u.f64();
    const std::uint32_t nnz =
        u.count(with_coordinates ? kCoordValueBytes : sizeof(double));
    if (walk >= k_) {
      throw net::TransportError(
          net::TransportError::Kind::kProtocol,
          "ps server: push for out-of-range walk " + std::to_string(walk));
    }
    if (nnz != rs.cols.size()) {
      throw net::TransportError(
          net::TransportError::Kind::kProtocol,
          "ps server: push of " + std::to_string(nnz) + " values for a " +
              std::to_string(rs.cols.size()) + "-column step");
    }
    val_.resize(nnz);
    for (std::uint32_t j = 0; j < nnz; ++j) {
      if (with_coordinates && u.u32() != rs.cols[j]) {
        throw net::TransportError(
            net::TransportError::Kind::kProtocol,
            "ps server: push coordinates differ from its step's");
      }
      val_[j] = u.f64();
    }
    fenced::apply_push(rs.cols, val_, gradient_scale, scaled_step,
                       options_.reg, w_);
    ++applied_;
    ++walk_draws_[walk];
    bytes_ += static_cast<std::uint64_t>(nnz) * spec_.bytes_per_nnz;
  }

  /// Admits rank r's replacement process at the fence: waits for its
  /// connection (the controller forked it before replying) and consumes its
  /// handshake kEpochEnd, after which the rank is alive and owed a kEpochGo
  /// like everyone else.
  void admit_rejoin(std::size_t r) {
    RankState& rs = ranks_[r];
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(kConnectTimeoutMs);
    while (true) {
      if (!next_frame(r, deadline)) {
        throw std::runtime_error("ps server: rejoining worker rank " +
                                 std::to_string(r) +
                                 " never completed its handshake");
      }
      wire::Unpacker u(frame_.payload);
      const std::uint64_t seq = u.u64();
      if (frame_.type != wire::kEpochEnd) continue;  // stale frame: ignore
      rs.last_seq = seq;
      rs.cached_type = 0;
      take_epoch_end(rs, u);
      rs.dead = false;
      return;
    }
  }

  /// The final kEpochGo (continue = 0) has no ack of its own: a worker that
  /// received it simply exits, closing its connection. Under fault
  /// injection that last frame can be dropped, torn or reset like any
  /// other — if the server exited straight away, the stranded worker would
  /// retransmit kEpochEnd against a dead listener until its connect timeout
  /// and die with an error. So serve the shutdown like a mini-epoch: treat
  /// each rank's connection close as the implicit ack, and answer any
  /// retransmitted kEpochEnd (including on a fresh connection after a
  /// reset) by resending the cached go, until the liveness deadline.
  void drain_shutdown() {
    // A closed connection means either the worker exited cleanly (no
    // reconnect will come) or it is re-establishing after a reset. A
    // reconnect arrives within one backoff period; anything longer means a
    // clean exit, so a short grace keeps shutdown from stalling a liveness
    // window per rank.
    const int grace_ms = static_cast<int>(
        std::max(200.0, 2.0 * spec_.recovery.backoff_max_ms));
    for (std::size_t r = 0; r < k_; ++r) {
      RankState& rs = ranks_[r];
      if (rs.dead) continue;
      const Clock::time_point deadline =
          Clock::now() + std::chrono::milliseconds(liveness_ms_);
      while (next_frame(r, deadline, grace_ms)) {
        wire::Unpacker u(frame_.payload);
        if (u.u64() == rs.last_seq && rs.cached_type != 0) send_cached(rs);
      }
    }
  }

  /// Epoch fence: ship model + counters + per-rank liveness + per-walk
  /// applied-draw counts to the controller; execute its reply (admissions
  /// first, then per-rank assignments inside the kEpochGo).
  bool fence(std::size_t epoch) {
    std::uint64_t retries = 0;
    for (const RankState& rs : ranks_) retries += rs.retries;
    fence_.clear();
    fence_.u64(epoch).u64(applied_).u64(applied_).u64(bytes_).u64(retries);
    fence_.u32(static_cast<std::uint32_t>(k_));
    for (const RankState& rs : ranks_) fence_.u32(rs.dead ? 0 : 1);
    fence_.u32(static_cast<std::uint32_t>(k_));
    for (const std::uint64_t d : walk_draws_) fence_.u64(d);
    fence_.u64(w_.size());
    fence_.raw(w_.data(), w_.size() * sizeof(double));
    net::write_frame(*controller_, wire::kFence, fence_);

    net::expect_frame(*controller_, frame_, wire::kFenceReply, "fence reply");
    wire::Unpacker u(frame_.payload);
    const bool cont = u.u32() != 0;
    // Per rank at least (alive, nwalks), then nwalks (walk, ff) entries.
    const std::uint32_t nranks = u.count(2 * sizeof(std::uint32_t));
    if (nranks != k_) {
      throw net::TransportError(
          net::TransportError::Kind::kProtocol,
          "ps server: fence reply covers " + std::to_string(nranks) +
              " ranks, expected " + std::to_string(k_));
    }
    std::vector<char> alive_next(k_, 0);
    std::vector<std::vector<GoEntry>> assign(k_);
    for (std::size_t r = 0; r < k_; ++r) {
      alive_next[r] = static_cast<char>(u.u32());
      const std::uint32_t nwalks = u.count(kGoEntryBytes);
      assign[r].resize(nwalks);
      for (GoEntry& e : assign[r]) {
        e.walk = u.u32();
        e.ff = u.u64();
      }
    }
    for (std::size_t r = 0; r < k_; ++r) {
      if (alive_next[r] && ranks_[r].dead) admit_rejoin(r);
    }
    for (std::size_t r = 0; r < k_; ++r) {
      RankState& rs = ranks_[r];
      if (rs.dead) continue;
      reply_.clear();
      reply_.u64(rs.go_seq).u32(cont ? 1 : 0);
      reply_.u32(static_cast<std::uint32_t>(epoch + 1));
      reply_.u32(static_cast<std::uint32_t>(assign[r].size()));
      for (const GoEntry& e : assign[r]) {
        reply_.u32(e.walk);
        reply_.u64(e.ff);
      }
      reply_cached(rs, wire::kEpochGo);
    }
    return cont;
  }

  std::size_t k_;
  const solvers::SolverOptions& options_;
  const ClusterSpec& spec_;
  std::shared_ptr<const net::FaultPlan> plan_;
  bool ft_;
  int liveness_ms_;
  int poll_ms_;
  std::unique_ptr<net::Listener> listener_;
  std::unique_ptr<net::Endpoint> controller_;
  std::vector<double> w_;
  std::vector<std::uint64_t> walk_draws_;
  std::vector<RankState> ranks_;
  std::uint64_t applied_ = 0;
  std::uint64_t bytes_ = 0;
  // The open steps in fenced order, as ranks (see the class comment).
  std::vector<std::size_t> window_;
  // Reused from frame to frame: every rank's requests are read into frame_,
  // every reply is built in reply_ and every kFence in fence_, so a warm
  // server allocates nothing.
  net::Frame frame_;
  wire::Packer reply_;
  wire::Packer fence_;
  std::vector<double> val_;
};

void ps_server_main(int addr_fd, const std::string& bind, std::size_t k,
                    std::size_t dim, const solvers::SolverOptions& options,
                    const ClusterSpec& spec) {
  PsServer server(addr_fd, bind, k, dim, options, spec);
  server.run();
}

/// One PS worker process. It inherits ALL k NodeWalks from the pre-fork
/// setup but draws only its assigned ones; adopting an orphaned walk after
/// a crash means fast-forwarding the pristine inherited walk to the
/// server's applied-draw count (one next() per draw — in-memory walks are
/// deterministic sample streams), then continuing where the dead rank left
/// off. The worker draws one sample ahead, so each push travels with the
/// next draw's columns in one kPushStep. A scripted FaultScenario crash is
/// a clean _exit(0) right after the acked kPush of its last push.
void ps_worker_main(const std::string& address, std::size_t rank,
                    std::vector<NodeWalk>& walks,
                    const objectives::Objective& objective,
                    const solvers::SolverOptions& options,
                    const ClusterSpec& spec, bool rejoiner) {
  PsClient client(address, rank, spec, make_plan(spec));
  const FaultScenario& scenario = spec.fault;
  std::vector<std::uint64_t> local_draws(walks.size(), 0);
  std::vector<GoEntry> assign;
  std::size_t epoch = 1;
  if (rejoiner) {
    // Admission handshake: a rejoiner's first request is an empty epoch-end;
    // the fence that admits it replies with its first real assignment.
    const EpochGo go = client.epoch_end();
    if (!go.cont) return;
    epoch = go.next_epoch;
    assign = go.assign;
  } else {
    assign = {{static_cast<std::uint32_t>(rank), 0}};
  }
  // One drawn sample and the walk it came from. The walks are in-memory,
  // so a sample's row stays valid past the next draw.
  struct Draw {
    std::uint32_t walk = 0;
    sparse::SparseVectorView x;
    double label = 0;
    double weight = 0;
  };
  while (true) {
    const double lambda = solvers::epoch_step(options, epoch);
    std::uint64_t quota_total = 0;
    for (const GoEntry& e : assign) {
      NodeWalk& walk = walks[e.walk];
      // Replay an adopted walk to the server's count. For a walk this rank
      // has held all along, local_draws already equals ff and this no-ops.
      while (local_draws[e.walk] < e.ff) {
        (void)walk.next();
        ++local_draws[e.walk];
      }
      walk.begin_epoch();
      quota_total += walk.epoch_quota();
    }
    const bool crashing = scenario.enabled() && !rejoiner &&
                          rank == scenario.crash_node &&
                          epoch == scenario.crash_epoch;
    // The pushes this epoch: the whole quota, or crash_after of it.
    const std::uint64_t pushes =
        crashing ? static_cast<std::uint64_t>(
                       scenario.crash_fraction *
                       static_cast<double>(quota_total))
                 : quota_total;
    // The epoch's draws in order: each assigned walk's quota in turn.
    std::size_t entry = 0, taken = 0;
    auto draw = [&] {
      while (taken == walks[assign[entry].walk].epoch_quota()) {
        ++entry;
        taken = 0;
      }
      ++taken;
      const std::uint32_t w = assign[entry].walk;
      ++local_draws[w];
      const NodeWalk::Sample s = walks[w].next();
      return Draw{w, s.matrix->row(s.row), s.matrix->label(s.row), s.weight};
    };
    if (pushes > 0) {
      Draw cur = draw();
      std::span<const double> values = client.step(cur.x.indices());
      for (std::uint64_t n = 1;; ++n) {
        const auto val = cur.x.values();
        double margin = 0;
        for (std::size_t j = 0; j < val.size(); ++j) {
          margin += values[j] * val[j];
        }
        const double gradient_scale =
            objective.gradient_scale(margin, cur.label);
        const double scaled_step = lambda * cur.weight;
        if (n == pushes) {
          client.push(cur.walk, gradient_scale, scaled_step, cur.x.indices(),
                      val);
          break;
        }
        const Draw next = draw();
        values = client.push_step(cur.walk, gradient_scale, scaled_step, val,
                                  next.x.indices());
        cur = next;
      }
    }
    if (crashing) ::_exit(0);
    const EpochGo go = client.epoch_end();
    if (!go.cont) break;
    epoch = go.next_epoch;
    assign = go.assign;
  }
}

// ---- All-reduce group -------------------------------------------------------

/// The all-reduce group's connections, as the reducer holds them.
struct GroupEndpoints {
  std::vector<std::unique_ptr<net::Endpoint>> worker;
  std::unique_ptr<net::Endpoint> controller;
};

/// Epoch fence as seen by the all-reduce server: the unified kFence shape
/// with the recovery fields zeroed (no ranks, no walks), continue decision
/// relayed to every worker via the legacy un-sequenced kEpochGo.
bool fence_epoch(GroupEndpoints& group, std::size_t epoch,
                 std::uint64_t c0, std::uint64_t c1, std::uint64_t c2,
                 const std::vector<double>& w) {
  wire::Packer fence;
  fence.u64(epoch).u64(c0).u64(c1).u64(c2).u64(0);
  fence.u32(0).u32(0);
  fence.u64(w.size());
  fence.raw(w.data(), w.size() * sizeof(double));
  net::write_frame(*group.controller, wire::kFence, fence);
  const net::Frame reply =
      net::expect_frame(*group.controller, wire::kFenceReply, "fence reply");
  wire::Unpacker u(reply.payload);
  const bool cont = u.u32() != 0;
  wire::Packer go;
  go.u32(cont ? 1 : 0);
  for (auto& worker : group.worker) {
    net::write_frame(*worker, wire::kEpochGo, go);
  }
  return cont;
}

/// The reducer process: merges worker partials in rank order (the fenced
/// run_allreduce_sgd reduction order), applies the round's step, and
/// broadcasts the touched coordinates so every replica stays bit-exact.
void allreduce_server_main(int addr_fd, const std::string& bind,
                           std::size_t k, std::size_t dim,
                           std::size_t rounds_per_epoch,
                           double samples_per_round,
                           const solvers::SolverOptions& options) {
  auto listener = net::listen(bind);
  report_address(addr_fd, listener->address());
  GroupEndpoints group;
  group.worker.resize(k);
  group.controller = accept_group(
      *listener, k, [&](const Hello& hello, std::unique_ptr<net::Endpoint> ep) {
        ep->set_io_timeout(kGroupIoTimeoutMs);
        group.worker[hello.rank] = std::move(ep);
      });

  std::vector<double> w(dim, 0.0), accum(dim, 0.0);
  std::vector<std::uint32_t> touched;
  std::uint64_t rounds = 0, reduced_coords = 0;
  for (std::size_t epoch = 1;; ++epoch) {
    const double lambda = solvers::epoch_step(options, epoch);
    for (std::size_t r = 0; r < rounds_per_epoch; ++r, ++rounds) {
      for (std::size_t a = 0; a < k; ++a) {
        const net::Frame f =
            net::expect_frame(*group.worker[a], wire::kReduce, "reduce");
        wire::Unpacker u(f.payload);
        const std::uint32_t count = u.count(kCoordValueBytes);
        for (std::uint32_t j = 0; j < count; ++j) {
          const std::uint32_t c = read_coordinate(u, dim);
          const double v = u.f64();
          if (accum[c] == 0.0) touched.push_back(c);
          accum[c] += v;
        }
        reduced_coords += count;
      }
      const double step = lambda / samples_per_round;
      wire::Packer delta;
      delta.u32(static_cast<std::uint32_t>(touched.size()));
      for (const std::uint32_t c : touched) {
        w[c] -= step * accum[c] + lambda * options.reg.subgradient(w[c]);
        accum[c] = 0.0;
        delta.u32(c);
        delta.f64(w[c]);
      }
      touched.clear();
      for (auto& worker : group.worker) {
        net::write_frame(*worker, wire::kModelDelta, delta);
      }
    }
    if (!fence_epoch(group, epoch, rounds, reduced_coords, 0, w)) break;
  }
}

/// One all-reduce worker: b-sample partial per round against its local
/// replica, which the server's coordinate broadcasts keep bit-identical to
/// the master.
void allreduce_worker_main(const std::string& address, std::size_t rank,
                           NodeWalk& walk,
                           const objectives::Objective& objective,
                           const solvers::SolverOptions& options,
                           std::size_t dim, std::size_t rounds_per_epoch,
                           std::size_t batch) {
  auto ep = net::connect(address, kConnectTimeoutMs);
  ep->set_io_timeout(kGroupIoTimeoutMs);
  send_hello(*ep, wire::kRoleWorker, static_cast<std::uint32_t>(rank), 0);
  std::vector<double> w(dim, 0.0), partial(dim, 0.0);
  std::vector<std::uint32_t> ptouched;
  for (std::size_t epoch = 1; epoch <= options.epochs; ++epoch) {
    for (std::size_t r = 0; r < rounds_per_epoch; ++r) {
      for (std::size_t s = 0; s < batch; ++s) {
        const NodeWalk::Sample sample = walk.next();
        const auto x = sample.matrix->row(sample.row);
        const auto idx = x.indices();
        const auto val = x.values();
        double margin = 0;
        for (std::size_t j = 0; j < idx.size(); ++j) {
          margin += w[idx[j]] * val[j];
        }
        const double g =
            objective.gradient_scale(margin, sample.matrix->label(sample.row)) *
            sample.weight;
        for (std::size_t j = 0; j < idx.size(); ++j) {
          const std::size_t c = idx[j];
          if (partial[c] == 0.0) ptouched.push_back(idx[j]);
          partial[c] += g * val[j];
        }
      }
      wire::Packer reduce;
      reduce.u32(static_cast<std::uint32_t>(ptouched.size()));
      for (const std::uint32_t c : ptouched) {
        reduce.u32(c);
        reduce.f64(partial[c]);
        partial[c] = 0.0;
      }
      ptouched.clear();
      net::write_frame(*ep, wire::kReduce, reduce);

      const net::Frame delta =
          net::expect_frame(*ep, wire::kModelDelta, "model delta");
      wire::Unpacker u(delta.payload);
      const std::uint32_t count = u.count(kCoordValueBytes);
      for (std::uint32_t j = 0; j < count; ++j) {
        const std::uint32_t c = read_coordinate(u, dim);
        w[c] = u.f64();  // assignment: replica stays bit-exact
      }
    }
    const net::Frame go = net::expect_frame(*ep, wire::kEpochGo, "epoch go");
    wire::Unpacker u(go.payload);
    if (u.u32() == 0) break;
  }
}

// ---- Controller (the calling process) ---------------------------------------

struct FencePoint {
  std::size_t epoch = 0;
  std::uint64_t c0 = 0, c1 = 0, c2 = 0;
  std::uint64_t retries = 0;
  std::vector<char> alive;          // empty for all-reduce fences
  std::vector<std::uint64_t> draws;  // per-walk applied draws
  std::vector<double> w;
};

/// Reads the next kFence into `frame` and parses it into `point`, both
/// reused from fence to fence: a fence carries the whole model, and fresh
/// buffers of that size cost a page fault per page.
void read_fence(net::Endpoint& ep, net::Frame& frame, FencePoint& point) {
  net::expect_frame(ep, frame, wire::kFence, "fence");
  wire::Unpacker u(frame.payload);
  point.epoch = u.u64();
  point.c0 = u.u64();
  point.c1 = u.u64();
  point.c2 = u.u64();
  point.retries = u.u64();
  const std::uint32_t nranks = u.count(sizeof(std::uint32_t));
  point.alive.resize(nranks);
  for (char& a : point.alive) a = static_cast<char>(u.u32());
  const std::uint32_t nwalks = u.count(sizeof(std::uint64_t));
  point.draws.resize(nwalks);
  for (std::uint64_t& d : point.draws) d = u.u64();
  const std::uint64_t dim = u.count<std::uint64_t>(sizeof(double));
  point.w.resize(dim);
  u.raw(point.w.data(), dim * sizeof(double));
}

/// Counters the recovery-aware controller accumulates across fences.
struct ControllerStats {
  std::uint64_t crash_events = 0;
  std::uint64_t rejoin_events = 0;
  std::uint64_t wire_retries = 0;
};

using RespawnFn = std::function<void(std::size_t rank)>;

/// Runs the controller loop: record traces at fences, decide continuation,
/// and — when `respawn` is non-null (PS groups) — plan next epoch's
/// walk→rank assignment from the server's liveness report, forking a
/// replacement worker when the scripted scenario says the crashed rank
/// rejoins. Returns the last fence (final counters + model).
FencePoint run_controller(net::Endpoint& ep, std::size_t k, std::size_t dim,
                          const solvers::SolverOptions& options,
                          const ClusterSpec& spec,
                          solvers::TraceRecorder& recorder,
                          double* train_seconds_out, const RespawnFn* respawn,
                          ControllerStats* stats) {
  send_hello(ep, wire::kRoleController, 0, 0);
  recorder.record(0, 0.0, std::vector<double>(dim, 0.0));
  double train_seconds = 0;
  net::Frame frame;
  FencePoint point;
  std::vector<char> alive(k, 1);
  while (true) {
    util::Stopwatch lap;
    read_fence(ep, frame, point);
    train_seconds += lap.seconds();
    recorder.record(point.epoch, train_seconds, point.w);
    const bool cont =
        point.epoch < options.epochs && !recorder.stop_requested();
    wire::Packer reply;
    reply.u32(cont ? 1 : 0);
    if (respawn == nullptr || point.alive.empty()) {
      reply.u32(0);
    } else {
      for (std::size_t r = 0; r < k; ++r) {
        if (alive[r] && !point.alive[r] && stats) ++stats->crash_events;
      }
      alive = point.alive;
      if (stats) stats->wire_retries = point.retries;
      const FaultScenario& scenario = spec.fault;
      if (cont && scenario.enabled() && scenario.rejoin_epoch != 0 &&
          scenario.rejoin_epoch == point.epoch + 1 &&
          !alive[scenario.crash_node]) {
        // Fork the replacement BEFORE replying: by the time the server acts
        // on the admission, the process exists and is connecting.
        (*respawn)(scenario.crash_node);
        alive[scenario.crash_node] = 1;
        if (stats) ++stats->rejoin_events;
      }
      const Assignment assign =
          plan_assignment(k, alive, spec.recovery.policy);
      reply.u32(static_cast<std::uint32_t>(k));
      for (std::size_t r = 0; r < k; ++r) {
        reply.u32(alive[r] ? 1 : 0);
        reply.u32(static_cast<std::uint32_t>(assign[r].size()));
        for (const std::uint32_t wlk : assign[r]) {
          reply.u32(wlk);
          reply.u64(point.draws[wlk]);
        }
      }
    }
    net::write_frame(ep, wire::kFenceReply, reply);
    if (!cont) break;
  }
  *train_seconds_out = train_seconds;
  return point;
}

/// Forks `server_fn` then k× `worker_fn`, runs the controller loop in the
/// calling process, and reaps the group. `with_recovery` enables the
/// PS-side liveness/assignment protocol (and scripted respawns).
template <typename ServerFn, typename WorkerFn>
FencePoint run_group(std::size_t k, std::size_t dim,
                     const solvers::SolverOptions& options,
                     const ClusterSpec& spec, solvers::TraceRecorder& recorder,
                     double* train_seconds, bool with_recovery,
                     ControllerStats* stats, ServerFn&& server_fn,
                     WorkerFn&& worker_fn) {
  const std::string bind = pick_address(spec);
  int addr_pipe[2];
  if (::pipe(addr_pipe) < 0) {
    throw std::runtime_error("pipe() failed for the distributed group");
  }
  ChildReaper reaper;
  const pid_t server_pid = ::fork();
  if (server_pid < 0) throw std::runtime_error("fork() failed (server)");
  if (server_pid == 0) {
    ::close(addr_pipe[0]);
    try {
      server_fn(addr_pipe[1], bind);
      ::_exit(0);
    } catch (...) {
      ::_exit(1);
    }
  }
  reaper.add(server_pid);
  ::close(addr_pipe[1]);
  const std::string address = read_address(addr_pipe[0]);

  auto spawn_worker = [&](std::size_t rank, bool rejoiner) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork() failed (worker)");
    if (pid == 0) {
      try {
        worker_fn(rank, address, rejoiner);
        ::_exit(0);
      } catch (...) {
        ::_exit(1);
      }
    }
    reaper.add(pid);
  };
  for (std::size_t a = 0; a < k; ++a) spawn_worker(a, false);

  auto ep = net::connect(address, kConnectTimeoutMs);
  ep->set_io_timeout(kGroupIoTimeoutMs);
  const RespawnFn respawn = [&](std::size_t rank) {
    spawn_worker(rank, true);
  };
  FencePoint last =
      run_controller(*ep, k, dim, options, spec, recorder, train_seconds,
                     with_recovery ? &respawn : nullptr, stats);
  ep->close();
  reaper.join_all();
  return last;
}

}  // namespace

solvers::Trace run_param_server_process(const sparse::CsrMatrix& data,
                                        const objectives::Objective& objective,
                                        const solvers::SolverOptions& options,
                                        const ClusterSpec& spec,
                                        bool use_importance,
                                        const solvers::EvalFn& eval,
                                        ParamServerReport* report,
                                        solvers::TrainingObserver* observer) {
  spec.validate();
  util::Stopwatch sw;
  // Shared setup BEFORE the forks: every process inherits the same plan and
  // the same seeded walks (a rejoining replacement, forked from the
  // controller at a fence, inherits them pristine and fast-forwards).
  fenced::Setup setup = fenced::make_ps_setup(data, objective, options,
                                              spec.nodes, use_importance);
  const std::size_t k = setup.k;
  if (spec.fault.enabled()) spec.fault.validate(k);
  const std::size_t dim = data.dim();
  solvers::TraceRecorder recorder(use_importance ? "ps_is_asgd" : "ps_asgd", k,
                                  options.step_size, eval, observer);
  recorder.add_setup_seconds(sw.seconds());

  double train_seconds = 0;
  ControllerStats stats;
  const FencePoint last = run_group(
      k, dim, options, spec, recorder, &train_seconds, /*with_recovery=*/true,
      &stats,
      [&](int addr_fd, const std::string& bind) {
        ps_server_main(addr_fd, bind, k, dim, options, spec);
      },
      [&](std::size_t rank, const std::string& address, bool rejoiner) {
        ps_worker_main(address, rank, setup.walks, objective, options, spec,
                       rejoiner);
      });

  if (report || observer) {
    ParamServerReport local;
    local.mean_staleness_updates = 0;  // fenced schedule: immediate applies
    local.messages = last.c1;
    local.bytes_sent = last.c2;
    local.simulated_seconds = train_seconds;  // wall seconds: real backend
    local.phi_imbalance = setup.plan->imbalance();
    local.applied_strategy = setup.plan->applied_strategy();
    local.wire_retries = stats.wire_retries;
    local.crash_events = stats.crash_events;
    local.rejoin_events = stats.rejoin_events;
    if (report) *report = local;
    if (observer) observer->on_diagnostics(local);
  }
  if (options.keep_final_model) recorder.set_final_model(last.w);
  return std::move(recorder).finish(train_seconds);
}

solvers::Trace run_allreduce_process(const sparse::CsrMatrix& data,
                                     const objectives::Objective& objective,
                                     const solvers::SolverOptions& options,
                                     const ClusterSpec& spec,
                                     bool use_importance,
                                     const solvers::EvalFn& eval,
                                     AllreduceReport* report,
                                     solvers::TrainingObserver* observer) {
  spec.validate();
  if (spec.fault.enabled() || spec.wire_faults.enabled()) {
    throw std::invalid_argument(
        "run_allreduce_process: fault injection and crash scenarios are "
        "implemented for the parameter-server engines (the all-reduce group "
        "has no recovery protocol)");
  }
  util::Stopwatch sw;
  fenced::Setup setup = fenced::make_allreduce_setup(
      data, objective, options, spec.nodes, use_importance);
  const std::size_t k = setup.k;
  const std::size_t dim = data.dim();
  const std::size_t n = data.rows();
  const std::size_t b = std::max<std::size_t>(1, options.batch_size);
  const std::size_t rounds_per_epoch = (n + k * b - 1) / (k * b);
  const double samples_per_round = static_cast<double>(k * b);
  solvers::TraceRecorder recorder(
      use_importance ? "allreduce_is_sgd" : "allreduce_sgd", k,
      options.step_size, eval, observer);
  recorder.add_setup_seconds(sw.seconds());

  double train_seconds = 0;
  const FencePoint last = run_group(
      k, dim, options, spec, recorder, &train_seconds,
      /*with_recovery=*/false, nullptr,
      [&](int addr_fd, const std::string& bind) {
        allreduce_server_main(addr_fd, bind, k, dim, rounds_per_epoch,
                              samples_per_round, options);
      },
      [&](std::size_t rank, const std::string& address, bool /*rejoiner*/) {
        allreduce_worker_main(address, rank, setup.walks[rank], objective,
                              options, dim, rounds_per_epoch, b);
      });

  if (report || observer) {
    AllreduceReport local;
    local.rounds = last.c0;
    local.bytes_per_node_per_round =
        k > 1 ? 2.0 * (static_cast<double>(k) - 1.0) / static_cast<double>(k) *
                    static_cast<double>(dim) *
                    static_cast<double>(spec.bytes_per_dense_coord)
              : 0.0;
    local.simulated_seconds = train_seconds;  // wall seconds: real backend
    local.comm_fraction = 0;  // not separable in a real run
    if (report) *report = local;
    if (observer) observer->on_diagnostics(local);
  }
  if (options.keep_final_model) recorder.set_final_model(last.w);
  return std::move(recorder).finish(train_seconds);
}

}  // namespace isasgd::distributed
