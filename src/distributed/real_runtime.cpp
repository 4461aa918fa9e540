#include "distributed/real_runtime.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "distributed/fenced.hpp"
#include "distributed/group.hpp"
#include "distributed/node_walk.hpp"
#include "distributed/ps_server.hpp"
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

std::string pick_address(const ClusterSpec& spec) {
  if (!spec.bind_address.empty()) return spec.bind_address;
  if (spec.transport == "tcp") return "tcp://127.0.0.1:0";
  static std::atomic<std::uint32_t> counter{0};
  return "shm:///tmp/isasgd_group_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

/// Reaps (and on scope exit kills) the forked children. The controller path
/// rethrows transport errors; this guard guarantees the group never
/// outlives the call, success or failure, and neither does the file its
/// server's listener keeps at `address`: a killed server never closes it.
class ChildReaper {
 public:
  explicit ChildReaper(std::string address) : address_(std::move(address)) {}

  ~ChildReaper() {
    for (const pid_t pid : children_) {
      ::kill(pid, SIGKILL);
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    net::remove_listener_files(address_);
  }

  ChildReaper(const ChildReaper&) = delete;
  ChildReaper& operator=(const ChildReaper&) = delete;

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
  std::string address_;
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

// ---- Fault-tolerant PS wire client ------------------------------------------

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


/// One PS worker process. It inherits ALL k NodeWalks from the pre-fork
/// setup but draws only its assigned ones; adopting an orphaned walk after
/// a crash means fast-forwarding the pristine inherited walk to the
/// server's applied-draw count (one next() per draw — in-memory walks are
/// deterministic sample streams, and run_param_server admits crashes on no
/// other), then continuing where the dead rank left off. The worker draws
/// one sample ahead, so each push travels with the next draw's columns in
/// one kPushStep. A scripted FaultScenario crash is a clean _exit(0) right
/// after the acked kPush of its last push.
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
  // One drawn sample and the walk it came from. It is held past the next
  // draw, which may evict its shard on a shard-major walk, so it pins the
  // shard (null on in-memory walks), as the simulator's PsStep does.
  struct Draw {
    std::uint32_t walk = 0;
    sparse::SparseVectorView x;
    double label = 0;
    double weight = 0;
    data::ShardPtr shard;
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
      return Draw{w, s.matrix->row(s.row), s.matrix->label(s.row), s.weight,
                  walks[w].resident()};
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
void allreduce_server_main(std::unique_ptr<net::Listener> listener,
                           std::size_t k, std::size_t dim,
                           std::size_t rounds_per_epoch,
                           double samples_per_round,
                           const solvers::SolverOptions& options) {
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

using RespawnFn = std::function<void(std::size_t rank)>;

/// Runs the controller loop: record traces at fences, decide continuation,
/// and — when `respawn` is non-null (PS groups) — plan next epoch's
/// walk→rank assignment from the server's liveness report, forking a
/// replacement worker when the scripted scenario says the crashed rank
/// rejoins, and count crashes, rejoins and wire retries into `recovery`.
/// Returns the last fence (final counters + model).
FencePoint run_controller(net::Endpoint& ep, std::size_t k, std::size_t dim,
                          const solvers::SolverOptions& options,
                          const ClusterSpec& spec,
                          solvers::TraceRecorder& recorder,
                          double* train_seconds_out, const RespawnFn* respawn,
                          ParamServerReport* recovery) {
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
        if (alive[r] && !point.alive[r]) ++recovery->crash_events;
      }
      alive = point.alive;
      recovery->wire_retries = point.retries;
      const FaultScenario& scenario = spec.fault;
      if (cont && scenario.enabled() && scenario.rejoin_epoch != 0 &&
          scenario.rejoin_epoch == point.epoch + 1 &&
          !alive[scenario.crash_node]) {
        // Fork the replacement BEFORE replying: by the time the server acts
        // on the admission, the process exists and is connecting.
        (*respawn)(scenario.crash_node);
        alive[scenario.crash_node] = 1;
        ++recovery->rejoin_events;
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

/// Forks the server, which binds the group's address, reports it through a
/// pipe and hands its listener to `server_fn`, then k× `worker_fn`; runs the
/// controller loop in the calling process, and reaps the group. A non-null
/// `recovery` (PS groups) enables the liveness/assignment protocol and
/// scripted respawns, and receives their counts.
template <typename ServerFn, typename WorkerFn>
FencePoint run_group(std::size_t k, std::size_t dim,
                     const solvers::SolverOptions& options,
                     const ClusterSpec& spec, solvers::TraceRecorder& recorder,
                     double* train_seconds, ParamServerReport* recovery,
                     ServerFn&& server_fn, WorkerFn&& worker_fn) {
  const std::string bind = pick_address(spec);
  int addr_pipe[2];
  if (::pipe(addr_pipe) < 0) {
    throw std::runtime_error("pipe() failed for the distributed group");
  }
  ChildReaper reaper(bind);
  const pid_t server_pid = ::fork();
  if (server_pid < 0) throw std::runtime_error("fork() failed (server)");
  if (server_pid == 0) {
    ::close(addr_pipe[0]);
    try {
      std::unique_ptr<net::Listener> listener = net::listen(bind);
      report_address(addr_pipe[1], listener->address());
      server_fn(std::move(listener));
      ::_exit(0);
    } catch (...) {
      ::_exit(1);
    }
  }
  reaper.add(server_pid);
  ::close(addr_pipe[1]);
  const std::string address = read_address(addr_pipe[0]);

  // A worker dies with the thread that forks it, which stays here until
  // the group is reaped: a killed controller takes its workers along.
  const pid_t controller = ::getpid();
  auto spawn_worker = [&](std::size_t rank, bool rejoiner) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork() failed (worker)");
    if (pid == 0) {
      // The controller may have died before the signal was armed.
      if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 ||
          ::getppid() != controller) {
        ::_exit(1);
      }
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
                     recovery ? &respawn : nullptr, recovery);
  ep->close();
  reaper.join_all();
  return last;
}

}  // namespace

namespace detail {

std::vector<double> run_ps_group(fenced::Setup& setup, std::size_t dim,
                                 const objectives::Objective& objective,
                                 const solvers::SolverOptions& options,
                                 const ClusterSpec& spec,
                                 solvers::TraceRecorder& recorder,
                                 ParamServerReport& report) {
  // Every process inherits the same plan and the same seeded walks (a
  // rejoining replacement, forked from the controller at a fence, inherits
  // them pristine and fast-forwards).
  const std::size_t k = setup.k;
  if (spec.fault.enabled()) spec.fault.validate(k);
  FencePoint last = run_group(
      k, dim, options, spec, recorder, &report.simulated_seconds, &report,
      [&](std::unique_ptr<net::Listener> listener) {
        serve_parameter_server(std::move(listener), k, dim, options, spec);
      },
      [&](std::size_t rank, const std::string& address, bool rejoiner) {
        ps_worker_main(address, rank, setup.walks, objective, options, spec,
                       rejoiner);
      });
  report.messages = last.c1;
  report.bytes_sent = last.c2;
  return std::move(last.w);
}

std::vector<double> run_allreduce_group(
    fenced::Setup& setup, std::size_t dim, std::size_t rounds_per_epoch,
    std::size_t batch, const objectives::Objective& objective,
    const solvers::SolverOptions& options, const ClusterSpec& spec,
    solvers::TraceRecorder& recorder, AllreduceReport& report) {
  const std::size_t k = setup.k;
  const double samples_per_round = static_cast<double>(k * batch);
  FencePoint last = run_group(
      k, dim, options, spec, recorder, &report.simulated_seconds,
      /*recovery=*/nullptr,
      [&](std::unique_ptr<net::Listener> listener) {
        allreduce_server_main(std::move(listener), k, dim, rounds_per_epoch,
                              samples_per_round, options);
      },
      [&](std::size_t rank, const std::string& address, bool /*rejoiner*/) {
        allreduce_worker_main(address, rank, setup.walks[rank], objective,
                              options, dim, rounds_per_epoch, batch);
      });
  report.rounds = last.c0;
  return std::move(last.w);
}

}  // namespace detail

}  // namespace isasgd::distributed
