#include "distributed/ps_server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "distributed/fenced.hpp"
#include "distributed/group.hpp"
#include "distributed/ps_wire.hpp"
#include "net/fault.hpp"

namespace isasgd::distributed {

namespace {

/// Accept/read poll granularity while a fault-tolerant server waits: short
/// enough to notice reconnects promptly, long enough not to spin.
constexpr int kPollMs = 50;

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
  PsServer(std::unique_ptr<net::Listener> listener, std::size_t k,
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
        listener_(std::move(listener)),
        w_(dim, 0.0),
        walk_draws_(k, 0),
        ranks_(k) {
    window_.reserve(k);
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
  /// Each accept waits at most kPollMs, and until the shutdown drain the
  /// controller is looked at between waits, so a run whose controller is
  /// gone ends at once instead of at the deadline.
  bool await_rank(std::size_t target, Clock::time_point deadline) {
    listener_->set_accept_timeout(kPollMs);
    while (Clock::now() < deadline) {
      if (!draining_) check_controller();
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

  /// Throws kClosed once the controller's connection has closed. Between a
  /// kFence reply and the next kFence the controller sends nothing, so a
  /// look that reads no bytes cannot desynchronise its stream; a byte that
  /// does arrive breaks the protocol.
  void check_controller() {
    char byte;
    controller_->set_io_timeout(0);
    try {
      controller_->recv_bytes(&byte, 1);
    } catch (const net::TransportError& e) {
      controller_->set_io_timeout(kGroupIoTimeoutMs);
      if (e.kind() == net::TransportError::Kind::kTimeout) return;
      throw;
    }
    throw net::TransportError(net::TransportError::Kind::kProtocol,
                              "ps server: the controller sent data mid-epoch");
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
  /// failure drops the connection (see drop) — a reconnecting worker
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
      drop(static_cast<std::size_t>(&rs - ranks_.data()));
    }
  }

  /// Drops rank r's closed connection, for await_rank to wait out. Only a
  /// fault-tolerant group reconnects: in a fault-free one a live worker
  /// closes only after its last kEpochGo, which no read or send follows,
  /// so a close means the worker died and the run ends at once instead of
  /// at the group's I/O deadline.
  void drop(std::size_t r) {
    if (!ft_) {
      throw net::TransportError(
          net::TransportError::Kind::kClosed,
          "ps server: worker rank " + std::to_string(r) +
              " closed its connection in a fault-free group");
    }
    ranks_[r].ep.reset();
  }

  /// Reads rank r's next frame into frame_; false once `deadline` passes.
  /// Whenever the rank's connection is down it waits for a reconnect
  /// instead (each such wait capped at `reconnect_ms` when positive); in a
  /// fault-tolerant group a closed connection means the worker died or is
  /// reconnecting, and await_rank decides which.
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
        drop(r);
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
    draining_ = true;  // the controller's close is expected from here on
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
  bool draining_ = false;
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

}  // namespace

void serve_parameter_server(std::unique_ptr<net::Listener> listener,
                            std::size_t k, std::size_t dim,
                            const solvers::SolverOptions& options,
                            const ClusterSpec& spec) {
  PsServer server(std::move(listener), k, dim, options, spec);
  server.run();
}

}  // namespace isasgd::distributed
