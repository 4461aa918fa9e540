// Crash/rejoin scenarios and recovery policies for the distributed engines.
//
// The unit of re-shardable work is the NodeWalk: walk w is "home" to rank w
// and is a deterministic sample stream (in-memory walks consume exactly one
// sampler draw per next() and begin_epoch() is a no-op, so any process that
// holds walk w's initial state can fast-forward it to draw N by calling
// next() N times). That property turns crash recovery into bookkeeping: the
// server counts applied draws per walk, the controller re-plans the
// walk→rank assignment at an epoch fence, and whichever rank adopts a walk
// replays it to the server's count before continuing — bit-identical to a
// single process that never crashed running the same assignment history.
//
// plan_assignment is the ONE implementation of that re-planning, shared by
// the real controller and the sim.* mirrors so a clean scripted crash
// produces the same assignment history (hence the same model bits) in both
// worlds. CrashRoster is the ONE implementation of the scripted crash the
// simulators replay around it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace isasgd::distributed {

enum class RecoveryPolicy {
  /// A dead rank's walks go unexecuted until (if ever) it rejoins. The
  /// baseline the ablation bench compares against: the model keeps training
  /// on the surviving shards only, so the lost shard's data is simply
  /// missing from every epoch until the rejoin.
  kNone,
  /// A dead rank's walks are re-dealt to survivors at the next epoch fence
  /// (fewest-walks-first, lowest rank on ties); a rejoining rank takes its
  /// home walk back at the fence after it is admitted.
  kReshard,
};

[[nodiscard]] constexpr const char* recovery_policy_name(
    RecoveryPolicy p) noexcept {
  return p == RecoveryPolicy::kNone ? "none" : "reshard";
}

/// One scripted fault, for deterministic conformance tests and ablations.
/// The crash is *clean* by construction — the worker exits between two
/// complete push round trips — which is what makes the real run comparable
/// bit-for-bit against the sim mirror. (Unclean deaths mid-frame are the
/// wire-fault layer's department; the recovery protocol handles those too,
/// just without a scripted sim twin.)
struct FaultScenario {
  /// Rank that crashes.
  std::size_t crash_node = 0;
  /// Epoch (1-based) during which it crashes; 0 = no scripted crash.
  std::size_t crash_epoch = 0;
  /// Fraction of its epoch quota it completes before dying, in [0, 1).
  double crash_fraction = 0.5;
  /// First epoch a replacement worker participates again; 0 = never. Must
  /// leave at least one full epoch of absence (rejoin_epoch > crash_epoch+1
  /// ... == crash_epoch + 1 means the replacement is admitted at the very
  /// fence that detected the crash).
  std::size_t rejoin_epoch = 0;

  [[nodiscard]] bool enabled() const noexcept { return crash_epoch > 0; }

  /// Throws std::invalid_argument naming the offending field.
  void validate(std::size_t nodes) const;
};

/// Knobs of the fault-tolerant wire client/server. Only consulted when a
/// FaultScenario or wire FaultSpec is active — a fault-free run keeps the
/// generous legacy deadlines so slow CI machines never trip recovery paths.
struct RecoveryOptions {
  RecoveryPolicy policy = RecoveryPolicy::kReshard;
  /// Server-side deadline for one worker's next frame (including any
  /// reconnect) before the rank is declared dead for the epoch.
  int liveness_timeout_ms = 2000;
  /// Worker-side deadline for one request's reply before a retransmit.
  int reply_timeout_ms = 250;
  /// Worker-side deadline for the kEpochGo after kEpochEnd (the fence can
  /// legitimately take long: controller eval + dead-rank detection).
  int fence_reply_timeout_ms = 60000;
  /// Retransmits/reconnects per request before the worker gives up.
  std::size_t max_retries = 64;
  /// Backoff between retries (seeded per rank from the wire-fault seed).
  double backoff_initial_ms = 2.0;
  double backoff_max_ms = 100.0;
  double backoff_jitter = 0.5;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// walks_of[rank] = walk ids rank executes next epoch, in execution order.
using Assignment = std::vector<std::vector<std::uint32_t>>;

/// The pure fence-time re-planning shared by the real controller and the
/// sim mirrors. `alive[r]` says whether rank r participates next epoch.
/// Every alive rank holds its home walk; orphaned walks (home rank dead)
/// are dealt to survivors under kReshard (fewest walks first, lowest rank
/// on ties, orphans in ascending walk order) or left unassigned under
/// kNone. Idempotent: a function of (alive, policy) only, so replanning at
/// every fence cannot drift from replanning only on membership changes.
[[nodiscard]] Assignment plan_assignment(std::size_t k,
                                         const std::vector<char>& alive,
                                         RecoveryPolicy policy);

/// The all-alive assignment: walk r to rank r.
[[nodiscard]] Assignment identity_assignment(std::size_t k);

/// The scripted-crash roster the parameter-server simulator runs on both
/// schedules: which executors (ranks) are alive, which walks each executes
/// this epoch (the fence-time plan_assignment), how many draws every walk
/// has left, and the FaultScenario's crash countdown and rejoin. The
/// schedule only decides *when* an executor asks for work (round-robin
/// turns or simulated-time events); what it gets is decided here, once.
///
/// The crash is replayed exactly where the real server observes it: the
/// scripted executor dies at the turn on which it would start one draw past
/// crash_fraction of its epoch quota. Its unfinished quota is lost (the
/// real server never reassigns mid-epoch); at the next fence its walks are
/// re-planned by plan_assignment.
class CrashRoster {
 public:
  /// `walk_quota[w]` is walk w's draws per epoch; there is one walk per
  /// executor, an in-memory walk an adopter can fast-forward (run_param_server
  /// rejects a scenario on shard-major walks). Throws std::invalid_argument
  /// when the scenario does not fit the executor count.
  CrashRoster(const FaultScenario& scenario, RecoveryPolicy policy,
              std::vector<std::size_t> walk_quota);

  /// Opens `epoch` (1-based): admits a scripted rejoin, refills the quota
  /// of every walk an alive executor holds, and arms the crash countdown.
  void begin_epoch(std::size_t epoch);

  /// Consumes one draw for executor e and returns the walk it draws from,
  /// or nothing when e is dead, has drained its walks for the epoch, or
  /// dies at this turn.
  [[nodiscard]] std::optional<std::uint32_t> take(std::size_t e);

  /// Epoch fence: re-plans the assignment when a scenario is active.
  void end_epoch();

  /// Draws left this epoch across all alive executors.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  [[nodiscard]] std::uint64_t crash_events() const noexcept {
    return crash_events_;
  }
  [[nodiscard]] std::uint64_t rejoin_events() const noexcept {
    return rejoin_events_;
  }

 private:
  FaultScenario scenario_;
  RecoveryPolicy policy_;
  std::vector<std::size_t> quota_;
  std::vector<char> alive_;
  Assignment assign_;
  std::vector<std::size_t> cursor_;     // per executor, into assign_[e]
  std::vector<std::size_t> remaining_;  // per walk, this epoch
  std::size_t pending_ = 0;
  bool crashing_ = false;
  std::size_t draws_before_crash_ = 0;  // left to the crashing executor
  std::uint64_t crash_events_ = 0;
  std::uint64_t rejoin_events_ = 0;
};

}  // namespace isasgd::distributed
