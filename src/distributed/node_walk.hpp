// NodeWalk: one node's deterministic sample stream, shared verbatim by every
// distributed engine — the simulators on both schedules and the real worker
// processes.
//
// Bit-identity between the simulated and the real backend (the process
// backend's correctness anchor — see ClusterSpec::Schedule) reduces to one
// requirement: for a fixed seed, node a must draw the *same* sample
// sequence with the *same* importance reweights in both worlds. Rather than
// maintaining copies of the sampling state machine and hoping they stay in
// sync, every engine instantiates this one class: the alias-table
// construction, the RNG consumption pattern, the 1/(N·p) reweighting and
// the shard-walk order live here and nowhere else.
//
// Two shapes, matching the two source shapes fenced::make_ps_setup deals:
//   - in-memory: the node owns one row-level shard of a PartitionPlan over
//     a materialised matrix; a sample is a global row of that matrix.
//   - sharded:   the node owns a list of whole DataSource shard ordinals
//     (the Algorithm-4 deal at shard granularity); a sample is a local row
//     of the resident shard, and the walk advances shards in assigned
//     order, rebuilding the local Eq. 12 sampler on entry.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/data_source.hpp"
#include "partition/partition.hpp"
#include "sampling/alias_table.hpp"
#include "sparse/csr_matrix.hpp"
#include "util/rng.hpp"

namespace isasgd::distributed {

class NodeWalk {
 public:
  /// One drawn sample: a row of `*matrix` plus its IS step reweight
  /// (1/(N·p), or 1.0 under uniform sampling).
  struct Sample {
    const sparse::CsrMatrix* matrix = nullptr;
    std::uint32_t row = 0;
    double weight = 1.0;
  };

  /// In-memory walk over `shard` (spans into a PartitionPlan that must
  /// outlive this walk), sampling rows of `data`.
  NodeWalk(const sparse::CsrMatrix& data, const partition::Shard& shard,
           bool use_importance, std::uint64_t seed);

  /// Shard-major walk over `ordinals` of `source`, with the per-shard
  /// importance vectors and Φ totals computed by the caller's setup pass
  /// (both must outlive this walk).
  NodeWalk(const data::DataSource& source,
           std::span<const std::uint32_t> ordinals,
           const std::vector<std::vector<double>>& shard_importance,
           const std::vector<double>& shard_phi, bool use_importance,
           std::uint64_t seed);

  /// Samples this node draws per epoch (its shard size, or the sum of its
  /// assigned shards' sizes).
  [[nodiscard]] std::size_t epoch_quota() const noexcept { return quota_; }

  /// Rewinds to the start of an epoch (sharded: back to the first assigned
  /// shard). Does NOT reseed — consecutive epochs continue the RNG stream,
  /// exactly like the event-clock engines.
  void begin_epoch();

  /// Draws the next sample. In-memory walks sample with replacement and may
  /// be drawn from indefinitely (the all-reduce rounds need rounds·b draws);
  /// shard-major walks advance through their assigned shards and must be
  /// drawn at most epoch_quota() times per begin_epoch(). The returned
  /// matrix pointer stays valid until the next call.
  [[nodiscard]] Sample next();

  /// The shard the last next() drew from, for callers that hold a sample
  /// past the next draw (an in-flight push pins its rows this way). Null on
  /// in-memory walks, whose matrix outlives the walk.
  [[nodiscard]] const data::ShardPtr& resident() const noexcept {
    return resident_;
  }

 private:
  void enter_shard();

  // Common sampling state for the resident shard (the whole dataset shard
  // on the in-memory path).
  std::vector<double> weight_;
  std::unique_ptr<sampling::AliasTable> sampler_;  // null → uniform
  util::Rng rng_;
  bool use_importance_ = false;
  std::size_t quota_ = 0;  // per-epoch total

  // In-memory path.
  const sparse::CsrMatrix* data_ = nullptr;
  partition::Shard shard_{};

  // Sharded path.
  const data::DataSource* source_ = nullptr;
  std::span<const std::uint32_t> ordinals_;
  // Spans into the caller's heap buffers, so the owner may be moved.
  std::span<const std::vector<double>> shard_importance_;
  std::span<const double> shard_phi_;
  data::ShardPtr resident_;
  std::size_t pos_ = 0;        // index into ordinals_
  std::size_t remaining_ = 0;  // draws left in the resident shard
};

}  // namespace isasgd::distributed
