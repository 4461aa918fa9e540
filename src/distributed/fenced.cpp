#include "distributed/fenced.hpp"

#include <algorithm>

#include "solvers/importance_weights.hpp"
#include "util/rng.hpp"

namespace isasgd::distributed::fenced {

namespace {

// Seed salts. Each engine family draws its own shuffle and walk streams, so
// a parameter-server run and an all-reduce run of the same options never
// share a sample sequence.
constexpr std::uint64_t kPsShuffleSalt = 0xd157;
constexpr std::uint64_t kPsWalkSalt = 0xc0de;
constexpr std::uint64_t kAllreduceShuffleSalt = 0xa11d;
constexpr std::uint64_t kAllreduceWalkSalt = 0xa22d;

/// The Algorithm-4 partition options: `options.partition` under importance
/// sampling, a seeded shuffle split for the uniform baseline.
partition::PartitionOptions plan_options(const solvers::SolverOptions& options,
                                         bool use_importance,
                                         std::uint64_t shuffle_salt) {
  partition::PartitionOptions popt = options.partition;
  if (!use_importance) popt.strategy = partition::Strategy::kShuffle;
  popt.shuffle_seed = options.seed ^ shuffle_salt;
  return popt;
}

/// The row-level setup over an in-memory matrix, shared by both engine
/// families: the partition over per-row importance, and node a's walk
/// seeded with derive_seed(seed, walk_salt + a).
Setup make_row_setup(const sparse::CsrMatrix& data,
                     const objectives::Objective& objective,
                     const solvers::SolverOptions& options, std::size_t nodes,
                     bool use_importance, std::uint64_t shuffle_salt,
                     std::uint64_t walk_salt) {
  Setup setup;
  setup.k = std::min(nodes, data.rows());
  setup.importance =
      solvers::detail::importance_weights(data, objective, options);
  setup.plan = std::make_unique<partition::PartitionPlan>(
      setup.importance, setup.k,
      plan_options(options, use_importance, shuffle_salt));
  setup.walks.reserve(setup.k);
  for (std::size_t a = 0; a < setup.k; ++a) {
    setup.walks.emplace_back(data, setup.plan->shard(a), use_importance,
                             util::derive_seed(options.seed, walk_salt + a));
  }
  return setup;
}

}  // namespace

Setup make_ps_setup(const sparse::CsrMatrix& data,
                    const objectives::Objective& objective,
                    const solvers::SolverOptions& options, std::size_t nodes,
                    bool use_importance) {
  return make_row_setup(data, objective, options, nodes, use_importance,
                        kPsShuffleSalt, kPsWalkSalt);
}

Setup make_ps_setup(const data::DataSource& source,
                    const objectives::Objective& objective,
                    const solvers::SolverOptions& options, std::size_t nodes,
                    bool use_importance) {
  const std::size_t shards = source.shard_count();
  if (shards <= 1) {
    return make_ps_setup(source.materialize(), objective, options, nodes,
                         use_importance);
  }
  Setup setup;
  setup.k = std::min(nodes, shards);
  setup.shard_importance.resize(shards);
  setup.shard_phi.resize(shards);
  const data::RowStats* stats = source.row_stats();
  const bool from_stats =
      stats != nullptr && solvers::detail::stats_feed_importance(options);
  for (std::size_t s = 0; s < shards; ++s) {
    if (from_stats) {
      // Sidecar-fed: importance from pack-time row stats, in shard row
      // order — bit-identical to the loaded pass, with zero shard loads.
      setup.shard_importance[s] =
          solvers::detail::importance_weights_from_stats(
              *stats, source.shard_begin(s), source.shard_rows(s), objective,
              options);
    } else {
      if (s + 1 < shards) source.prefetch(s + 1);
      setup.shard_importance[s] = solvers::detail::importance_weights(
          *source.shard(s)->matrix, objective, options);
    }
    double total = 0;
    for (const double v : setup.shard_importance[s]) total += v;
    setup.shard_phi[s] = total;
  }
  setup.plan = std::make_unique<partition::PartitionPlan>(
      setup.shard_phi, setup.k,
      plan_options(options, use_importance, kPsShuffleSalt));
  setup.walks.reserve(setup.k);
  for (std::size_t a = 0; a < setup.k; ++a) {
    setup.walks.emplace_back(source, setup.plan->shard(a).rows,
                             setup.shard_importance, setup.shard_phi,
                             use_importance,
                             util::derive_seed(options.seed, kPsWalkSalt + a));
  }
  return setup;
}

Setup make_allreduce_setup(const sparse::CsrMatrix& data,
                           const objectives::Objective& objective,
                           const solvers::SolverOptions& options,
                           std::size_t nodes, bool use_importance) {
  return make_row_setup(data, objective, options, nodes, use_importance,
                        kAllreduceShuffleSalt, kAllreduceWalkSalt);
}

}  // namespace isasgd::distributed::fenced
