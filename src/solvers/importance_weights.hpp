// Importance vectors for the IS solvers: the per-sample weights that define
// p_i (paper Eq. 12 or the Eq. 16 gradient-bound variant).
//
// Two feeds for the same numbers:
//  * the loaded path — an O(nnz) pass over a CsrMatrix;
//  * the sidecar path — pack-time per-row squared norms (data::RowStats,
//    carried by io::shardpack files), usable whenever the configured
//    importance depends on x_i only through ‖x_i‖². That is exactly
//    ImportanceKind::kLipschitz (L_i = β·‖x_i‖² + reg term); the
//    gradient-bound variant calls a virtual per-objective bound over the
//    row view, so it keeps the loaded path.
// The sidecar stores the *exact* f64 result of row(i).squared_norm(), and
// the helpers below apply the exact loaded-path arithmetic to it, so the
// two feeds are bit-identical — sidecar-fed setup changes how many data
// passes a run costs, never its model. Both feeds run through one
// row-range body, importance_rows; IS-ASGD maps it over its pool team, and
// since each row's arithmetic is the serial one, the team never changes a
// bit of the vector.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "data/data_source.hpp"
#include "objectives/objective.hpp"
#include "solvers/options.hpp"
#include "sparse/csr_matrix.hpp"
#include "util/thread_pool.hpp"

namespace isasgd::solvers::detail {

/// The one importance body: the weights of global rows [begin, begin +
/// out.size()) into `out`, from the sidecar's squared norms when `stats` is
/// non-null (only valid when stats_feed_importance(options)), else from the
/// rows of `data`.
inline void importance_rows(const sparse::CsrMatrix* data,
                            const data::RowStats* stats, std::size_t begin,
                            std::span<double> out,
                            const objectives::Objective& objective,
                            const SolverOptions& options) {
  if (stats != nullptr || options.importance == ImportanceKind::kLipschitz) {
    // L_i = β·‖x_i‖² + reg term: per_sample_lipschitz's arithmetic, over
    // either feed's exact squared norm.
    const double beta = objective.smoothness();
    const double reg_term = options.reg.lipschitz_term();
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double sq = stats != nullptr
                            ? stats->row_squared_norm(begin + i)
                            : data->row(begin + i).squared_norm();
      out[i] = beta * sq + reg_term;
    }
    return;
  }
  // Eq. 16-style: supremum of the gradient norm over a unit model ball.
  constexpr double kRadius = 1.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = objective.gradient_norm_bound(
        data->row(begin + i), data->label(begin + i), kRadius, options.reg);
  }
}

/// The importance vector (unnormalised sampling weights) of `data` as a
/// row-split map over `team` workers of `pool`: worker t fills rows
/// [n·t/team, n·(t+1)/team) with importance_rows, so every team yields the
/// serial vector bit for bit; team 1 runs inline. `stats` selects the
/// sidecar feed as importance_rows does.
inline std::vector<double> importance_weights(
    const sparse::CsrMatrix& data, const objectives::Objective& objective,
    const SolverOptions& options, const data::RowStats* stats,
    util::ThreadPool& pool, std::size_t team) {
  const std::size_t n = data.rows();
  team = std::max<std::size_t>(1, team);
  std::vector<double> weights(n);
  pool.run(team, [&](std::size_t t) {
    const std::size_t begin = n * t / team, end = n * (t + 1) / team;
    importance_rows(&data, stats, begin,
                    std::span<double>(weights).subspan(begin, end - begin),
                    objective, options);
  });
  return weights;
}

/// Computes the importance vector for `data` under the configured
/// ImportanceKind: the serial (team-1) case of the row-split map.
inline std::vector<double> importance_weights(
    const sparse::CsrMatrix& data, const objectives::Objective& objective,
    const SolverOptions& options) {
  std::vector<double> weights(data.rows());
  importance_rows(&data, nullptr, 0, weights, objective, options);
  return weights;
}

/// True when the configured importance can be computed from pack-time row
/// stats alone (see file comment).
inline bool stats_feed_importance(const SolverOptions& options) {
  return options.importance == ImportanceKind::kLipschitz;
}

/// Sidecar-fed importance for global rows [row_begin, row_begin + rows):
/// L_i = β·‖x_i‖² + reg term, the exact per_sample_lipschitz arithmetic
/// over the sidecar's exact squared norms — bit-identical to the loaded
/// path. Only valid when stats_feed_importance(options).
inline std::vector<double> importance_weights_from_stats(
    const data::RowStats& stats, std::size_t row_begin, std::size_t rows,
    const objectives::Objective& objective, const SolverOptions& options) {
  std::vector<double> weights(rows);
  importance_rows(nullptr, &stats, row_begin, weights, objective, options);
  return weights;
}

}  // namespace isasgd::solvers::detail
