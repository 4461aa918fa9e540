// Micro benchmarks for the kernels whose cost structure the paper's argument
// rests on, plus the fused/unrolled kernels introduced with the shared
// execution engine:
//   * index-compressed (sparse) update vs dense full-length update — Fig. 1,
//   * scalar reference loops vs the vectorized kernels in sparse/kernels.cpp
//     (unrolled dense_dot, sparse_dot_pair, sparse_dot_residual_axpy,
//     scale_then_sparse_axpy) — the contract is "fused never loses",
//   * alias vs CDF vs uniform sampling — "IS adds no per-iteration cost",
//   * SharedModel wild vs atomic add under a single writer,
//   * io::crc32's table loop vs its folded carry-less-multiply body, over
//     one packed-ooc shard's bytes — the check every cold shard fault runs,
//   * the Φ balancers' row order (partition::detail::value_order's radix
//     sort) vs the iota + std::stable_sort it replaced, on 30,000
//     tie-heavy importances — the bulk of IS-ASGD's offline phase.
//
// Self-contained timing harness (no google-benchmark): every entry reports
// ns/op and Mitems/s, one row each of the bench record (BENCH_kernels.json
// by default; docs/PERF.md, *Bench records*).
//
// With runtime dispatch the table also carries a per-backend ladder: each
// available backend {scalar, avx2, avx512} is timed through its own
// KernelTable on the representative kernels, reported as `kernel/backend`
// rows. The legacy unsuffixed rows keep measuring whatever backend is
// active (so existing baselines stay comparable across checkouts).
//
// Usage:
//   micro_kernels [--out FILE] [--check] [--min-time SECONDS]
//                 [--backend scalar|avx2|avx512]
//     --backend : pin the active dispatch backend before measuring (same
//               effect as ISASGD_KERNEL_BACKEND; fails if unavailable).
//     --check : exit non-zero if (a) any fused/unrolled kernel falls below
//               REGRESSION_FLOOR × its scalar baseline's throughput — the
//               CI smoke gate (the floor is deliberately loose so scheduler
//               noise on shared runners cannot flake the job; locally the
//               fused kernels should simply win) — or (b) any available
//               vector backend produces results that are not bit-identical
//               to the scalar backend on randomized inputs, or (c) the two
//               CRC-32 bodies disagree, or (d) the radix balance order is
//               not the stable sort's permutation. A scalar-pinned run has
//               no folded CRC body to time or compare, and skips its row.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "io/crc32.hpp"
#include "objectives/objective.hpp"
#include "partition/balancer.hpp"
#include "sampling/alias_table.hpp"
#include "sampling/cdf_sampler.hpp"
#include "sampling/sequence.hpp"
#include "solvers/model.hpp"
#include "sparse/dispatch.hpp"
#include "sparse/kernels.hpp"
#include "sparse/sparse_vector.hpp"
#include "util/rng.hpp"

namespace {

using namespace isasgd;

constexpr double kRegressionFloor = 0.75;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct BenchResult {
  std::string name;
  std::string baseline;  // empty for baselines themselves
  double ns_per_op = 0;
  double items_per_sec = 0;
  double speedup = 0;   // vs baseline's ns_per_op; 0 when no baseline
  bool gated = true;    // false: speedup is informational, not a CI gate
};

double g_min_time_s = 0.05;
std::vector<BenchResult> g_results;
double g_sink = 0;  // defeats dead-code elimination across benches

/// Times `body(iters)` (which must perform `iters` repetitions) until the
/// measurement window exceeds g_min_time_s, and records ns per repetition.
/// `items_per_op` scales the throughput column (e.g. d for a dense pass).
void bench(const std::string& name, const std::string& baseline,
           double items_per_op, const std::function<void(std::size_t)>& body,
           bool gated = true) {
  using clock = std::chrono::steady_clock;
  std::size_t iters = 1;
  double seconds = 0;
  for (;;) {
    const auto t0 = clock::now();
    body(iters);
    seconds = std::chrono::duration<double>(clock::now() - t0).count();
    if (seconds >= g_min_time_s) break;
    const double target = g_min_time_s * 1.4;
    const std::size_t next =
        seconds > 0 ? static_cast<std::size_t>(
                          static_cast<double>(iters) * target / seconds) + 1
                    : iters * 16;
    iters = std::max(next, iters * 2);
  }
  BenchResult r;
  r.name = name;
  r.baseline = baseline;
  r.gated = gated;
  r.ns_per_op = seconds * 1e9 / static_cast<double>(iters);
  r.items_per_sec =
      items_per_op * static_cast<double>(iters) / seconds;
  if (!baseline.empty()) {
    for (const BenchResult& b : g_results) {
      if (b.name == baseline) {
        r.speedup = b.ns_per_op / r.ns_per_op;
        break;
      }
    }
  }
  g_results.push_back(r);
  std::printf("%-34s %12.2f ns/op %12.1f Mitems/s", r.name.c_str(),
              r.ns_per_op, r.items_per_sec / 1e6);
  if (r.speedup > 0) std::printf("   %5.2fx vs %s", r.speedup,
                                 r.baseline.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

sparse::SparseVector make_row(std::size_t dim, std::size_t nnz,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<sparse::index_t> idx;
  while (idx.size() < nnz) {
    const auto j =
        static_cast<sparse::index_t>(util::uniform_index(rng, dim));
    if (std::find(idx.begin(), idx.end(), j) == idx.end()) idx.push_back(j);
  }
  std::sort(idx.begin(), idx.end());
  std::vector<sparse::value_t> val(nnz);
  for (auto& v : val) v = util::normal_double(rng);
  return sparse::SparseVector(std::move(idx), std::move(val));
}

// ---------------------------------------------------------------------------
// Scalar reference loops — frozen copies of the pre-vectorization solver
// inner loops (including the out-of-line Regularization::subgradient call
// per touched coordinate the old code paid), the baselines the
// fused/unrolled kernels must beat.
// ---------------------------------------------------------------------------

double scalar_dense_dot(std::span<const double> a, std::span<const double> b) {
  double acc = 0;
  for (std::size_t j = 0; j < a.size(); ++j) acc += a[j] * b[j];
  return acc;
}

double scalar_sparse_dot(std::span<const double> w,
                         sparse::SparseVectorView x) {
  const auto idx = x.indices();
  const auto val = x.values();
  double acc = 0;
  for (std::size_t k = 0; k < idx.size(); ++k) acc += w[idx[k]] * val[k];
  return acc;
}

void scalar_sgd_step(std::span<double> w, sparse::SparseVectorView x,
                     double step, double g,
                     const objectives::Regularization& reg) {
  const auto idx = x.indices();
  const auto val = x.values();
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const std::size_t c = idx[k];
    w[c] -= step * (g * val[k] + reg.subgradient(w[c]));
  }
}

void scalar_svrg_step(std::span<double> w, std::span<const double> mu,
                      double step, const objectives::Regularization& reg,
                      double corr_step, sparse::SparseVectorView x) {
  const auto idx = x.indices();
  const auto val = x.values();
  for (std::size_t k = 0; k < idx.size(); ++k) {
    w[idx[k]] -= corr_step * val[k];
  }
  for (std::size_t j = 0; j < w.size(); ++j) {
    w[j] -= step * (mu[j] + reg.subgradient(w[j]));
  }
}

// ---------------------------------------------------------------------------
// Bench groups
// ---------------------------------------------------------------------------

void bench_dense_kernels() {
  const std::size_t d = std::size_t{1} << 16;
  std::vector<double> a(d), b(d);
  util::Rng rng(1);
  for (auto& v : a) v = util::normal_double(rng);
  for (auto& v : b) v = util::normal_double(rng);

  bench("dense_dot_scalar", "", static_cast<double>(d), [&](std::size_t it) {
    double acc = 0;
    for (std::size_t i = 0; i < it; ++i) acc += scalar_dense_dot(a, b);
    g_sink += acc;
  });
  bench("dense_dot_unrolled", "dense_dot_scalar", static_cast<double>(d),
        [&](std::size_t it) {
          double acc = 0;
          for (std::size_t i = 0; i < it; ++i) acc += sparse::dense_dot(a, b);
          g_sink += acc;
        });
  bench("dense_axpy", "", static_cast<double>(d), [&](std::size_t it) {
    for (std::size_t i = 0; i < it; ++i) {
      sparse::dense_axpy(a, i % 2 ? 1e-9 : -1e-9, b);
    }
    g_sink += a[0];
  });
}

void bench_sparse_vs_dense_update() {
  // The ASGD inner-loop update (sparse dot + sparse step, cost ~ nnz) vs
  // the SVRG dense μ pass (cost ~ d) — the "index-compressed" gap of Fig. 1.
  const std::size_t d = std::size_t{1} << 18;
  const std::size_t nnz = 10;
  const auto row = make_row(d, nnz, 42);
  std::vector<double> w(d, 0.1), mu(d, 0.01);

  bench("sparse_update_nnz10", "", static_cast<double>(nnz),
        [&](std::size_t it) {
          for (std::size_t i = 0; i < it; ++i) {
            const double margin = sparse::sparse_dot(w, row.view());
            sparse::sparse_dot_residual_axpy(w, row.view(), 1e-9, margin, 0.0,
                                             0.0);
          }
          g_sink += w[row.view().index(0)];
        });
  bench("dense_update_d", "", static_cast<double>(d), [&](std::size_t it) {
    for (std::size_t i = 0; i < it; ++i) {
      sparse::dense_axpy(w, i % 2 ? 1e-9 : -1e-9, mu);
    }
    g_sink += w[0];
  });
}

void bench_fused_sgd_step() {
  const std::size_t d = std::size_t{1} << 18;
  const std::size_t nnz = 64;
  const auto row = make_row(d, nnz, 7);
  std::vector<double> w(d, 0.1);
  const auto reg = objectives::Regularization::l2(1e-4);

  bench("sgd_step_scalar", "", static_cast<double>(nnz),
        [&](std::size_t it) {
          for (std::size_t i = 0; i < it; ++i) {
            const double margin = scalar_sparse_dot(w, row.view());
            scalar_sgd_step(w, row.view(), 1e-9, margin, reg);
          }
          g_sink += w[row.view().index(0)];
        });
  bench("sgd_step_fused", "sgd_step_scalar", static_cast<double>(nnz),
        [&](std::size_t it) {
          for (std::size_t i = 0; i < it; ++i) {
            const double margin = sparse::sparse_dot(w, row.view());
            sparse::sparse_dot_residual_axpy(w, row.view(), 1e-9, margin,
                                             reg.eta_l1(), reg.eta_l2());
          }
          g_sink += w[row.view().index(0)];
        });
}

void bench_fused_sgd_step_l1() {
  // The path every isbench workload trains: L1 over a model that holds both
  // signs and exact zeros. The row above reuses one row on an all-positive
  // model, so a sign branch predicts perfectly there; here 4,096 rows are
  // cycled so no row's sign pattern can be learned. g = 0·margin keeps the
  // pattern stationary (a touched zero stays +0.0, a nonzero coordinate
  // moves by step·eta), and nothing in either kernel depends on g's value.
  const std::size_t d = std::size_t{1} << 17;
  const std::size_t nnz = 64;
  const std::size_t rows = 4096;  // a power of two: i & (rows − 1) cycles
  std::vector<sparse::SparseVector> pool;
  pool.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    pool.push_back(make_row(d, nnz, 1000 + r));
  }
  std::vector<double> w(d);
  util::Rng rng(77);
  for (auto& v : w) {
    v = util::uniform_index(rng, 8) == 0 ? 0.0 : util::normal_double(rng);
  }
  const auto reg = objectives::Regularization::l1(1e-4);

  bench("sgd_step_scalar_l1", "", static_cast<double>(nnz),
        [&](std::size_t it) {
          for (std::size_t i = 0; i < it; ++i) {
            const auto x = pool[i & (rows - 1)].view();
            const double margin = scalar_sparse_dot(w, x);
            scalar_sgd_step(w, x, 1e-9, 0.0 * margin, reg);
          }
          g_sink += w[pool[0].view().index(0)];
        });
  bench("sgd_step_fused_l1", "sgd_step_scalar_l1", static_cast<double>(nnz),
        [&](std::size_t it) {
          for (std::size_t i = 0; i < it; ++i) {
            const auto x = pool[i & (rows - 1)].view();
            const double margin = sparse::sparse_dot(w, x);
            sparse::sparse_dot_residual_axpy(w, x, 1e-9, 0.0 * margin,
                                             reg.eta_l1(), reg.eta_l2());
          }
          g_sink += w[pool[0].view().index(0)];
        });
}

void bench_fused_svrg_step() {
  const std::size_t d = std::size_t{1} << 16;
  const std::size_t nnz = 32;
  const auto row = make_row(d, nnz, 11);
  std::vector<double> w(d, 0.1), s(d, 0.05), mu(d, 0.01);

  bench("svrg_margin_two_dots", "", static_cast<double>(2 * nnz),
        [&](std::size_t it) {
          double acc = 0;
          for (std::size_t i = 0; i < it; ++i) {
            acc += sparse::sparse_dot(w, row.view());
            acc += sparse::sparse_dot(s, row.view());
          }
          g_sink += acc;
        });
  bench("svrg_margin_dot_pair", "svrg_margin_two_dots",
        static_cast<double>(2 * nnz), [&](std::size_t it) {
          double acc = 0;
          for (std::size_t i = 0; i < it; ++i) {
            double mw = 0, ms = 0;
            sparse::sparse_dot_pair(w, s, row.view(), mw, ms);
            acc += mw + ms;
          }
          g_sink += acc;
        });

  const auto reg = objectives::Regularization::l2(1e-4);
  bench("svrg_step_two_pass", "", static_cast<double>(d),
        [&](std::size_t it) {
          for (std::size_t i = 0; i < it; ++i) {
            scalar_svrg_step(w, mu, i % 2 ? 1e-9 : -1e-9, reg, 1e-9,
                             row.view());
          }
          g_sink += w[0];
        });
  bench("svrg_step_fused", "svrg_step_two_pass", static_cast<double>(d),
        [&](std::size_t it) {
          for (std::size_t i = 0; i < it; ++i) {
            sparse::scale_then_sparse_axpy(w, mu, i % 2 ? 1e-9 : -1e-9,
                                           reg.eta_l1(), reg.eta_l2(), 1e-9,
                                           row.view());
          }
          g_sink += w[0];
        });
}

void bench_samplers() {
  // Draw-cost ladder: uniform (the paper's "no IS" reference), the O(log n)
  // CDF binary search, and the O(1) alias draw — the structure the §1.3
  // claim "IS adds no per-iteration cost" rests on. The alias entries are
  // GATED against the O(log n) baseline: an alias draw regressing to within
  // 0.75x of a binary search is a structural sampler regression, caught
  // here before it can hide inside end-to-end noise. The block-refill entry
  // times the streamed-sequence hot path (BlockSequence::next over refilled
  // blocks); it is also gated against the O(log n) baseline rather than raw
  // alias draws — its true cost is alias + store (~0.85-0.9x of a bare
  // draw), too thin a guard band for a 0.75 floor on noisy shared runners,
  // while the log-n baseline still catches any structural regression of the
  // refill path. The refill-vs-alias delta stays visible in the record.
  const std::size_t n = std::size_t{1} << 20;
  util::Rng wrng(8);
  std::vector<double> weights(n);
  for (auto& v : weights) v = util::uniform_double(wrng) + 0.01;

  {
    util::Rng rng(7);
    bench("sample_uniform", "", 1.0, [&](std::size_t it) {
      std::uint64_t sink = 0;
      for (std::size_t i = 0; i < it; ++i) sink += util::uniform_index(rng, n);
      g_sink += static_cast<double>(sink & 0xff);
    });
  }
  {
    sampling::CdfSampler sampler(weights);
    util::Rng rng(9);
    bench("sample_cdf", "", 1.0, [&](std::size_t it) {
      std::uint64_t sink = 0;
      for (std::size_t i = 0; i < it; ++i) sink += sampler.sample(rng);
      g_sink += static_cast<double>(sink & 0xff);
    });
  }
  {
    sampling::AliasTable table(weights);
    util::Rng rng(8);
    bench("sample_alias", "sample_cdf", 1.0, [&](std::size_t it) {
      std::uint64_t sink = 0;
      for (std::size_t i = 0; i < it; ++i) sink += table.sample(rng);
      g_sink += static_cast<double>(sink & 0xff);
    });
  }
  {
    // The solvers' actual draw path: block refill + inline cursor.
    sampling::BlockSequence seq(sampling::BlockSequence::Mode::kIid, weights,
                                n, /*seed=*/0);
    std::size_t left = 0;
    std::uint64_t epoch = 0;
    bench("sample_block_refill", "sample_cdf", 1.0, [&](std::size_t it) {
      std::uint64_t sink = 0;
      for (std::size_t i = 0; i < it; ++i) {
        if (left == 0) {
          seq.begin_epoch(1, ++epoch);
          left = seq.epoch_length();
        }
        sink += seq.next();
        --left;
      }
      g_sink += static_cast<double>(sink & 0xff);
    });
  }
  {
    // Construction cost per element: the once-per-weight-change price the
    // streamed scheme pays (vs once per epoch pre-streaming).
    bench("alias_build_per_elem", "", static_cast<double>(n),
          [&](std::size_t it) {
            for (std::size_t i = 0; i < it; ++i) {
              sampling::AliasTable table(weights);
              g_sink += table.probability(i & (n - 1));
            }
          });
  }
}

void bench_backend_ladder() {
  // Per-ISA ladder: the same representative kernels timed through every
  // available backend's KernelTable, reported as `kernel/backend` rows.
  // Vector rows carry their `/scalar` counterpart as baseline so the record
  // shows the realized SIMD speedup, but they are NOT gated: on a gather-
  // bound sparse kernel a vector backend is allowed to tie the scalar one —
  // the dispatch contract is bit-identity, not a throughput floor, and that
  // contract is enforced by check_backend_parity() instead.
  namespace k = sparse::kernels;
  const std::size_t d = std::size_t{1} << 16;
  std::vector<double> a(d), b(d), mu(d, 0.01);
  util::Rng rng(21);
  for (auto& v : a) v = util::normal_double(rng);
  for (auto& v : b) v = util::normal_double(rng);
  const std::size_t nnz = 64;
  const auto row = make_row(d, nnz, 23);
  const auto reg = objectives::Regularization::l2(1e-4);

  for (const k::Backend be : k::available_backends()) {
    const k::KernelTable& t = *k::table_for(be);
    const std::string suffix = "/" + k::backend_name(be);
    const bool is_scalar = be == k::Backend::kScalar;
    const auto base = [&](const char* kernel) {
      return is_scalar ? std::string() : std::string(kernel) + "/scalar";
    };

    bench("dense_dot" + suffix, base("dense_dot"), static_cast<double>(d),
          [&](std::size_t it) {
            double acc = 0;
            for (std::size_t i = 0; i < it; ++i) acc += t.dense_dot(a, b);
            g_sink += acc;
          },
          /*gated=*/false);
    bench("dense_axpy" + suffix, base("dense_axpy"), static_cast<double>(d),
          [&](std::size_t it) {
            for (std::size_t i = 0; i < it; ++i) {
              t.dense_axpy(a, i % 2 ? 1e-9 : -1e-9, b);
            }
            g_sink += a[0];
          },
          /*gated=*/false);
    bench("sgd_step_fused" + suffix, base("sgd_step_fused"),
          static_cast<double>(nnz),
          [&](std::size_t it) {
            for (std::size_t i = 0; i < it; ++i) {
              const double margin = t.sparse_dot(a, row.view());
              t.sparse_dot_residual_axpy(a, row.view(), 1e-9, margin,
                                         reg.eta_l1(), reg.eta_l2());
            }
            g_sink += a[row.view().index(0)];
          },
          /*gated=*/false);
    bench("svrg_step_fused" + suffix, base("svrg_step_fused"),
          static_cast<double>(d),
          [&](std::size_t it) {
            for (std::size_t i = 0; i < it; ++i) {
              t.scale_then_sparse_axpy(a, mu, i % 2 ? 1e-9 : -1e-9,
                                       reg.eta_l1(), reg.eta_l2(), 1e-9,
                                       row.view());
            }
            g_sink += a[0];
          },
          /*gated=*/false);
  }
}

void bench_shared_model() {
  solvers::SharedModel model(std::size_t{1} << 16);
  {
    util::Rng rng(10);
    bench("shared_model_wild_add", "", 1.0, [&](std::size_t it) {
      for (std::size_t i = 0; i < it; ++i) {
        model.add(util::uniform_index(rng, model.dim()), 0.25,
                  solvers::UpdatePolicy::kWild);
      }
    });
  }
  {
    util::Rng rng(11);
    bench("shared_model_atomic_add", "", 1.0, [&](std::size_t it) {
      for (std::size_t i = 0; i < it; ++i) {
        model.add(util::uniform_index(rng, model.dim()), 0.25,
                  solvers::UpdatePolicy::kAtomic);
      }
    });
  }
}

/// Filler bytes for the CRC rows and their check (an LCG's top byte).
std::vector<unsigned char> crc_bytes(std::size_t size) {
  std::vector<unsigned char> buf(size);
  std::uint32_t x = 0x9e3779b9u;
  for (unsigned char& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  return buf;
}

/// One packed-ooc shard block: the bytes a cold fault checks.
constexpr std::size_t kCrcShardBytes = 612 * 1024;

void bench_crc32() {
  // io::crc32 picks its body from the kernel backend: scalar runs the
  // table loop, the others the folded body where the CPU has PCLMULQDQ.
  // The table row pins scalar for its window; the fold row runs under the
  // backend the process selected, and exists only where that is folded.
  namespace k = sparse::kernels;
  const std::vector<unsigned char> buf = crc_bytes(kCrcShardBytes);
  const auto crc_loop = [&](std::size_t it) {
    std::uint32_t crc = 0;
    for (std::size_t i = 0; i < it; ++i) {
      crc = io::crc32(buf.data(), buf.size(), crc);
    }
    g_sink += crc;
  };
  const k::Backend selected = k::active_backend();
  k::set_backend(k::Backend::kScalar);
  bench("crc32_table", "", static_cast<double>(buf.size()), crc_loop);
  k::set_backend(selected);
  if (io::crc32_folded()) {
    bench("crc32_fold", "crc32_table", static_cast<double>(buf.size()),
          crc_loop);
  }
}

// ---------------------------------------------------------------------------
// Balance order: the sort inside IS-ASGD's offline phase
// ---------------------------------------------------------------------------

/// 30,000 tie-heavy importances, as rows of binary features give: L is
/// β·nnz plus a regulariser term, so a few dozen distinct values repeat
/// across the rows.
std::vector<double> balance_importances() {
  util::Rng rng(31);
  std::vector<double> lip(30000);
  for (auto& l : lip) {
    l = 0.25 * static_cast<double>(1 + util::uniform_index(rng, 24)) + 1e-4;
  }
  return lip;
}

/// The balancers' row order before the radix sort: iota plus an indirect
/// std::stable_sort, `<` for head-tail and `>` for the descending deals,
/// frozen as the baseline.
std::vector<std::uint32_t> stable_sort_order(std::span<const double> lip,
                                             bool descending) {
  std::vector<std::uint32_t> order(lip.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return descending ? lip[a] > lip[b] : lip[a] < lip[b];
                   });
  return order;
}

void bench_balance_order() {
  // Gated: the radix order must hold the floor against the stable sort
  // it replaced, on the same values.
  const std::vector<double> lip = balance_importances();
  const auto items = static_cast<double>(lip.size());
  bench("balance_order_stable_sort", "", items, [&](std::size_t it) {
    for (std::size_t i = 0; i < it; ++i) {
      g_sink += stable_sort_order(lip, false)[i % 7];
    }
  });
  bench("balance_order", "balance_order_stable_sort", items,
        [&](std::size_t it) {
          for (std::size_t i = 0; i < it; ++i) {
            g_sink += partition::detail::value_order(lip, false)[i % 7];
          }
        });
}

// ---------------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------------

/// Under --check: every gated row holds kRegressionFloor × its baseline.
void check_regressions(util::BenchRecord& rec) {
  for (const BenchResult& r : g_results) {
    if (r.baseline.empty() || !r.gated) continue;
    rec.check("floor " + r.name, r.speedup >= kRegressionFloor, r.speedup,
              "x its baseline ", r.baseline, " (floor ", kRegressionFloor, ")");
  }
}

/// The dispatch contract under --check: every available vector backend must
/// be bit-identical to scalar on randomized sparse/dense inputs, including
/// the fused kernels under every regularizer kind. EXPECT_EQ-strength
/// equality — the TUs share one arithmetic body compiled with
/// -ffp-contract=off, so any drift is a build-flag or codegen bug. One check
/// per kernel and backend.
void check_backend_parity(util::BenchRecord& rec) {
  namespace k = sparse::kernels;
  const k::KernelTable& scalar = *k::table_for(k::Backend::kScalar);
  std::map<std::string, int> differing;  // kernel/backend -> trials
  const std::size_t d = 1337;  // odd: exercises every unroll remainder
  constexpr std::uint64_t kTrials = 4;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    util::Rng rng(500 + trial);
    std::vector<double> w0(d), s0(d);
    for (auto& v : w0) v = util::normal_double(rng);
    for (auto& v : s0) v = util::normal_double(rng);
    const auto x = make_row(d, 5 + trial * 13, 600 + trial);
    for (const k::Backend be : k::available_backends()) {
      if (be == k::Backend::kScalar) continue;
      const k::KernelTable& t = *k::table_for(be);
      const auto expect = [&](bool ok, const char* kernel) {
        differing[kernel + ("/" + k::backend_name(be))] += ok ? 0 : 1;
      };
      expect(t.sparse_dot(w0, x.view()) == scalar.sparse_dot(w0, x.view()),
             "sparse_dot");
      expect(t.dense_dot(w0, s0) == scalar.dense_dot(w0, s0), "dense_dot");
      expect(t.dense_norm(w0) == scalar.dense_norm(w0), "dense_norm");
      expect(t.dense_squared_distance(w0, s0) ==
                 scalar.dense_squared_distance(w0, s0),
             "dense_squared_distance");
      expect(t.dense_l1_norm(w0) == scalar.dense_l1_norm(w0), "dense_l1_norm");
      double aw = 0, as = 0, bw = 0, bs = 0;
      scalar.sparse_dot_pair(w0, s0, x.view(), aw, as);
      t.sparse_dot_pair(w0, s0, x.view(), bw, bs);
      expect(aw == bw && as == bs, "sparse_dot_pair");
      auto ref = w0, cand = w0;
      scalar.sparse_axpy(ref, 0.37, x.view());
      t.sparse_axpy(cand, 0.37, x.view());
      expect(ref == cand, "sparse_axpy");
      ref = w0, cand = w0;
      scalar.dense_axpy(ref, -1.25, s0);
      t.dense_axpy(cand, -1.25, s0);
      expect(ref == cand, "dense_axpy");
      ref = w0, cand = w0;
      scalar.dense_scale(ref, 0.99);
      t.dense_scale(cand, 0.99);
      expect(ref == cand, "dense_scale");
      for (const auto& [l1, l2] :
           {std::pair{0.0, 0.0}, {0.0, 1e-3}, {1e-4, 0.0}}) {
        ref = w0, cand = w0;
        scalar.sparse_dot_residual_axpy(ref, x.view(), 0.05, 0.8, l1, l2);
        t.sparse_dot_residual_axpy(cand, x.view(), 0.05, 0.8, l1, l2);
        expect(ref == cand, "sparse_dot_residual_axpy");
        ref = w0, cand = w0;
        scalar.scale_then_sparse_axpy(ref, s0, 0.05, l1, l2, 0.02, x.view());
        t.scale_then_sparse_axpy(cand, s0, 0.05, l1, l2, 0.02, x.view());
        expect(ref == cand, "scale_then_sparse_axpy");
      }
    }
  }
  for (const auto& [kernel, trials] : differing) {
    rec.check("parity " + kernel, trials == 0, trials, " of ", kTrials,
              " randomized trials differ from scalar");
  }
}

/// Under --check: the folded CRC body returns the table loop's value for
/// the shard-sized buffer and for lengths and offsets around its 64- and
/// 16-byte blocks. Nothing to compare when the folded body is not selected.
void check_crc_paths(util::BenchRecord& rec) {
  namespace k = sparse::kernels;
  if (!io::crc32_folded()) return;
  const std::vector<unsigned char> buf = crc_bytes(kCrcShardBytes + 16);
  std::vector<std::pair<std::size_t, std::size_t>> spans = {
      {0, kCrcShardBytes}, {7, kCrcShardBytes}};
  for (std::size_t n = 0; n <= 300; ++n) spans.emplace_back(n % 16, n);
  std::vector<std::uint32_t> folded;
  for (const auto& [offset, n] : spans) {
    folded.push_back(io::crc32(buf.data() + offset, n));
  }
  const k::Backend selected = k::active_backend();
  k::set_backend(k::Backend::kScalar);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& [offset, n] = spans[i];
    differing += io::crc32(buf.data() + offset, n) != folded[i];
  }
  k::set_backend(selected);
  rec.check("crc32_fold == crc32_table", differing == 0, differing, " of ",
            spans.size(), " (offset, length) spans differ from the table loop");
}

/// Under --check: the radix order is the stable sort's permutation on the
/// bench's importances, ascending and descending.
void check_balance_order(util::BenchRecord& rec) {
  const std::vector<double> lip = balance_importances();
  const bool ascending = partition::detail::value_order(lip, false) ==
                         stable_sort_order(lip, false);
  const bool descending = partition::detail::value_order(lip, true) ==
                          stable_sort_order(lip, true);
  rec.check("balance_order == stable_sort", ascending && descending,
            "ascending ", ascending ? "equal" : "DIFFERS", ", descending ",
            descending ? "equal" : "DIFFERS", " over ", lip.size(),
            " importances");
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("micro_kernels",
                      "kernel, sampler, shared-model and CRC-32 micro "
                      "benchmarks (BENCH_kernels.json)");
  cli.add_flag("out", "BENCH_kernels.json", "output record path");
  cli.add_flag("check", "false",
               "regression gate: fused kernels >= 0.75x their scalar "
               "baselines, every backend bit-identical to scalar, folded "
               "CRC == table loop, radix balance order == stable sort "
               "(exit 1 on violation)");
  cli.add_flag("min-time", "0.05", "measurement window per entry (seconds)");
  cli.add_flag("backend", "",
               "pin the kernel backend (scalar|avx2|avx512; default: runtime "
               "dispatch, honours ISASGD_KERNEL_BACKEND)");
  bool check = false;
  try {
    if (!cli.parse(argc, argv)) return 0;
    g_min_time_s = cli.get_double("min-time");
    check = cli.get_bool("check");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (!bench::pin_backend(cli.get("backend"))) return 2;
  namespace k = sparse::kernels;
  std::printf("active kernel backend: %s\n",
              k::backend_name(k::active_backend()).c_str());
  util::BenchRecord rec{.bench = "micro_kernels"};
  rec.config = {{"min_time_s", g_min_time_s}};

  bench_dense_kernels();
  bench_sparse_vs_dense_update();
  bench_fused_sgd_step();
  bench_fused_sgd_step_l1();
  bench_fused_svrg_step();
  bench_samplers();
  bench_backend_ladder();
  bench_shared_model();
  bench_crc32();
  bench_balance_order();
  if (g_sink == 12345.6789) std::printf(" ");  // keep the sink observable

  for (const BenchResult& r : g_results) {
    rec.rows.push_back({{"name", r.name},
                        {"baseline", r.baseline},
                        {"ns_per_op", r.ns_per_op},
                        {"items_per_sec", r.items_per_sec},
                        {"speedup", r.speedup},
                        {"gated", r.gated}});
  }
  if (check) {
    check_regressions(rec);
    check_backend_parity(rec);
    check_crc_paths(rec);
    check_balance_order(rec);
  }
  return bench::finish(rec, cli.get("out"));
}
