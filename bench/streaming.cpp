// Streaming vs in-memory training throughput.
//
// Generates a synthetic dataset, writes it to disk (binary/libsvm AND as a
// compiled ISSP shardpack), and trains the same solver four ways on the
// same seed:
//
//   inmem      — classic single-shard in-memory path (the seed behaviour)
//   chunked    — in-memory source split into shards (shard-major schedule,
//                zero I/O): isolates the schedule's cost from the I/O's
//   stream     — StreamingSource under --budget-mb, with LRU cache +
//                background prefetch: the parse-on-fault out-of-core path
//   packed     — PackedSource over the shardpack, same budget, cold cache:
//                mmap decode + pooled buffers + prefetch autotuner
//
// Reports epochs/s, training-pass rows/s and the shard-cache counters
// (--stats prints the full counter set per lane). With --check the run
// becomes the PR's acceptance gate: the dataset is sized at least 10x the
// cache budget (the budget is clamped down if needed), the packed
// cold-stream must reach >= 0.9x the classic in-memory throughput, and the
// packed final model must match the streaming lane bit-for-bit (serial
// solvers; async gates on relative objective instead). --out writes the
// bench record, one row per lane, for CI artifacts.
//
//   build/bench/streaming [--rows 200000 --dim 50000 --budget-mb 8 ...]
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/execution.hpp"
#include "core/trainer.hpp"
#include "data/data_source.hpp"
#include "data/packed_source.hpp"
#include "data/streaming_source.hpp"
#include "data/synthetic.hpp"
#include "io/binary.hpp"
#include "io/libsvm.hpp"
#include "io/shardpack.hpp"
#include "objectives/logistic.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace isasgd;

struct LaneResult {
  double train_seconds = 0;
  double rows_per_s = 0;
  std::vector<double> final_model;
};

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("streaming",
                      "Streaming (out-of-core) vs in-memory training "
                      "throughput on one synthetic dataset");
  cli.add_flag("rows", "120000", "dataset rows");
  cli.add_flag("dim", "40000", "feature dimensionality");
  cli.add_flag("nnz", "40", "mean nonzeros per row");
  cli.add_flag("shard-rows", "2048", "rows per shard");
  cli.add_flag("budget-mb", "8", "streaming shard-cache budget (MiB)");
  cli.add_flag("epochs", "6", "training epochs");
  cli.add_flag("threads", "4", "workers for the ASGD runs (solver=asgd)");
  cli.add_flag("solver", "sgd", "streaming-capable solver: sgd or asgd");
  cli.add_flag("format", "binary", "on-disk format: binary or libsvm");
  cli.add_flag("seed", "7", "RNG seed");
  cli.add_flag("stats", "false", "print the full cache counter set per lane");
  cli.add_flag("out", "", "write results as JSON to this path (CI artifact)");
  cli.add_flag("check",
               "false",
               "acceptance gate: dataset >= 10x budget, packed cold-stream "
               ">= 0.9x in-memory throughput, packed == stream final model "
               "(exit 1 on violation)");
  if (!cli.parse(argc, argv)) return 0;

  data::SyntheticSpec spec;
  spec.rows = static_cast<std::size_t>(cli.get_i64("rows"));
  spec.dim = static_cast<std::size_t>(cli.get_i64("dim"));
  spec.mean_row_nnz = cli.get_double("nnz");
  spec.seed = static_cast<std::uint64_t>(cli.get_i64("seed"));
  std::printf("generating %zu x %zu (%g nnz/row)...\n", spec.rows, spec.dim,
              spec.mean_row_nnz);
  const sparse::CsrMatrix data = data::generate(spec);
  const std::size_t data_bytes = data.nnz() * 12 + data.rows() * 16;
  const double data_mib = static_cast<double>(data_bytes) / (1 << 20);
  const bool check = cli.get_bool("check");

  const auto dir = std::filesystem::temp_directory_path() / "isasgd_bench";
  std::filesystem::create_directories(dir);
  const bool binary = cli.get("format") != "libsvm";
  const std::string file =
      (dir / (binary ? "stream.bin" : "stream.libsvm")).string();
  const std::string pack_file = (dir / "stream.issp").string();
  {
    util::Stopwatch timer;
    if (binary) {
      io::write_dataset_binary_file(file, data);
    } else {
      io::write_libsvm_file(file, data);
    }
    std::printf("wrote %s (%.1f MiB in-memory) in %.2fs\n", file.c_str(),
                data_mib, timer.seconds());
  }

  const std::size_t shard_rows =
      static_cast<std::size_t>(cli.get_i64("shard-rows"));
  std::size_t budget = static_cast<std::size_t>(cli.get_i64("budget-mb")) << 20;
  if (check && budget * 10 > data_bytes) {
    // The gate's premise is genuine eviction pressure: a cache holding the
    // whole dataset would measure the in-memory path twice. Clamp the
    // budget to a tenth of the data footprint (floor 1 MiB).
    budget = std::max<std::size_t>(std::size_t{1} << 20, data_bytes / 10);
    std::printf("check: clamped budget to %.1f MiB (10x rule)\n",
                static_cast<double>(budget) / (1 << 20));
  }

  {
    util::Stopwatch timer;
    io::ShardPackWriteOptions popt;
    popt.shard_rows = shard_rows;
    io::write_shardpack(pack_file, data, popt);
    std::printf("packed %s in %.2fs\n", pack_file.c_str(), timer.seconds());
  }

  auto ctx = std::make_shared<core::ExecutionContext>();
  data::StreamingOptions sopt;
  sopt.shard_rows = shard_rows;
  sopt.memory_budget_bytes = budget;
  util::Stopwatch index_timer;
  const auto stream = ctx->open_streaming(file, sopt);
  std::printf("indexed %zu shards in %.2fs (budget %.1f MiB)\n",
              stream->shard_count(), index_timer.seconds(),
              static_cast<double>(budget) / (1 << 20));
  data::PackedOptions popts;
  popts.memory_budget_bytes = budget;
  const auto packed = ctx->open_packed(pack_file, popts);
  const data::InMemorySource inmem(data);
  const data::InMemorySource chunked(data, shard_rows);

  objectives::LogisticLoss loss;
  solvers::SolverOptions opt;
  opt.epochs = static_cast<std::size_t>(cli.get_i64("epochs"));
  opt.step_size = 0.5;
  opt.threads = static_cast<std::size_t>(cli.get_i64("threads"));
  opt.seed = spec.seed;
  opt.keep_final_model = true;
  const std::string solver = cli.get("solver");
  const bool print_stats = cli.get_bool("stats");

  util::BenchRecord rec{.bench = "streaming"};
  util::TablePrinter table({"path", "train_s", "epochs_per_s", "Mrows_per_s",
                            "final_obj", "cache"});
  std::vector<LaneResult> lanes;
  auto run = [&](const char* label, const data::DataSource& source) {
    const core::Trainer trainer = core::TrainerBuilder()
                                      .source(source)
                                      .objective(loss)
                                      .l2(1e-6)
                                      .execution(ctx)
                                      .build();
    const solvers::Trace trace = trainer.train(solver, opt);
    const double rows_trained =
        static_cast<double>(data.rows()) * static_cast<double>(opt.epochs);
    const double objective = trace.points.back().objective;
    lanes.push_back(LaneResult{trace.train_seconds,
                               rows_trained / trace.train_seconds,
                               trace.final_model});
    util::RecordFields row = {{"label", label},
                              {"train_seconds", trace.train_seconds},
                              {"rows_per_s", lanes.back().rows_per_s},
                              {"final_objective", objective}};
    std::string cache = "-";
    if (const std::optional<data::CacheStats> c = source.cache_stats()) {
      cache = "h" + std::to_string(c->hits) + " m" + std::to_string(c->misses) +
              " ev" + std::to_string(c->evictions) + " pf" +
              std::to_string(c->prefetch_issued);
      const auto mean_us = [](std::uint64_t ns, std::uint64_t count) {
        return count ? static_cast<double>(ns) / 1e3 /
                           static_cast<double>(count)
                     : 0.0;
      };
      row.insert(row.end(),
                 {{"loads", c->loads},
                  {"hits", c->hits},
                  {"misses", c->misses},
                  {"evictions", c->evictions},
                  {"prefetch_issued", c->prefetch_issued},
                  {"prefetch_hits", c->prefetch_hits},
                  {"prefetch_races", c->prefetch_races},
                  {"prefetch_wasted", c->prefetch_wasted},
                  {"resident_bytes", c->resident_bytes},
                  {"resident_shards", c->resident_shards},
                  {"load_us", mean_us(c->load_ns, c->loads)},
                  {"race_wait_us",
                   mean_us(c->race_wait_ns, c->prefetch_races)}});
    }
    rec.rows.push_back(std::move(row));
    table.add_row_values(label, trace.train_seconds,
                         static_cast<double>(opt.epochs) / trace.train_seconds,
                         lanes.back().rows_per_s / 1e6, objective, cache);
    return objective;
  };

  run("inmem", inmem);
  const double f_chunked = run("chunked", chunked);
  const double f_stream = run("stream", *stream);
  // Cold-stream on purpose: this is the packed source's first epoch ever,
  // so the first pass decodes every shard from the mmap.
  const double f_packed = run("packed", *packed);
  rec.rows.back().insert(
      rec.rows.back().end(),
      {{"prefetch_depth", packed->prefetch_depth()},
       {"autotune_adjustments", packed->autotune_adjustments()},
       {"buffer_reuses", packed->buffer_pool_reuses()}});
  std::printf("\n%s\n", table.render().c_str());
  if (print_stats) {
    for (const util::RecordFields& row : rec.rows) {
      std::printf("%s\n", util::to_json(row).c_str());
    }
  }

  const bool serial =
      solvers::SolverRegistry::instance().get(solver).capabilities().serial();
  // Gate against the classic in-memory lane: that is the "in-memory
  // throughput" a user gives up by going out-of-core. The chunked lane can
  // beat inmem outright (small shards fit L2), which would gate the
  // cold-stream against a locality bonus it cannot earn back from disk.
  const LaneResult& inmem_lane = lanes[0];
  const LaneResult& stream_lane = lanes[2];
  const LaneResult& packed_lane = lanes[3];
  const double throughput_ratio =
      packed_lane.rows_per_s / inmem_lane.rows_per_s;

  // The throughput gate needs a measurement window long enough that the
  // cold start (first-ever decode + one-time CRC pass) amortises and timer
  // noise stops dominating. Correctness gates (parity) always apply; a
  // too-small window skips ONLY the throughput gate, loudly.
  constexpr double kMinGateWindowSeconds = 0.2;
  constexpr std::size_t kMinGateEpochs = 3;
  const bool throughput_gated =
      inmem_lane.train_seconds >= kMinGateWindowSeconds &&
      opt.epochs >= kMinGateEpochs;

  rec.config = {{"rows", spec.rows},           {"dim", spec.dim},
                {"budget_bytes", budget},      {"shard_rows", shard_rows},
                {"solver", solver},            {"epochs", opt.epochs},
                {"throughput_gated", throughput_gated}};

  if (check) {
    constexpr double kThroughputGate = 0.9;
    if (throughput_gated) {
      rec.check("packed >= 0.9x inmem", throughput_ratio >= kThroughputGate,
                "packed/inmem throughput = ", throughput_ratio, " (gate ",
                kThroughputGate, ")");
    } else {
      std::printf(
          "check: packed/inmem throughput = %.3f (gate SKIPPED: inmem train "
          "window %.3fs / %zu epochs below the %.1fs / %zu-epoch floor — "
          "cold-start costs do not amortise; run the default sizes to gate)\n",
          throughput_ratio, inmem_lane.train_seconds, opt.epochs,
          kMinGateWindowSeconds, kMinGateEpochs);
    }
    // Bit parity packed vs stream: both lanes ran the identical shard-major
    // schedule over identical f64 data, so serial solvers must agree to the
    // bit. Hogwild lanes race by design and gate on relative objective.
    if (serial) {
      rec.check("packed == stream (bit)",
                packed_lane.final_model.size() ==
                        stream_lane.final_model.size() &&
                    std::memcmp(packed_lane.final_model.data(),
                                stream_lane.final_model.data(),
                                packed_lane.final_model.size() *
                                    sizeof(double)) == 0,
                "final models of ", packed_lane.final_model.size(),
                " coordinates");
    } else {
      const double rel =
          std::abs(f_packed - f_stream) / std::max(1e-300, std::abs(f_stream));
      rec.check("packed ~ stream (objective)", rel <= 1e-2,
                "|packed - stream| / stream = ", rel, " (gate 1e-2)");
    }
    const double rel = std::abs(f_stream - f_chunked) /
                       std::max(1e-300, std::abs(f_chunked));
    const double gate = serial ? 1e-6 : 1e-2;
    rec.check("stream ~ chunked", rel <= gate,
              "|stream - chunked| / chunked = ", rel, " (gate ", gate, ")");
  }

  std::remove(file.c_str());
  std::remove(pack_file.c_str());
  return bench::finish(rec, cli.get("out"));
}
