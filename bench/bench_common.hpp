// Shared plumbing for the bench binaries: flag conventions, dataset
// preparation, trace printing, the kernel backend pin, and the record
// (util/record.hpp) every gated bench writes.
#pragma once

#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/numa.hpp"
#include "core/trainer.hpp"
#include "data/paper_datasets.hpp"
#include "objectives/logistic.hpp"
#include "sparse/dispatch.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/record.hpp"
#include "util/table.hpp"

namespace isasgd::bench {

/// Pins the kernel backend `name` names (scalar|avx2|avx512), as
/// ISASGD_KERNEL_BACKEND would; an empty name keeps runtime dispatch. Logs
/// why and returns false when the name is unknown or the host cannot run it.
inline bool pin_backend(const std::string& name) {
  namespace k = sparse::kernels;
  try {
    if (name.empty() || k::set_backend(k::backend_from_name(name))) {
      return true;
    }
    util::log_error() << "backend '" << name
                      << "' is not available on this host";
  } catch (const std::invalid_argument& e) {
    util::log_error() << e.what();
  }
  return false;
}

/// Fills `record`'s host header under isbench's field names, writes it to
/// `path` (nowhere when it is empty) and returns the bench's exit code: 1
/// when a recorded check failed.
inline int finish(util::BenchRecord& record, const std::string& path) {
  namespace k = sparse::kernels;
  record.host = {{"build_type", ISASGD_BENCH_BUILD_TYPE},
                 {"compiler", __VERSION__},
                 {"kernel_backend", k::backend_name(k::active_backend())},
                 {"nproc", std::thread::hardware_concurrency()},
                 {"numa_nodes", core::NumaTopology::detect().node_count()}};
  if (!path.empty()) {
    util::write_record(path, record);
    std::printf("wrote %s\n", path.c_str());
  }
  return record.exit_code();
}

/// Registers the flags every figure bench shares.
inline void add_common_flags(util::CliParser& cli) {
  cli.add_flag("scale", "1.0",
               "dataset scale factor (rows and dim shrink together; 1.0 = "
               "the laptop-scale analogs in DESIGN.md)");
  cli.add_flag("threads", "4,8,16",
               "comma-separated worker counts (the paper sweeps 16,32,44 on "
               "a 44-core testbed)");
  cli.add_flag("datasets", "news20,url,kdda,kddb",
               "comma-separated analog datasets to run");
  cli.add_flag("epochs", "0",
               "override epoch count (0 = each dataset's paper epoch count)");
  cli.add_flag("seed", "7", "base RNG seed");
  cli.add_flag("out", "", "directory to also write CSV traces into");
  cli.add_flag("l1", "1e-8",
               "L1 regularization factor (paper: L1 cross-entropy; at d in "
               "the millions the penalty term needs eta ~ 1e-8 to stay small "
               "against ~1e6 active coordinates)");
}

/// Parses the --datasets list.
inline std::vector<data::PaperDataset> datasets_from(const util::CliParser& cli) {
  std::vector<data::PaperDataset> out;
  std::string value = cli.get("datasets");
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::string name =
        value.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!name.empty()) out.push_back(data::paper_dataset_from_name(name));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

inline std::vector<std::size_t> threads_from(const util::CliParser& cli) {
  std::vector<std::size_t> out;
  for (int t : cli.get_int_list("threads")) {
    out.push_back(static_cast<std::size_t>(std::max(1, t)));
  }
  return out;
}

/// Writes the sweep's traces as CSV when --out was given.
inline void maybe_write_csv(const util::CliParser& cli,
                            const std::string& stem,
                            const core::ExperimentResult& result) {
  const std::string dir = cli.get("out");
  if (dir.empty()) return;
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + stem + ".csv";
  core::write_traces_csv(path, result);
  std::printf("wrote %s\n", path.c_str());
}

/// One prepared dataset with everything the benches need.
struct PreparedDataset {
  data::PaperDatasetConfig config;
  sparse::CsrMatrix data;
  objectives::LogisticLoss objective;
  objectives::Regularization reg;
};

inline PreparedDataset prepare(data::PaperDataset id, double scale,
                               double l1) {
  PreparedDataset p;
  p.config = data::paper_dataset_config(id, scale);
  std::printf("generating %s (rows=%zu dim=%zu nnz/row=%.0f)...\n",
              p.config.name.c_str(), p.config.spec.rows, p.config.spec.dim,
              p.config.spec.mean_row_nnz);
  std::fflush(stdout);
  p.data = data::generate(p.config.spec);
  p.reg = objectives::Regularization::l1(l1);
  return p;
}

}  // namespace isasgd::bench
