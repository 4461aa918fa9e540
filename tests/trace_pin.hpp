// Exact fingerprints of simulated distributed runs, for the table-driven pin
// tests in distributed_test.cpp and dist_fenced_test.cpp.
//
// A pin reduces one run to text: an FNV-1a hash of the final model's bytes,
// every trace point's simulated seconds and objective as hex floats (exact,
// so a one-ulp drift fails), and the run's report counters. The simulated
// engines are bit-deterministic for a fixed seed on any host, so a pin is a
// host-independent regression oracle: an engine refactor that claims "same
// arithmetic" must leave every pinned string unchanged.
#pragma once

#include <any>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/data_source.hpp"
#include "distributed/allreduce.hpp"
#include "distributed/cluster.hpp"
#include "distributed/param_server.hpp"
#include "objectives/objective.hpp"
#include "solvers/observer.hpp"
#include "solvers/options.hpp"
#include "solvers/trace.hpp"

namespace isasgd::distributed::pin {

/// FNV-1a over the model's raw double bytes.
inline std::uint64_t fnv1a(const std::vector<double>& w) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double v : w) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

inline std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

inline std::string report_text(const std::any& report) {
  if (const auto* r = std::any_cast<ParamServerReport>(&report)) {
    return "messages=" + std::to_string(r->messages) +
           " bytes=" + std::to_string(r->bytes_sent) +
           " staleness=" + hex(r->mean_staleness_updates) +
           " sim=" + hex(r->simulated_seconds) +
           " phi=" + hex(r->phi_imbalance) +
           " strategy=" +
           std::to_string(static_cast<int>(r->applied_strategy)) +
           " crashes=" + std::to_string(r->crash_events) +
           " rejoins=" + std::to_string(r->rejoin_events);
  }
  if (const auto* r = std::any_cast<AllreduceReport>(&report)) {
    return "rounds=" + std::to_string(r->rounds) +
           " bytes=" + hex(r->bytes_per_node_per_round) +
           " sim=" + hex(r->simulated_seconds) +
           " comm=" + hex(r->comm_fraction);
  }
  return "no-report";
}

/// The pin of one finished run.
inline std::string of(const solvers::Trace& trace, const std::any& report) {
  char model[32];
  std::snprintf(model, sizeof(model), "model=%016llx",
                static_cast<unsigned long long>(fnv1a(trace.final_model)));
  std::string out = model;
  for (const solvers::TracePoint& p : trace.points) {
    out += " " + hex(p.seconds) + "/" + hex(p.objective);
  }
  return out + " | " + report_text(report);
}

/// Keeps the last diagnostics object a solver published.
struct ReportCapture : solvers::TrainingObserver {
  std::any report;
  void on_diagnostics(const std::any& d) override { report = d; }
};

/// Trains registry solver `solver` on `source` under `spec` (one evaluation
/// thread, so objectives are exact) and returns the run's pin.
inline std::string registry_run(const data::DataSource& source,
                                const objectives::Objective& objective,
                                const char* solver, const ClusterSpec& spec,
                                const solvers::SolverOptions& options) {
  const core::Trainer trainer = core::TrainerBuilder()
                                    .source(source)
                                    .objective(objective)
                                    .cluster(spec)
                                    .eval_threads(1)
                                    .build();
  ReportCapture capture;
  const solvers::Trace trace = trainer.train(solver, options, &capture);
  return of(trace, capture.report);
}

}  // namespace isasgd::distributed::pin
