#include "solvers/solver.hpp"

#include <cctype>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>

#include "util/timer.hpp"

namespace isasgd::solvers {

const sparse::CsrMatrix& SolverContext::data() const {
  if (source.resident()) return source.materialize();
  const util::Stopwatch clock;
  const sparse::CsrMatrix& full = source.materialize();
  materialize_seconds += clock.seconds();
  return full;
}

void Solver::validate(SolverOptions& options) const {
  if (options.threads == 0) options.threads = 1;
  // NaN fails `step_size > 0`; +inf fails isfinite.
  if (!(std::isfinite(options.step_size) && options.step_size > 0)) {
    throw std::invalid_argument(std::string(name()) +
                                ": step_size must be positive and finite");
  }
  options.reg.validate(name());
}

Trace Solver::train(SolverContext ctx) const {
  validate(ctx.options);
  const std::string solver_name(name());
  // Workers size their batch scratch by batch_size, and in-memory SGD and
  // ASGD draw whole batches, so a batch is bounded by the data before any
  // of that is allocated.
  if (ctx.options.batch_size > ctx.source.rows()) {
    throw std::invalid_argument(
        solver_name + ": batch_size " +
        std::to_string(ctx.options.batch_size) + " exceeds the data's " +
        std::to_string(ctx.source.rows()) + " rows");
  }
  if (ctx.snapshot.active() && !capabilities().checkpointable) {
    throw std::invalid_argument(
        solver_name +
        ": solver does not declare capabilities().checkpointable — "
        "checkpoint/resume hooks are not supported");
  }
  if (ctx.snapshot.resume) {
    detail::check_resume(*ctx.snapshot.resume, solver_name, ctx.options.seed,
                         ctx.options.epochs, ctx.source.dim());
  }
  if (ctx.observer) ctx.observer->on_train_begin(solver_name, ctx.options);
  Trace trace = run_impl(ctx);
  // Simulated-time traces keep their setup in simulated seconds.
  if (!trace.simulated_time) trace.setup_seconds += ctx.materialize_seconds;
  if (ctx.observer) ctx.observer->on_train_end(trace);
  return trace;
}

SolverRegistry& SolverRegistry::instance() {
  static SolverRegistry registry;
  return registry;
}

std::string SolverRegistry::normalize(std::string_view name) {
  std::string key;
  key.reserve(name.size());
  for (char c : name) {
    key.push_back(c == '-' ? '_'
                           : static_cast<char>(std::tolower(
                                 static_cast<unsigned char>(c))));
  }
  return key;
}

void SolverRegistry::register_solver(std::unique_ptr<Solver> solver) {
  if (!solver) {
    throw std::logic_error("SolverRegistry::register_solver: null solver");
  }
  const std::string key = normalize(solver->name());
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& e : entries_) {
    if (e.key == key) {
      throw std::logic_error("SolverRegistry: duplicate solver name '" +
                             std::string(solver->name()) + "'");
    }
  }
  entries_.push_back(Entry{key, std::move(solver)});
}

const Solver* SolverRegistry::find(std::string_view name) const noexcept {
  const std::string key = normalize(name);
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& e : entries_) {
    if (e.key == key) return e.solver.get();
  }
  return nullptr;
}

const Solver& SolverRegistry::get(std::string_view name) const {
  if (const Solver* s = find(name)) return *s;
  std::string message = "unknown solver '" + std::string(name) +
                        "'; registered solvers:";
  for (const std::string& registered : list()) {
    message += ' ';
    message += registered;
  }
  throw std::invalid_argument(message);
}

std::vector<std::string> SolverRegistry::list() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) names.emplace_back(e.solver->name());
  return names;
}

}  // namespace isasgd::solvers
