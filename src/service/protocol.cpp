#include "service/protocol.hpp"

#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "data/data_source.hpp"
#include "io/checkpoint.hpp"
#include "objectives/objective.hpp"
#include "sparse/dispatch.hpp"

namespace isasgd::service {

namespace {

struct Request {
  std::string verb;
  std::map<std::string, std::string> kv;
};

Request parse(const std::string& line) {
  Request req;
  std::istringstream in(line);
  in >> req.verb;
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("malformed argument '" + token +
                                  "' (expected key=value)");
    }
    req.kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return req;
}

const std::string* find(const Request& req, const std::string& key) {
  const auto it = req.kv.find(key);
  return it == req.kv.end() ? nullptr : &it->second;
}

std::string require(const Request& req, const std::string& key) {
  if (const std::string* v = find(req, key)) return *v;
  throw std::invalid_argument(req.verb + " requires " + key + "=...");
}

std::uint64_t to_u64(const std::string& key, const std::string& value) {
  // std::stoull accepts a leading '-' (two's-complement wrap: "-1" becomes
  // 2^64−1 epochs) and '+'/whitespace; a protocol integer is digits only,
  // so reject any non-digit lead byte before converting.
  if (value.empty() || value[0] < '0' || value[0] > '9') {
    throw std::invalid_argument("bad integer for " + key + ": '" + value +
                                "'");
  }
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("bad integer for " + key + ": '" + value +
                                "'");
  }
}

double to_f64(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("bad number for " + key + ": '" + value +
                                "'");
  }
}

std::uint64_t job_id(const Request& req) {
  return to_u64("id", require(req, "id"));
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// One flat line per response: embedded newlines in error messages would
/// break the framing.
std::string one_line(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

JobSpec build_spec(const Request& req) {
  JobSpec spec;
  spec.solver = require(req, "solver");
  spec.dataset = require(req, "data");
  if (const auto* v = find(req, "objective")) spec.objective = *v;
  if (const auto* v = find(req, "epochs")) {
    spec.options.epochs = to_u64("epochs", *v);
  }
  if (const auto* v = find(req, "step")) {
    spec.options.step_size = to_f64("step", *v);
  }
  if (const auto* v = find(req, "decay")) {
    spec.options.step_decay = to_f64("decay", *v);
  }
  if (const auto* v = find(req, "seed")) spec.options.seed = to_u64("seed", *v);
  if (const auto* v = find(req, "batch")) {
    spec.options.batch_size = to_u64("batch", *v);
  }
  if (const auto* v = find(req, "threads")) {
    spec.options.threads = to_u64("threads", *v);
  }
  if (const auto* v = find(req, "l1")) {
    spec.options.reg = objectives::Regularization::l1(to_f64("l1", *v));
  }
  if (const auto* v = find(req, "l2")) {
    spec.options.reg = objectives::Regularization::l2(to_f64("l2", *v));
  }
  if (const auto* v = find(req, "adaptive")) {
    spec.options.adaptive_importance = to_u64("adaptive", *v) != 0;
  }
  if (const auto* v = find(req, "shard_rows")) {
    spec.streaming.shard_rows = to_u64("shard_rows", *v);
  }
  if (const auto* v = find(req, "cache_mb")) {
    spec.streaming.memory_budget_bytes = to_u64("cache_mb", *v) << 20;
  }
  if (const auto* v = find(req, "ckpt")) spec.checkpoint_path = *v;
  if (const auto* v = find(req, "ckpt_every")) {
    spec.checkpoint_every = to_u64("ckpt_every", *v);
  }
  if (const auto* v = find(req, "resume")) spec.resume_from = *v;
  return spec;
}

}  // namespace

std::string format_status(const JobStatus& status) {
  std::ostringstream out;
  out << "id=" << status.id << " state=" << job_state_name(status.state)
      << " solver=" << status.solver << " epoch=" << status.epoch << "/"
      << status.epochs_budget << " objective=" << status.objective_value
      << " mem=" << status.reserved_bytes
      << " model=" << hex16(status.model_hash);
  if (!status.message.empty()) out << " msg=" << one_line(status.message);
  return out.str();
}

std::string ProtocolHandler::handle_line(const std::string& line) {
  try {
    const Request req = parse(line);
    if (req.verb.empty()) return "err empty request";

    if (req.verb == "ping") return "ok pong";
    if (req.verb == "submit") {
      return "ok id=" + std::to_string(service_.submit(build_spec(req)));
    }
    if (req.verb == "status") {
      return "ok " + format_status(service_.status(job_id(req)));
    }
    if (req.verb == "wait") {
      const std::uint64_t id = job_id(req);
      service_.wait(id);
      return "ok " + format_status(service_.status(id));
    }
    if (req.verb == "list") {
      const std::vector<JobStatus> jobs = service_.list();
      std::ostringstream out;
      out << "ok jobs=" << jobs.size();
      for (const JobStatus& s : jobs) {
        out << " " << s.id << ":" << job_state_name(s.state);
      }
      return out.str();
    }
    if (req.verb == "pause" || req.verb == "resume" || req.verb == "cancel" ||
        req.verb == "checkpoint") {
      const std::uint64_t id = job_id(req);
      const bool ok = req.verb == "pause"    ? service_.pause(id)
                      : req.verb == "resume" ? service_.resume(id)
                      : req.verb == "cancel" ? service_.cancel(id)
                                             : service_.checkpoint(id);
      return ok ? "ok"
                : "err " + req.verb + " refused for job " +
                      std::to_string(id) +
                      " (unknown id, terminal state, or no checkpoint path)";
    }
    if (req.verb == "stats") {
      const auto& gov = service_.governor();
      std::ostringstream out;
      out << "ok active=" << service_.execution().active_jobs()
          << " total=" << service_.execution().total_jobs()
          << " mem_used=" << gov.used() << " mem_budget=" << gov.budget()
          << " queue=" << [&] {
               std::size_t queued = 0;
               for (const JobStatus& s : service_.list()) {
                 if (s.state == JobState::kQueued) ++queued;
               }
               return queued;
             }()
          << " backend="
          << sparse::kernels::backend_name(sparse::kernels::active_backend());
      // Shard-cache counters summed over live streaming/packed jobs — the
      // daemon-side view of the out-of-core data plane.
      const data::CacheStats cache = service_.cache_stats();
      out << " cache_loads=" << cache.loads << " cache_hits=" << cache.hits
          << " cache_misses=" << cache.misses
          << " cache_evictions=" << cache.evictions
          << " prefetch_issued=" << cache.prefetch_issued
          << " prefetch_hits=" << cache.prefetch_hits
          << " prefetch_races=" << cache.prefetch_races
          << " prefetch_wasted=" << cache.prefetch_wasted
          << " prefetch_inflight=" << cache.prefetch_inflight
          << " cache_resident=" << cache.resident_bytes;
      return out.str();
    }
    if (req.verb == "shutdown") {
      shutdown_.store(true, std::memory_order_relaxed);
      return "ok bye";
    }
    return "err unknown verb '" + req.verb +
           "' (known: ping submit status wait list pause resume cancel "
           "checkpoint stats shutdown)";
  } catch (const AdmissionError& e) {
    return one_line("err admission " + std::string(e.what()));
  } catch (const io::CheckpointError& e) {
    return one_line("err checkpoint " + std::string(e.what()));
  } catch (const std::exception& e) {
    return one_line("err " + std::string(e.what()));
  }
}

}  // namespace isasgd::service
