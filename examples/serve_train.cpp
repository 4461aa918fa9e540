// The training daemon, its client, and a self-contained demo — the CLI face
// of src/service/.
//
// Serve (blocks until a `shutdown` command arrives):
//   build/examples/serve_train --mode serve --socket /tmp/isasgd.sock
//       --max-concurrent 2 --mem-budget-mb 512 --log daemon.log
//
// One protocol round-trip as a client (response line goes to stdout; exit
// status 1 on an `err` response):
//   build/examples/serve_train --mode send --socket /tmp/isasgd.sock
//       --cmd "submit solver=is_sgd data=train.libsvm epochs=8 ckpt=j1.ckpt"
//   build/examples/serve_train --mode send --socket /tmp/isasgd.sock
//       --cmd "wait id=1"
//
// Generate a small synthetic LibSVM file (for smoke tests and demos):
//   build/examples/serve_train --mode gen --out train.libsvm --rows 512
//
// In-process demo (no socket): runs two concurrent jobs on one shared pool
// and prints their final statuses:
//   build/examples/serve_train --mode demo
#include <cstdio>
#include <fstream>

#include "data/synthetic.hpp"
#include "io/libsvm.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/training_service.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

using namespace isasgd;

int run_serve(const util::CliParser& cli) {
  // Redirect the library's log stream into a file so the daemon can run
  // detached and the CI job can upload the log on failure.
  std::ofstream log_file;
  const std::string log_path = cli.get("log");
  if (!log_path.empty()) {
    log_file.open(log_path, std::ios::app);
    if (!log_file) {
      std::fprintf(stderr, "error: cannot open log file '%s'\n",
                   log_path.c_str());
      return 1;
    }
    util::set_log_sink([&log_file](util::LogLevel level,
                                   const std::string& message) {
      log_file << "[" << util::log_level_name(level) << "] " << message
               << "\n";
      log_file.flush();
    });
  }

  service::TrainingService::Options options;
  options.max_concurrent = static_cast<std::size_t>(
      cli.get_int("max-concurrent"));
  options.memory_budget_bytes =
      static_cast<std::size_t>(cli.get_i64("mem-budget-mb")) << 20;
  options.eval_threads = static_cast<std::size_t>(cli.get_int("eval-threads"));
  service::TrainingService svc(options);
  service::ProtocolHandler handler(svc);
  service::SocketServer server(cli.get("socket"), handler);
  std::printf("serving on %s (max_concurrent=%zu, budget=%zu MiB)\n",
              server.socket_path().c_str(), options.max_concurrent,
              options.memory_budget_bytes >> 20);
  std::fflush(stdout);
  server.run();
  svc.wait_all();
  util::set_log_sink({});
  return 0;
}

int run_send(const util::CliParser& cli) {
  const std::string cmd = cli.get("cmd");
  if (cmd.empty()) {
    std::fprintf(stderr, "error: --cmd is required for --mode send\n");
    return 1;
  }
  const std::string response = service::send_command(cli.get("socket"), cmd);
  std::printf("%s\n", response.c_str());
  return response.rfind("err", 0) == 0 ? 1 : 0;
}

int run_gen(const util::CliParser& cli) {
  const std::string out = cli.get("out");
  if (out.empty()) {
    std::fprintf(stderr, "error: --out is required for --mode gen\n");
    return 1;
  }
  data::SyntheticSpec spec;
  spec.rows = static_cast<std::size_t>(cli.get_i64("rows"));
  spec.dim = static_cast<std::size_t>(cli.get_i64("dim"));
  spec.seed = static_cast<std::uint64_t>(cli.get_i64("seed"));
  const sparse::CsrMatrix data = data::generate(spec);
  io::write_libsvm_file(out, data);
  std::printf("wrote %s: %s\n", out.c_str(), data.summary().c_str());
  return 0;
}

int run_demo() {
  data::SyntheticSpec spec;
  spec.rows = 512;
  spec.dim = 64;
  const auto matrix =
      std::make_shared<const sparse::CsrMatrix>(data::generate(spec));

  service::TrainingService svc({.max_concurrent = 2,
                                .memory_budget_bytes = std::size_t{64} << 20,
                                .execution = nullptr});
  service::JobSpec job;
  job.matrix = matrix;
  job.objective = "logistic";
  job.options.epochs = 6;
  job.options.threads = 2;

  job.solver = "sgd";
  const std::uint64_t a = svc.submit(job);
  job.solver = "is_sgd";
  const std::uint64_t b = svc.submit(job);
  svc.wait_all();

  for (const std::uint64_t id : {a, b}) {
    std::printf("%s\n", service::format_status(svc.status(id)).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("serve_train",
                      "Multi-tenant training daemon, client, and demo");
  cli.add_flag("mode", "demo", "serve|send|gen|demo");
  cli.add_flag("socket", "/tmp/isasgd.sock", "AF_UNIX socket path");
  cli.add_flag("cmd", "", "protocol line to send (mode send)");
  cli.add_flag("max-concurrent", "2", "jobs inside epochs at once (serve)");
  cli.add_flag("mem-budget-mb", "512", "admission memory budget (serve)");
  cli.add_flag("eval-threads", "1", "snapshot-scoring threads (serve)");
  cli.add_flag("log", "", "redirect library logs to this file (serve)");
  cli.add_flag("out", "", "output LibSVM path (mode gen)");
  cli.add_flag("rows", "512", "synthetic rows (gen)");
  cli.add_flag("dim", "64", "synthetic dim (gen)");
  cli.add_flag("seed", "7", "synthetic seed (gen)");
  if (!cli.parse(argc, argv)) return 0;

  try {
    const std::string mode = cli.get("mode");
    if (mode == "serve") return run_serve(cli);
    if (mode == "send") return run_send(cli);
    if (mode == "gen") return run_gen(cli);
    if (mode == "demo") return run_demo();
    std::fprintf(stderr, "error: unknown --mode '%s'\n%s", mode.c_str(),
                 cli.usage().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
