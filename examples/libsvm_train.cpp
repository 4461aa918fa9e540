// Command-line trainer for real LibSVM files — for users who have actual
// copies of News20/URL/KDD (or any binary-classification LibSVM dataset).
//
//   build/examples/libsvm_train --file news20.binary --algorithm is_asgd
//       --threads 16 --epochs 15 --lambda 0.5
#include <cstdio>

#include "core/trainer.hpp"
#include "io/binary.hpp"
#include "io/libsvm.hpp"
#include "objectives/objective.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace isasgd;
  util::CliParser cli("libsvm_train",
                      "Train any registered solver on a LibSVM file");
  cli.add_flag("file", "", "path to the LibSVM dataset (required)");
  cli.add_flag("algorithm", "is_asgd",
               "registry name of the solver (see --list-solvers)");
  cli.add_flag("list-solvers", "0", "print the registered solvers and exit");
  cli.add_flag("objective", "logistic",
               "logistic|squared_hinge|least_squares");
  cli.add_flag("reg", "l1", "none|l1|l2");
  cli.add_flag("eta", "1e-6", "regularization factor");
  cli.add_flag("lambda", "0.5", "step size");
  cli.add_flag("epochs", "15", "training epochs");
  cli.add_flag("threads", "8", "worker threads (async solvers)");
  cli.add_flag("max-rows", "0", "subsample the file to this many rows (0 = all)");
  cli.add_flag("seed", "7", "RNG seed");
  cli.add_flag("save-model", "", "write the trained model to this file (binary)");
  cli.add_flag("eval-model", "",
               "skip training; load this model file and just score it");
  if (!cli.parse(argc, argv)) return 0;

  if (cli.get_int("list-solvers") != 0) {
    for (const std::string& name :
         solvers::SolverRegistry::instance().list()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  const std::string path = cli.get("file");
  if (path.empty()) {
    std::fprintf(stderr, "error: --file is required\n%s", cli.usage().c_str());
    return 1;
  }
  io::LibsvmReadOptions read_opts;
  read_opts.max_rows = static_cast<std::size_t>(cli.get_i64("max-rows"));
  std::printf("reading %s...\n", path.c_str());
  const auto data = io::read_libsvm_file(path, read_opts);
  std::printf("dataset: %s\n", data.summary().c_str());

  const auto objective = objectives::make_objective(cli.get("objective"));
  objectives::Regularization reg = objectives::Regularization::none();
  if (cli.get("reg") == "l1") {
    reg = objectives::Regularization::l1(cli.get_double("eta"));
  } else if (cli.get("reg") == "l2") {
    reg = objectives::Regularization::l2(cli.get_double("eta"));
  } else if (cli.get("reg") != "none") {
    std::fprintf(stderr, "error: unknown --reg '%s'\n", cli.get("reg").c_str());
    return 1;
  }

  core::Trainer trainer(data, *objective, reg);

  if (const std::string model_path = cli.get("eval-model");
      !model_path.empty()) {
    std::vector<double> w = io::read_model_binary_file(model_path);
    if (w.size() < data.dim()) w.resize(data.dim(), 0.0);
    const auto r = trainer.evaluate(w);
    std::printf("model %s on %s: objective %.6f rmse %.4f error %.4f\n",
                model_path.c_str(), path.c_str(), r.objective, r.rmse,
                r.error_rate);
    return 0;
  }

  solvers::SolverOptions opt;
  opt.step_size = cli.get_double("lambda");
  opt.epochs = static_cast<std::size_t>(cli.get_int("epochs"));
  opt.threads = static_cast<std::size_t>(cli.get_int("threads"));
  opt.seed = static_cast<std::uint64_t>(cli.get_i64("seed"));
  opt.keep_final_model = !cli.get("save-model").empty();

  solvers::Trace trace;
  try {
    trace = trainer.train(cli.get("algorithm"), opt);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("\n%-6s %-10s %-10s %-10s\n", "epoch", "seconds", "rmse",
              "error");
  for (const auto& p : trace.points) {
    std::printf("%-6zu %-10.3f %-10.4f %-10.4f\n", p.epoch, p.seconds, p.rmse,
                p.error_rate);
  }
  std::printf("\n%s: train %.3fs (+%.3fs setup), best error %.4f\n",
              trace.algorithm.c_str(), trace.train_seconds,
              trace.setup_seconds, trace.best_error_rate());
  if (const std::string out = cli.get("save-model"); !out.empty()) {
    io::write_model_binary_file(out, trace.final_model);
    std::printf("model written to %s (%zu weights)\n", out.c_str(),
                trace.final_model.size());
  }
  return 0;
}
