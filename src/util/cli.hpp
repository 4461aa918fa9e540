// Tiny flag parser shared by the bench/example binaries. Supports
// `--name value`, `--name=value` and boolean `--name` forms, with typed
// accessors and a generated --help listing.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace isasgd::util {

/// Declarative command-line flag set.
///
///   CliParser cli("fig3_iterative", "Reproduces Figure 3");
///   cli.add_flag("epochs", "15", "epochs per run");
///   cli.parse(argc, argv);          // exits(0) on --help
///   int epochs = cli.get_int("epochs");
class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Registers a flag with a default value (shown in --help).
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parses argv. Returns false and prints usage when --help/-h is
  /// present. An unknown flag or a positional argument prints the error and
  /// the usage to stderr and exits 2.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] int get_int(const std::string& name) const;
  [[nodiscard]] std::int64_t get_i64(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Comma-separated list → vector<int>; e.g. "--threads 4,8,16".
  [[nodiscard]] std::vector<int> get_int_list(const std::string& name) const;

  /// True if the user explicitly supplied the flag (vs. the default).
  [[nodiscard]] bool supplied(const std::string& name) const;

  /// Renders the usage text.
  [[nodiscard]] std::string usage() const;

 private:
  struct Flag {
    std::string default_value;
    std::string help;
    std::optional<std::string> value;
  };
  const Flag& find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
};

}  // namespace isasgd::util
