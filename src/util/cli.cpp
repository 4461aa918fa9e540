#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace isasgd::util {

namespace {

/// A mistyped command line is the user's error, not the program's: says
/// what was wrong, shows the usage and exits 2, as --help exits 0.
[[noreturn]] void reject(const std::string& program,
                         const std::string& message,
                         const std::string& usage) {
  std::fprintf(stderr, "%s: %s\n%s", program.c_str(), message.c_str(),
               usage.c_str());
  std::exit(2);
}

}  // namespace

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_flag(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
  if (flags_.count(name)) {
    throw std::logic_error("CliParser: duplicate flag --" + name);
  }
  flags_[name] = Flag{default_value, help, std::nullopt};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      reject(program_, "positional argument '" + arg + "' not supported",
             usage());
    }
    arg.erase(0, 2);
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
      has_value = true;
    }
    auto it = flags_.find(arg);
    if (it == flags_.end()) reject(program_, "unknown flag --" + arg, usage());
    if (!has_value) {
      // `--flag value` unless the next token is another flag (boolean form).
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    it->second.value = value;
  }
  return true;
}

const CliParser::Flag& CliParser::find(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::logic_error("CliParser: flag --" + name + " was never added");
  }
  return it->second;
}

std::string CliParser::get(const std::string& name) const {
  const Flag& f = find(name);
  return f.value.value_or(f.default_value);
}

int CliParser::get_int(const std::string& name) const {
  return static_cast<int>(get_i64(name));
}

std::int64_t CliParser::get_i64(const std::string& name) const {
  const std::string v = get(name);
  std::size_t pos = 0;
  const std::int64_t out = std::stoll(v, &pos);
  if (pos != v.size()) {
    throw std::invalid_argument("--" + name + ": '" + v + "' is not an integer");
  }
  return out;
}

double CliParser::get_double(const std::string& name) const {
  const std::string v = get(name);
  std::size_t pos = 0;
  const double out = std::stod(v, &pos);
  if (pos != v.size()) {
    throw std::invalid_argument("--" + name + ": '" + v + "' is not a number");
  }
  return out;
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("--" + name + ": '" + v + "' is not a boolean");
}

std::vector<int> CliParser::get_int_list(const std::string& name) const {
  const std::string v = get(name);
  std::vector<int> out;
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    // Full-token consumption, like get_i64/get_double above: std::stoi
    // would silently read "4x" as 4 and let a typo'd list train the wrong
    // thread counts.
    std::size_t pos = 0;
    int value = 0;
    try {
      value = std::stoi(item, &pos);
    } catch (const std::exception&) {
      pos = std::string::npos;
    }
    if (pos != item.size()) {
      throw std::invalid_argument("--" + name + ": list item '" + item +
                                  "' is not an integer");
    }
    out.push_back(value);
  }
  if (out.empty()) {
    throw std::invalid_argument("--" + name + ": empty list");
  }
  return out;
}

bool CliParser::supplied(const std::string& name) const {
  return find(name).value.has_value();
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.default_value << ")\n      "
       << flag.help << "\n";
  }
  return os.str();
}

}  // namespace isasgd::util
