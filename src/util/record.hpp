// The record every gated bench writes (docs/PERF.md, *Bench records*): a
// host header, the run's config, one flat row per line and the ledger of
// checks that ran, as the JSON object {"bench", "host", "config", "rows",
// "checks"}, which read_record() parses back for a --baseline gate.
// Numbers are written with %.17g, so a double reads back bit for bit; a
// non-finite one is written as null.
#pragma once

#include <concepts>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace isasgd::util {

/// A record file that is missing, unreadable or malformed, or holds no
/// rows. The message names the path.
class RecordError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One field's value: null, a bool, a number or a string. Integers are
/// held as numbers.
struct RecordValue {
  RecordValue() = default;
  RecordValue(bool b) : v(b) {}
  RecordValue(double d) : v(d) {}
  template <std::integral T>
  RecordValue(T i) : v(static_cast<double>(i)) {}
  RecordValue(std::string s) : v(std::move(s)) {}
  RecordValue(const char* s) : v(std::string(s)) {}

  /// The number, or nullopt when the value is not one.
  [[nodiscard]] std::optional<double> number() const;
  bool operator==(const RecordValue&) const = default;

  std::variant<std::monostate, bool, double, std::string> v;
};

/// A flat object: named values in the order they were added.
using RecordFields = std::vector<std::pair<std::string, RecordValue>>;

/// `fields` as one JSON object on one line, as the record writes a row.
[[nodiscard]] std::string to_json(const RecordFields& fields);

/// The value of field `name`, or nullptr.
[[nodiscard]] const RecordValue* find_field(const RecordFields& fields,
                                            std::string_view name);

/// One bench run's record and its check ledger; a bench opens it as
/// `BenchRecord rec{.bench = "name"}`.
struct BenchRecord {
  std::string bench;
  RecordFields host{};
  RecordFields config{};
  std::vector<RecordFields> rows{};
  /// The ledger: {"name", "passed", "detail"} for every check that ran.
  std::vector<RecordFields> checks{};

  /// Records a check that ran, with `detail` streamed into its detail
  /// text, and logs it once: as an error if it failed, as info if not.
  ///   record.check("floor sgd_step_fused", ratio >= 0.75, ratio, "x");
  template <class... Detail>
  void check(std::string name, bool passed, const Detail&... detail) {
    std::ostringstream text;
    ((text << detail), ...);
    add_check(std::move(name), passed, text.str());
  }
  void add_check(std::string name, bool passed, std::string detail);

  /// The bench's exit code: 1 when a recorded check did not pass, else 0.
  [[nodiscard]] int exit_code() const;
  /// The first row that holds every field of `key` with an equal value.
  [[nodiscard]] const RecordFields* find_row(const RecordFields& key) const;
};

/// Writes `record` to `path`; throws RecordError when it cannot.
void write_record(const std::string& path, const BenchRecord& record);

/// Reads a record written by write_record(). Throws RecordError, naming
/// `path`, when the file is missing, unreadable, empty or malformed, or
/// holds no rows.
[[nodiscard]] BenchRecord read_record(const std::string& path);

}  // namespace isasgd::util
