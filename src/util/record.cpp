#include "util/record.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/logging.hpp"

namespace isasgd::util {

namespace {

void put_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    }
  }
  out += '"';
}

void put_value(std::string& out, const RecordValue& value) {
  const auto* d = std::get_if<double>(&value.v);
  if (const auto* s = std::get_if<std::string>(&value.v)) {
    put_string(out, *s);
  } else if (const auto* b = std::get_if<bool>(&value.v)) {
    out += *b ? "true" : "false";
  } else if (d && std::isfinite(*d)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", *d);
    out += buf;
  } else {
    out += "null";
  }
}

/// An array of flat objects, one per line.
void put_lines(std::string& out, const std::vector<RecordFields>& objects) {
  out += '[';
  for (std::size_t i = 0; i < objects.size(); ++i) {
    out += (i ? ",\n    " : "\n    ") + to_json(objects[i]);
  }
  out += objects.empty() ? "]" : "\n  ]";
}

/// Recursive descent over the shape write_record() writes; whitespace is
/// free-form, so a record rewritten by another JSON writer reads too.
class Parser {
 public:
  Parser(std::string text, const std::string& path)
      : text_(std::move(text)), path_(path) {}

  BenchRecord record() {
    BenchRecord r;
    list('{', '}', [&] {
      const std::string key = string();
      expect(':');
      if (key == "bench") {
        r.bench = string();
      } else if (key == "host" || key == "config") {
        (key == "host" ? r.host : r.config) = object();
      } else if (key == "rows" || key == "checks") {
        auto& objects = key == "rows" ? r.rows : r.checks;
        list('[', ']', [&] { objects.push_back(object()); });
      } else {
        fail("unexpected key '" + key + "'");
      }
    });
    skip_space();
    if (pos_ != text_.size()) fail("trailing bytes");
    return r;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw RecordError("bench record '" + path_ + "': " + what + " at byte " +
                      std::to_string(pos_));
  }
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool take(char c) {
    skip_space();
    if (pos_ == text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  void expect(char c) {
    if (!take(c)) fail(std::string("expected '") + c + "'");
  }
  bool literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }
  /// `open` item (',' item)* `close`, or an empty `open` `close`.
  template <class Item>
  void list(char open, char close, Item&& item) {
    expect(open);
    if (take(close)) return;
    do {
      item();
    } while (take(','));
    expect(close);
  }

  std::string string() {
    constexpr std::string_view kEscapes = "b\bf\fn\nr\rt\t";
    expect('"');
    std::string s;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return s;
      if (c == '\\' && pos_ < text_.size()) {
        c = text_[pos_++];
        if (c == 'u') {
          c = hex4();
        } else if (const std::size_t k = kEscapes.find(c); k % 2 == 0) {
          c = kEscapes[k + 1];
        }  // else '"', '\\' or '/', which stand for themselves
      }
      s += c;
    }
    fail("unterminated string");
  }

  /// The four hex digits of a \u escape. The writer escapes only control
  /// bytes, so a code point past ASCII is refused rather than mis-decoded.
  char hex4() {
    unsigned cp = 0;
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + std::min(text_.size(), pos_ + 4);
    const auto [ptr, ec] = std::from_chars(begin, end, cp, 16);
    if (ec != std::errc() || ptr != begin + 4 || cp >= 0x80) {
      fail("unsupported \\u escape");
    }
    pos_ += 4;
    return static_cast<char>(cp);
  }

  RecordValue value() {
    skip_space();
    if (text_.compare(pos_, 1, "\"") == 0) return string();
    if (literal("null")) return {};
    if (literal("true")) return true;
    if (literal("false")) return false;
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double d = std::strtod(begin, &end);
    if (end == begin) fail("expected a value");
    pos_ += static_cast<std::size_t>(end - begin);
    return d;
  }

  RecordFields object() {
    RecordFields fields;
    list('{', '}', [&] {
      std::string key = string();
      expect(':');
      fields.emplace_back(std::move(key), value());
    });
    return fields;
  }

  std::string text_;
  const std::string& path_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<double> RecordValue::number() const {
  if (const auto* d = std::get_if<double>(&v)) return *d;
  return std::nullopt;
}

std::string to_json(const RecordFields& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out += ", ";
    put_string(out, fields[i].first);
    out += ": ";
    put_value(out, fields[i].second);
  }
  return out + "}";
}

const RecordValue* find_field(const RecordFields& fields,
                              std::string_view name) {
  for (const auto& [key, value] : fields) {
    if (key == name) return &value;
  }
  return nullptr;
}

void BenchRecord::add_check(std::string name, bool passed,
                            std::string detail) {
  (passed ? log_info() : log_error())
      << "check " << (passed ? "passed: " : "failed: ") << name
      << (detail.empty() ? "" : ": ") << detail;
  checks.push_back({{"name", std::move(name)},
                    {"passed", passed},
                    {"detail", std::move(detail)}});
}

int BenchRecord::exit_code() const {
  const bool passed = std::all_of(
      checks.begin(), checks.end(), [](const RecordFields& check) {
        const RecordValue* passed = find_field(check, "passed");
        return passed && *passed == RecordValue(true);
      });
  return passed ? 0 : 1;
}

const RecordFields* BenchRecord::find_row(const RecordFields& key) const {
  for (const RecordFields& row : rows) {
    if (std::all_of(key.begin(), key.end(), [&](const auto& field) {
          const RecordValue* v = find_field(row, field.first);
          return v && *v == field.second;
        })) {
      return &row;
    }
  }
  return nullptr;
}

void write_record(const std::string& path, const BenchRecord& record) {
  std::string out = "{\n  \"bench\": ";
  put_string(out, record.bench);
  out += ",\n  \"host\": " + to_json(record.host);
  out += ",\n  \"config\": " + to_json(record.config);
  out += ",\n  \"rows\": ";
  put_lines(out, record.rows);
  out += ",\n  \"checks\": ";
  put_lines(out, record.checks);
  out += "\n}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  file.flush();
  if (!file) throw RecordError("bench record '" + path + "': cannot write it");
}

BenchRecord read_record(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw RecordError("bench record '" + path + "': cannot open it");
  std::ostringstream text;
  if (!(text << in.rdbuf())) {
    throw RecordError("bench record '" + path +
                      "': cannot read it, or it is empty");
  }
  BenchRecord record = Parser(text.str(), path).record();
  if (record.rows.empty()) {
    throw RecordError("bench record '" + path + "' holds no rows");
  }
  return record;
}

}  // namespace isasgd::util
