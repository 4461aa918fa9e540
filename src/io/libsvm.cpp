#include "io/libsvm.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "sparse/csr_builder.hpp"

namespace isasgd::io {

namespace {

/// All parse failures funnel through here so every message carries the
/// 1-based line number and a snippet of the offending line — "libsvm parse
/// error" with no location is useless against a multi-gigabyte file.
[[noreturn]] void fail(std::size_t line_no, const std::string& what,
                       const std::string& line) {
  constexpr std::size_t kSnippet = 60;
  std::string context = line.substr(0, kSnippet);
  if (line.size() > kSnippet) context += "...";
  throw std::runtime_error("libsvm parse error at line " +
                           std::to_string(line_no) + ": " + what + " near '" +
                           context + "'");
}

/// Parses a double starting at `pos`; advances pos past it.
double parse_double(const std::string& line, std::size_t& pos,
                    std::size_t line_no, const char* what) {
  const char* begin = line.data() + pos;
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) fail(line_no, std::string("expected ") + what, line);
  pos += static_cast<std::size_t>(end - begin);
  return v;
}

/// Parses one LibSVM line into (label, idx, val). Returns false for blank
/// and comment lines. Shared by read_libsvm (materialising read) and
/// index_libsvm (shape-only scan) so both validate identically.
bool parse_line(const std::string& line, std::size_t line_no, double& label,
                std::vector<sparse::index_t>& idx,
                std::vector<sparse::value_t>& val) {
  std::size_t pos = line.find_first_not_of(" \t");
  if (pos == std::string::npos || line[pos] == '#') return false;

  label = parse_double(line, pos, line_no, "label");
  idx.clear();
  val.clear();
  while (pos < line.size()) {
    pos = line.find_first_not_of(" \t", pos);
    if (pos == std::string::npos || line[pos] == '#') break;
    // <index>:<value>
    std::size_t feat = 0;
    const char* begin = line.data() + pos;
    const char* end_limit = line.data() + line.size();
    auto [p, ec] = std::from_chars(begin, end_limit, feat);
    if (ec == std::errc::result_out_of_range) {
      fail(line_no, "feature index out of range", line);
    }
    if (ec != std::errc{} || p == begin) {
      fail(line_no, "expected feature index", line);
    }
    pos += static_cast<std::size_t>(p - begin);
    if (pos >= line.size() || line[pos] != ':') fail(line_no, "expected ':'", line);
    ++pos;
    const double v = parse_double(line, pos, line_no, "feature value");
    if (feat == 0) fail(line_no, "feature indices are 1-based", line);
    if (feat - 1 > std::numeric_limits<sparse::index_t>::max()) {
      // Without this check the narrowing cast below would silently wrap a
      // 64-bit index into a wrong 32-bit column.
      fail(line_no, "feature index out of range", line);
    }
    idx.push_back(static_cast<sparse::index_t>(feat - 1));
    val.push_back(v);
  }
  return true;
}

}  // namespace

sparse::CsrMatrix read_libsvm(std::istream& in,
                              const LibsvmReadOptions& options) {
  sparse::CsrBuilder builder(options.dim_hint);
  std::string line;
  std::size_t line_no = options.line_number_offset;
  std::vector<sparse::index_t> idx;
  std::vector<sparse::value_t> val;
  std::vector<sparse::value_t> raw_labels;

  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    double label = 0;
    if (!parse_line(line, line_no, label, idx, val)) continue;
    // Tolerate unsorted/duplicate indices by normalising through
    // add_row_unsorted; sorted input takes the same path (cheap for small
    // rows, correct for all). Builder-side rejections (e.g. CSR invariant
    // violations) get the line number stapled on here.
    try {
      builder.add_row_unsorted(std::vector<sparse::index_t>(idx),
                               std::vector<sparse::value_t>(val), label);
    } catch (const std::exception& e) {
      fail(line_no, e.what(), line);
    }
    raw_labels.push_back(label);
    if (options.max_rows && builder.rows() >= options.max_rows) break;
  }

  sparse::CsrMatrix data = builder.build();
  if (!options.normalize_binary_labels || data.rows() == 0) return data;

  // Binary label normalisation: when the file holds exactly two distinct
  // label values that are not already {-1, +1} (e.g. {0,1} or {1,2}), map
  // the smaller onto -1 and the larger onto +1.
  std::set<double> distinct;
  for (double y : raw_labels) {
    distinct.insert(y);
    if (distinct.size() > 2) break;
  }
  if (distinct.size() == 2) {
    const double lo = *distinct.begin();
    const double hi = *std::next(distinct.begin());
    if (!(lo == -1.0 && hi == 1.0)) {
      sparse::Array<sparse::value_t> mapped;
      mapped.reserve(raw_labels.size());
      for (double y : raw_labels) mapped.push_back(y == lo ? -1.0 : 1.0);
      data = sparse::CsrMatrix(data.dim(), data.row_ptr(), data.col_idx(),
                               data.values(), std::move(mapped));
    }
  }
  return data;
}

LibsvmIndex index_libsvm(std::istream& in, std::size_t rows_per_shard,
                         std::size_t dim_hint) {
  if (rows_per_shard == 0) {
    throw std::invalid_argument("index_libsvm: rows_per_shard must be > 0");
  }
  LibsvmIndex index;
  index.dim = dim_hint;
  std::string line;
  std::size_t line_no = 0;
  std::vector<sparse::index_t> idx;
  std::vector<sparse::value_t> val;
  std::set<double> distinct;

  const std::streamoff start = in.tellg();
  std::uint64_t line_offset = start < 0 ? 0 : static_cast<std::uint64_t>(start);
  for (;;) {
    if (!std::getline(in, line)) break;
    ++line_no;
    // getline consumed the row plus its terminator; the next line starts at
    // the current stream position (tellg is unusable mid-loop once EOF has
    // been hit, so track offsets by line length instead).
    const std::uint64_t next_offset =
        line_offset + static_cast<std::uint64_t>(line.size()) +
        (in.eof() ? 0 : 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    double label = 0;
    if (parse_line(line, line_no, label, idx, val)) {
      if (index.rows % rows_per_shard == 0) {
        index.shard_offset.push_back(line_offset);
        index.shard_first_line.push_back(line_no);
        index.shard_rows.push_back(0);
      }
      ++index.shard_rows.back();
      ++index.rows;
      // Count *merged* nonzeros: read_libsvm folds duplicate indices into
      // one entry, and the index must report the shape the reader produces.
      std::sort(idx.begin(), idx.end());
      index.nnz += static_cast<std::size_t>(
          std::distance(idx.begin(), std::unique(idx.begin(), idx.end())));
      for (sparse::index_t c : idx) {
        index.dim = std::max(index.dim, static_cast<std::size_t>(c) + 1);
      }
      if (distinct.size() <= 2) distinct.insert(label);
    }
    line_offset = next_offset;
  }
  index.distinct_labels.assign(distinct.begin(), distinct.end());
  return index;
}

sparse::CsrMatrix read_libsvm_file(const std::string& path,
                                   const LibsvmReadOptions& options) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("read_libsvm_file: cannot open '" + path + "'");
  }
  return read_libsvm(in, options);
}

void write_libsvm(std::ostream& out, const sparse::CsrMatrix& data) {
  char buf[64];
  for (std::size_t i = 0; i < data.rows(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", data.label(i));
    out << buf;
    const auto row = data.row(i);
    for (std::size_t k = 0; k < row.nnz(); ++k) {
      std::snprintf(buf, sizeof buf, "%.17g", row.value(k));
      out << ' ' << (row.index(k) + 1) << ':' << buf;
    }
    out << '\n';
  }
}

void write_libsvm_file(const std::string& path, const sparse::CsrMatrix& data) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_libsvm_file: cannot open '" + path + "'");
  }
  write_libsvm(out, data);
}

}  // namespace isasgd::io
