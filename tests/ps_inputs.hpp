// Datasets that pin how a parameter-server process group overlaps its
// workers' steps. The server may answer a step's coordinate get before the
// pushes ahead of it land only when none of those pushes writes one of its
// coordinates, so the two extremes of row overlap are pinned inputs of the
// bit-identity suites (dist_process_test, fault_recovery_test):
//
//   disjoint_rows           no two rows share a coordinate, so no step ever
//                           has to wait for another worker's push;
//   shared_coordinate_rows  every row holds coordinate 0, so every step
//                           waits for the push ahead of it to land.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sparse/csr_builder.hpp"
#include "sparse/csr_matrix.hpp"

namespace isasgd::test {

/// `rows` rows on pairwise disjoint supports: row i holds columns 3i, 3i+1
/// and 3i+2, except the middle row, which is empty. Labels alternate.
inline sparse::CsrMatrix disjoint_rows(std::size_t rows) {
  sparse::CsrBuilder builder(3 * rows);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<sparse::index_t> idx;
    std::vector<sparse::value_t> val;
    if (i != rows / 2) {
      for (std::size_t j = 0; j < 3; ++j) {
        idx.push_back(static_cast<sparse::index_t>(3 * i + j));
        val.push_back(0.25 + 0.125 * static_cast<double>((i + 2 * j) % 5));
      }
    }
    builder.add_row(idx, val, i % 2 == 0 ? 1.0 : -1.0);
  }
  return builder.build();
}

/// `rows` rows that all hold coordinate 0, each with one more coordinate
/// among `rows / 3` others. Labels follow a fixed pseudo-random pattern.
inline sparse::CsrMatrix shared_coordinate_rows(std::size_t rows) {
  const std::size_t others = rows / 3 + 1;
  sparse::CsrBuilder builder(others + 1);
  for (std::size_t i = 0; i < rows; ++i) {
    const sparse::index_t idx[2] = {
        0, static_cast<sparse::index_t>(1 + (7 * i) % others)};
    const sparse::value_t val[2] = {
        0.5 + 0.1 * static_cast<double>(i % 4),
        1.0 - 0.2 * static_cast<double>(i % 3)};
    builder.add_row(idx, val, (i * 5) % 7 < 4 ? 1.0 : -1.0);
  }
  return builder.build();
}

}  // namespace isasgd::test
