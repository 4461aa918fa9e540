#include "io/binary.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "data/synthetic.hpp"
#include "load_in_child.hpp"

namespace isasgd::io {
namespace {

sparse::CsrMatrix sample_dataset() {
  data::SyntheticSpec spec;
  spec.rows = 300;
  spec.dim = 500;
  spec.mean_row_nnz = 7;
  spec.seed = 99;
  return data::generate(spec);
}

TEST(BinaryIo, DatasetRoundTripsExactly) {
  const auto original = sample_dataset();
  std::stringstream buf;
  write_dataset_binary(buf, original);
  const auto restored = read_dataset_binary(buf);
  EXPECT_EQ(restored.dim(), original.dim());
  EXPECT_EQ(restored.rows(), original.rows());
  EXPECT_EQ(restored.row_ptr(), original.row_ptr());
  EXPECT_EQ(restored.col_idx(), original.col_idx());
  EXPECT_EQ(restored.values(), original.values());
  EXPECT_EQ(restored.labels(), original.labels());
}

TEST(BinaryIo, EmptyDatasetRoundTrips) {
  sparse::CsrMatrix empty;
  std::stringstream buf;
  write_dataset_binary(buf, empty);
  const auto restored = read_dataset_binary(buf);
  EXPECT_EQ(restored.rows(), 0u);
  EXPECT_EQ(restored.nnz(), 0u);
}

TEST(BinaryIo, BadMagicIsRejected) {
  std::stringstream buf;
  buf << "NOTMAGIC-and-some-padding-bytes";
  EXPECT_THROW(read_dataset_binary(buf), std::runtime_error);
}

TEST(BinaryIo, TruncatedDatasetIsRejected) {
  const auto original = sample_dataset();
  std::stringstream buf;
  write_dataset_binary(buf, original);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream half(bytes);
  EXPECT_THROW(read_dataset_binary(half), std::runtime_error);
}

TEST(BinaryIo, CorruptedHeaderIsRejected) {
  const auto original = sample_dataset();
  std::stringstream buf;
  write_dataset_binary(buf, original);
  std::string bytes = buf.str();
  bytes[9] = '\xff';  // clobber the dim field
  bytes[10] = '\xff';
  bytes[15] = '\x7f';
  std::stringstream bad(bytes);
  EXPECT_THROW(read_dataset_binary(bad), std::runtime_error);
}

TEST(BinaryIo, ModelRoundTripsExactly) {
  std::vector<double> w = {0.0, -1.5, 3.25e-17, 1e300, -0.0};
  std::stringstream buf;
  write_model_binary(buf, w);
  EXPECT_EQ(read_model_binary(buf), w);
}

TEST(BinaryIo, ModelBadMagicIsRejected) {
  const auto original = sample_dataset();
  std::stringstream buf;
  write_dataset_binary(buf, original);  // dataset magic, not model magic
  EXPECT_THROW(read_model_binary(buf), std::runtime_error);
}

// A header announcing 2^25 elements (256 MiB) in a file that holds none of
// them must fail typed before anything that size is allocated: the load may
// grow the reader's peak RSS and VmPeak by 64 MiB at most.
constexpr double kLyingHeaderBoundMib = 64;
constexpr std::uint64_t kLyingCount = std::uint64_t{1} << 25;

TEST(BinaryIo, LyingModelHeaderFailsBeforeSizingTheModel) {
  const std::string path = ::testing::TempDir() + "lying_model_" +
                           std::to_string(::getpid()) + ".bin";
  test::write_header_only(path, "ISASGDW1", {kLyingCount});
  const test::LoadInChild load =
      test::load_in_child([&] { (void)read_model_binary_file(path); });
  std::remove(path.c_str());
  EXPECT_TRUE(load.typed_error);
  EXPECT_LE(load.rss_growth_mib, kLyingHeaderBoundMib);
  EXPECT_LE(load.vm_peak_growth_mib, kLyingHeaderBoundMib);
}

TEST(BinaryIo, LyingDatasetHeaderFailsBeforeSizingTheArrays) {
  const std::string path = ::testing::TempDir() + "lying_dataset_" +
                           std::to_string(::getpid()) + ".bin";
  test::write_header_only(path, "ISASGDD1", {64, kLyingCount, 0});
  const test::LoadInChild load =
      test::load_in_child([&] { (void)read_dataset_binary_file(path); });
  std::remove(path.c_str());
  EXPECT_TRUE(load.typed_error);
  EXPECT_LE(load.rss_growth_mib, kLyingHeaderBoundMib);
  EXPECT_LE(load.vm_peak_growth_mib, kLyingHeaderBoundMib);
}

TEST(BinaryIo, LyingHeaderOnAStreamThatCannotSeekFailsTyped) {
  // A pipe cannot report what it still holds: the reader grows the array
  // with what it reads and fails at the first missing byte.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const char magic[8] = {'I', 'S', 'A', 'S', 'G', 'D', 'W', '1'};
  ASSERT_EQ(::write(fds[1], magic, 8), 8);
  const std::uint64_t dim = kLyingCount;
  ASSERT_EQ(::write(fds[1], &dim, sizeof dim), 8);
  const double one = 1.0;
  ASSERT_EQ(::write(fds[1], &one, sizeof one), 8);
  ::close(fds[1]);
  const std::string path = "/proc/self/fd/" + std::to_string(fds[0]);
  EXPECT_THROW((void)read_model_binary_file(path), std::runtime_error);
  ::close(fds[0]);
}

TEST(BinaryIo, FileRoundTrip) {
  const auto original = sample_dataset();
  const std::string path = "/tmp/isasgd_binary_io_test.bin";
  write_dataset_binary_file(path, original);
  const auto restored = read_dataset_binary_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(restored.values(), original.values());
}

TEST(BinaryIo, MissingFileThrows) {
  EXPECT_THROW(read_dataset_binary_file("/no/such/file.bin"),
               std::runtime_error);
  EXPECT_THROW(read_model_binary_file("/no/such/model.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace isasgd::io
