// The bench record (util/record.hpp): what write_record() writes,
// read_record() gives back — strings byte for byte, doubles bit for bit,
// non-finite numbers as null — and every way a --baseline file can be
// unusable is a RecordError that names it.
#include "util/record.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

namespace isasgd::util {
namespace {

class RecordTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("isasgd_record_test_" + std::to_string(::getpid()) + ".json"))
                .string();
  }
  void TearDown() override { std::filesystem::remove_all(path_); }

  /// read_record(path_) must throw a RecordError that names the path and
  /// holds `what`.
  void expect_error(const std::string& what) const {
    try {
      (void)read_record(path_);
      ADD_FAILURE() << "read_record accepted " << path_;
    } catch (const RecordError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(path_), std::string::npos) << message;
      EXPECT_NE(message.find(what), std::string::npos) << message;
    }
  }

  std::string path_;
};

BenchRecord sample() {
  BenchRecord r;
  r.bench = "sample";
  r.host = {{"compiler", "gcc"}, {"nproc", 4}};
  r.config = {{"seed", 7}, {"check", true}};
  r.rows.push_back({{"solver", "sgd"}, {"threads", 1}, {"rate", 0.5}});
  r.rows.push_back({{"solver", "sgd"}, {"threads", 4}, {"rate", 1.5}});
  return r;
}

TEST_F(RecordTest, StringsRoundTripByteForByte) {
  BenchRecord r = sample();
  const std::string hostile = "a \"quoted\" \\ back\nslash\x01\x1f end \xc3\xa9";
  r.bench = hostile;
  r.config.push_back({hostile, hostile});
  r.check(hostile, true, hostile);
  write_record(path_, r);
  const BenchRecord back = read_record(path_);
  EXPECT_EQ(back.bench, hostile);
  EXPECT_EQ(back.config, r.config);
  ASSERT_EQ(back.checks.size(), 1u);
  EXPECT_EQ(back.checks[0], r.checks[0]);
  EXPECT_EQ(*find_field(back.checks[0], "name"), RecordValue(hostile));
  EXPECT_EQ(*find_field(back.checks[0], "detail"), RecordValue(hostile));
  EXPECT_EQ(back.host, r.host);
  EXPECT_EQ(back.rows, r.rows);
}

TEST_F(RecordTest, DoublesRoundTripBitForBit) {
  const double values[] = {0.1,
                           1e-300,
                           std::numeric_limits<double>::denorm_min(),
                           3 * std::numeric_limits<double>::denorm_min(),
                           -0.0,
                           1.0 / 3.0,
                           std::numeric_limits<double>::max(),
                           9007199254740993.0};
  BenchRecord r = sample();
  for (const double v : values) r.rows.push_back({{"v", v}});
  write_record(path_, r);
  const BenchRecord back = read_record(path_);
  ASSERT_EQ(back.rows.size(), r.rows.size());
  for (std::size_t i = 0; i < std::size(values); ++i) {
    const std::optional<double> got =
        find_field(back.rows[2 + i], "v")->number();
    ASSERT_TRUE(got.has_value()) << values[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*got),
              std::bit_cast<std::uint64_t>(values[i]))
        << values[i];
  }
}

TEST_F(RecordTest, NonFiniteNumbersAreWrittenAsNull) {
  BenchRecord r = sample();
  r.rows.push_back({{"inf", std::numeric_limits<double>::infinity()},
                    {"-inf", -std::numeric_limits<double>::infinity()},
                    {"nan", std::nan("")}});
  write_record(path_, r);
  std::ifstream in(path_);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find(R"({"inf": null, "-inf": null, "nan": null})"),
            std::string::npos)
      << text;
  const BenchRecord back = read_record(path_);
  for (const char* name : {"inf", "-inf", "nan"}) {
    const RecordValue* v = find_field(back.rows.back(), name);
    ASSERT_NE(v, nullptr) << name;
    EXPECT_TRUE(std::holds_alternative<std::monostate>(v->v)) << name;
    EXPECT_FALSE(v->number().has_value()) << name;
  }
}

TEST_F(RecordTest, AMissingFileIsATypedErrorNamingIt) {
  expect_error("cannot open");
}

TEST_F(RecordTest, AnUnreadableOrEmptyFileIsATypedErrorNamingIt) {
  std::filesystem::create_directory(path_);
  expect_error("cannot read");
  std::filesystem::remove(path_);
  { std::ofstream empty(path_); }
  expect_error("cannot read");
  {
    std::ofstream garbage(path_);
    garbage << "{\"workload\": {}, \"runs\": []}";
  }
  expect_error("unexpected key 'workload'");
  {
    std::ofstream torn(path_);
    torn << "{\"bench\": \"x\", \"rows\": [{\"a\": 1}";
  }
  expect_error("expected");
}

TEST_F(RecordTest, ARecordWithNoRowsIsATypedErrorNamingIt) {
  BenchRecord r = sample();
  r.rows.clear();
  write_record(path_, r);
  expect_error("holds no rows");
}

TEST_F(RecordTest, RowsAreFoundByTheirKeyFields) {
  BenchRecord r = sample();
  write_record(path_, r);
  const BenchRecord back = read_record(path_);
  const RecordFields* four = back.find_row({{"solver", "sgd"}, {"threads", 4}});
  ASSERT_NE(four, nullptr);
  EXPECT_EQ(find_field(*four, "rate")->number(), 1.5);
  EXPECT_EQ(back.find_row({{"solver", "sgd"}}), &back.rows[0]);
  EXPECT_EQ(back.find_row({{"solver", "asgd"}, {"threads", 4}}), nullptr);
  EXPECT_EQ(back.find_row({{"solver", "sgd"}, {"backend", "avx2"}}), nullptr);
  // A number never equals the string that spells it.
  EXPECT_EQ(back.find_row({{"threads", "4"}}), nullptr);
}

TEST_F(RecordTest, TheExitCodeIsNonzeroIfAndOnlyIfACheckFailed) {
  BenchRecord r = sample();
  EXPECT_EQ(r.exit_code(), 0);
  r.check("first", true, "fine");
  r.check("second", true);
  EXPECT_EQ(r.exit_code(), 0);
  r.check("third", false, "ratio ", 0.25);
  EXPECT_EQ(r.exit_code(), 1);
  r.check("fourth", true);
  EXPECT_EQ(r.exit_code(), 1);
  ASSERT_EQ(r.checks.size(), 4u);
  EXPECT_EQ(r.checks[2], (RecordFields{{"name", "third"},
                                       {"passed", false},
                                       {"detail", "ratio 0.25"}}));
  // The ledger travels with the record.
  write_record(path_, r);
  const BenchRecord back = read_record(path_);
  EXPECT_EQ(back.checks, r.checks);
  EXPECT_EQ(back.exit_code(), 1);
  // A check the file records without a passed flag, or with another value
  // than true, did not pass.
  BenchRecord odd = sample();
  odd.checks.push_back({{"name", "no flag"}});
  EXPECT_EQ(odd.exit_code(), 1);
  odd.checks.back() = {{"name", "string flag"}, {"passed", "true"}};
  EXPECT_EQ(odd.exit_code(), 1);
}

}  // namespace
}  // namespace isasgd::util
