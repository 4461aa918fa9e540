#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace isasgd::util {
namespace {

CliParser make_parser() {
  CliParser cli("prog", "test program");
  cli.add_flag("epochs", "15", "number of epochs");
  cli.add_flag("lambda", "0.5", "step size");
  cli.add_flag("verbose", "false", "chatty output");
  cli.add_flag("threads", "4,8,16", "thread counts");
  cli.add_flag("name", "default", "a string");
  return cli;
}

int parse(CliParser& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return cli.parse(static_cast<int>(args.size()), args.data());
}

TEST(CliParser, DefaultsApplyWhenNotSupplied) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {}));
  EXPECT_EQ(cli.get_int("epochs"), 15);
  EXPECT_DOUBLE_EQ(cli.get_double("lambda"), 0.5);
  EXPECT_FALSE(cli.get_bool("verbose"));
  EXPECT_FALSE(cli.supplied("epochs"));
}

TEST(CliParser, SpaceSeparatedForm) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--epochs", "30"}));
  EXPECT_EQ(cli.get_int("epochs"), 30);
  EXPECT_TRUE(cli.supplied("epochs"));
}

TEST(CliParser, EqualsForm) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--lambda=0.05"}));
  EXPECT_DOUBLE_EQ(cli.get_double("lambda"), 0.05);
}

TEST(CliParser, BareBooleanFlag) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--verbose"}));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(CliParser, BooleanFollowedByAnotherFlag) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--verbose", "--epochs", "3"}));
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get_int("epochs"), 3);
}

TEST(CliParser, IntListParsing) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--threads", "1,2,32"}));
  EXPECT_EQ(cli.get_int_list("threads"), (std::vector<int>{1, 2, 32}));
}

TEST(CliParser, IntListRejectsPartiallyNumericItems) {
  // Pre-fix, unchecked std::stoi read "--threads=4x,8" as {4, 8}: the typo'd
  // benchmark silently measured the wrong thread counts. Every item must now
  // consume its full token, like get_int/get_double already did.
  for (const char* bad : {"4x,8", "4,8x", "1,2.5", "1,two", "0x4,8", "4 ,8"}) {
    CliParser cli = make_parser();
    ASSERT_TRUE(parse(cli, {"--threads", bad}));
    EXPECT_THROW(cli.get_int_list("threads"), std::invalid_argument) << bad;
  }
}

TEST(CliParser, IntListStillAcceptsNegativesAndSkipsEmptyItems) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--threads", "-1,,8,"}));
  EXPECT_EQ(cli.get_int_list("threads"), (std::vector<int>{-1, 8}));
}

TEST(CliParser, IntListDefault) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {}));
  EXPECT_EQ(cli.get_int_list("threads"), (std::vector<int>{4, 8, 16}));
}

// A mistyped command line exits 2 with the error and the usage on stderr,
// in every program that parses through CliParser.
TEST(CliParser, UnknownFlagExitsTwoWithUsage) {
  CliParser cli = make_parser();
  EXPECT_EXIT(parse(cli, {"--bogus", "1"}), ::testing::ExitedWithCode(2),
              "prog: unknown flag --bogus\nprog .*--epochs");
}

TEST(CliParser, PositionalArgumentExitsTwoWithUsage) {
  CliParser cli = make_parser();
  EXPECT_EXIT(parse(cli, {"positional"}), ::testing::ExitedWithCode(2),
              "prog: positional argument 'positional' not supported\nprog ");
}

TEST(CliParser, NonNumericValueThrows) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--epochs", "abc"}));
  EXPECT_THROW((void)cli.get_int("epochs"), std::invalid_argument);
}

TEST(CliParser, NonBooleanValueThrows) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--verbose", "maybe"}));
  EXPECT_THROW((void)cli.get_bool("verbose"), std::invalid_argument);
}

TEST(CliParser, HelpReturnsFalse) {
  CliParser cli = make_parser();
  EXPECT_FALSE(parse(cli, {"--help"}));
}

TEST(CliParser, DuplicateFlagRegistrationThrows) {
  CliParser cli = make_parser();
  EXPECT_THROW(cli.add_flag("epochs", "1", "dup"), std::logic_error);
}

TEST(CliParser, UnregisteredAccessorThrows) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {}));
  EXPECT_THROW(cli.get("nope"), std::logic_error);
}

TEST(CliParser, UsageMentionsFlagsAndDefaults) {
  CliParser cli = make_parser();
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("--epochs"), std::string::npos);
  EXPECT_NE(usage.find("default: 15"), std::string::npos);
}

TEST(CliParser, BoolAcceptsCommonSpellings) {
  for (const char* spelling : {"true", "1", "yes", "on"}) {
    CliParser cli = make_parser();
    ASSERT_TRUE(parse(cli, {"--verbose", spelling}));
    EXPECT_TRUE(cli.get_bool("verbose")) << spelling;
  }
  for (const char* spelling : {"false", "0", "no", "off"}) {
    CliParser cli = make_parser();
    ASSERT_TRUE(parse(cli, {"--verbose", spelling}));
    EXPECT_FALSE(cli.get_bool("verbose")) << spelling;
  }
}

}  // namespace
}  // namespace isasgd::util
