// Tests for the CLI option parser and the list flags' parsers.
#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/parse.hpp"

namespace fbc {
namespace {

CliParser make_parser() {
  CliParser cli("prog", "test program");
  cli.add_option("jobs", "number of jobs", "100");
  cli.add_option("alpha", "zipf alpha", "1.0");
  cli.add_option("name", "a string", "default");
  cli.add_flag("csv", "emit csv");
  return cli;
}

TEST(Cli, DefaultsApply) {
  CliParser cli = make_parser();
  cli.parse(std::vector<std::string>{});
  EXPECT_EQ(cli.get_u64("jobs"), 100u);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha"), 1.0);
  EXPECT_EQ(cli.get_string("name"), "default");
  EXPECT_FALSE(cli.get_flag("csv"));
  EXPECT_FALSE(cli.was_set("jobs"));
}

TEST(Cli, EqualsForm) {
  CliParser cli = make_parser();
  cli.parse({"--jobs=500", "--alpha=0.8"});
  EXPECT_EQ(cli.get_u64("jobs"), 500u);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha"), 0.8);
  EXPECT_TRUE(cli.was_set("jobs"));
}

TEST(Cli, SpaceForm) {
  CliParser cli = make_parser();
  cli.parse({"--jobs", "250", "--name", "hello"});
  EXPECT_EQ(cli.get_u64("jobs"), 250u);
  EXPECT_EQ(cli.get_string("name"), "hello");
}

TEST(Cli, Flags) {
  CliParser cli = make_parser();
  cli.parse({"--csv"});
  EXPECT_TRUE(cli.get_flag("csv"));
  CliParser cli2 = make_parser();
  cli2.parse({"--csv=false"});
  EXPECT_FALSE(cli2.get_flag("csv"));
}

TEST(Cli, UnknownOptionThrows) {
  CliParser cli = make_parser();
  EXPECT_THROW(cli.parse({"--bogus=1"}), std::invalid_argument);
}

TEST(Cli, MissingValueThrows) {
  CliParser cli = make_parser();
  EXPECT_THROW(cli.parse({"--jobs"}), std::invalid_argument);
}

TEST(Cli, PositionalArgumentThrows) {
  CliParser cli = make_parser();
  EXPECT_THROW(cli.parse({"stray"}), std::invalid_argument);
}

TEST(Cli, BadNumberThrows) {
  CliParser cli = make_parser();
  cli.parse({"--jobs=notanumber"});
  EXPECT_THROW((void)cli.get_u64("jobs"), std::invalid_argument);
}

TEST(Cli, NumbersMustBeTheWholeValue) {
  // std::stoull read "-1" as 2^64-1 and "12abc" as 12, so
  // `fbcd --workers=-1` reached the daemon as 18446744073709551615.
  CliParser cli("p", "d");
  cli.add_option("n", "unsigned", "0");
  cli.add_option("i", "signed", "0");
  cli.add_option("x", "real", "0");
  for (const char* bad : {"-1", "+1", " 7", "7 ", "12abc", "", "0x10",
                          "18446744073709551616"}) {
    cli.parse({std::string("--n=") + bad});
    EXPECT_THROW((void)cli.get_u64("n"), std::invalid_argument) << bad;
    EXPECT_THROW((void)cli.get_u32("n"), std::invalid_argument) << bad;
  }
  for (const char* bad : {"+3", " -3", "-3x", "1.5"}) {
    cli.parse({std::string("--i=") + bad});
    EXPECT_THROW((void)cli.get_i64("i"), std::invalid_argument) << bad;
  }
  for (const char* bad : {"+0.5", " 0.5", "0.5s", "1e", ""}) {
    cli.parse({std::string("--x=") + bad});
    EXPECT_THROW((void)cli.get_double("x"), std::invalid_argument) << bad;
  }
  try {
    cli.parse({"--n=-1"});
    (void)cli.get_u64("n");
    FAIL() << "--n=-1 parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos)
        << e.what();
  }
  cli.parse({"--n=18446744073709551615", "--i=-9", "--x=1e-4"});
  EXPECT_EQ(cli.get_u64("n"), 18446744073709551615u);
  EXPECT_EQ(cli.get_i64("i"), -9);
  EXPECT_DOUBLE_EQ(cli.get_double("x"), 1e-4);
}

TEST(Cli, FlagWithBadValueThrows) {
  CliParser cli = make_parser();
  EXPECT_THROW(cli.parse({"--csv=maybe"}), std::invalid_argument);
}

TEST(Cli, UnregisteredGetterThrows) {
  CliParser cli = make_parser();
  cli.parse(std::vector<std::string>{});
  EXPECT_THROW((void)cli.get_string("nothere"), std::invalid_argument);
}

TEST(Cli, UsageListsOptions) {
  CliParser cli = make_parser();
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("--jobs"), std::string::npos);
  EXPECT_NE(usage.find("--csv"), std::string::npos);
  EXPECT_NE(usage.find("default: 100"), std::string::npos);
}

TEST(Cli, NegativeInteger) {
  CliParser cli("p", "d");
  cli.add_option("delta", "signed", "-5");
  cli.parse(std::vector<std::string>{});
  EXPECT_EQ(cli.get_i64("delta"), -5);
}

TEST(ParseList, ReadsWholeValuesAndSkipsEmptyItems) {
  EXPECT_EQ(parse_list<std::uint32_t>("3,7,,12,", "--files"),
            (std::vector<std::uint32_t>{3, 7, 12}));
  EXPECT_TRUE(parse_list<std::uint32_t>("", "--files").empty());
  EXPECT_EQ(parse_port_list("7401,7411", "--cluster"),
            (std::vector<std::uint16_t>{7401, 7411}));
}

TEST(ParseList, RejectsFileIdThatIsNotWhole) {
  for (const char* list : {"3,7x", "-1", "4294967296", " 3"})
    EXPECT_THROW((void)parse_list<std::uint32_t>(list, "--files"),
                 std::invalid_argument)
        << list;
}

TEST(ParseList, RejectsPortAboveRange) {
  EXPECT_THROW((void)parse_port_list("70000", "--cluster"),
               std::invalid_argument);
}

TEST(ParseList, RejectsPortWithTrailingText) {
  EXPECT_THROW((void)parse_port_list("7401x", "--cluster"),
               std::invalid_argument);
}

TEST(ParseList, RejectsPortZero) {
  try {
    (void)parse_port_list("7401,0", "--attach");
    ADD_FAILURE() << "port 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--attach"), std::string::npos);
  }
}

TEST(ParsePort, AcceptsTheWholeRangeIncludingEphemeralZero) {
  EXPECT_EQ(parse_port("0", "--port"), 0u);
  EXPECT_EQ(parse_port("7401", "--port"), 7401u);
  EXPECT_EQ(parse_port("65535", "--port"), 65535u);
}

TEST(ParsePort, RejectsOutOfRangeAndNegativeNamingTheFlag) {
  // 70000 used to wrap to 4464 through a uint16_t cast.
  for (const char* text : {"70000", "-1", "65536", "80x", ""}) {
    try {
      (void)parse_port(text, "--port");
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--port"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace fbc
