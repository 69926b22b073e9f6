// util/cli.h: strict CLI-flag parsing and the flag table the tools declare
// their flags in. Regression coverage for the tools' former bare-atoi
// behaviour, where `--port x` silently bound port 0 (an ephemeral port),
// `--queue-depth x` silently shed everything, and numeric overflow was UB.
#include "util/cli.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace htd::util {
namespace {

TEST(CliTest, ParsesPlainIntegers) {
  long value = -1;
  EXPECT_TRUE(ParseIntFlag("8080", 0, 65535, &value));
  EXPECT_EQ(value, 8080);
  EXPECT_TRUE(ParseIntFlag("0", 0, 65535, &value));
  EXPECT_EQ(value, 0);
  EXPECT_TRUE(ParseIntFlag("-3", -10, 10, &value));
  EXPECT_EQ(value, -3);
  EXPECT_TRUE(ParseIntFlag("+7", 0, 10, &value));
  EXPECT_EQ(value, 7);
}

TEST(CliTest, RejectsWhatAtoiAccepted) {
  long value = 123;
  // atoi("x") == 0: the bug this helper exists to kill.
  EXPECT_FALSE(ParseIntFlag("x", 0, 65535, &value));
  // atoi("8080x") == 8080: trailing junk must fail, full string or nothing.
  EXPECT_FALSE(ParseIntFlag("8080x", 0, 65535, &value));
  EXPECT_FALSE(ParseIntFlag("12 ", 0, 65535, &value));
  EXPECT_FALSE(ParseIntFlag(" 12", 0, 65535, &value));
  EXPECT_FALSE(ParseIntFlag("", 0, 65535, &value));
  EXPECT_FALSE(ParseIntFlag("1.5", 0, 65535, &value));
  EXPECT_FALSE(ParseIntFlag("0x10", 0, 65535, &value));
  EXPECT_EQ(value, 123) << "failed parses must not touch the output";
}

TEST(CliTest, RejectsOutOfRangeAndOverflow) {
  long value;
  EXPECT_FALSE(ParseIntFlag("65536", 0, 65535, &value));
  EXPECT_FALSE(ParseIntFlag("-1", 0, 65535, &value));
  // atoi overflow is UB; here it is a plain failure.
  EXPECT_FALSE(ParseIntFlag("99999999999999999999999999", 0, 65535, &value));
  EXPECT_FALSE(ParseIntFlag("-99999999999999999999999999", -100, 100, &value));
  EXPECT_TRUE(ParseIntFlag("65535", 0, 65535, &value));
  EXPECT_EQ(value, 65535);
}

TEST(CliTest, ParsesSeconds) {
  double value = -1;
  EXPECT_TRUE(ParseDoubleFlag("1.5", 0.0, &value));
  EXPECT_DOUBLE_EQ(value, 1.5);
  EXPECT_TRUE(ParseDoubleFlag("0", 0.0, &value));
  EXPECT_DOUBLE_EQ(value, 0.0);
  EXPECT_TRUE(ParseDoubleFlag("1e3", 0.0, &value));
  EXPECT_DOUBLE_EQ(value, 1000.0);
}

TEST(CliTest, RejectsBadSeconds) {
  double value;
  EXPECT_FALSE(ParseDoubleFlag("abc", 0.0, &value));
  EXPECT_FALSE(ParseDoubleFlag("1.5s", 0.0, &value));
  EXPECT_FALSE(ParseDoubleFlag("", 0.0, &value));
  EXPECT_FALSE(ParseDoubleFlag("-1", 0.0, &value));
  EXPECT_FALSE(ParseDoubleFlag("nan", 0.0, &value));
  EXPECT_FALSE(ParseDoubleFlag("inf", 0.0, &value));
  EXPECT_FALSE(ParseDoubleFlag("1e999", 0.0, &value));
}

/// A value type with the `static util::StatusOr<T> Parse(text)` shape the
/// typed Parsed overload expects: "a:b" splits, anything else fails.
struct Pair {
  std::string left, right;
  static StatusOr<Pair> Parse(const std::string& text) {
    size_t colon = text.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("expected a:b");
    }
    return Pair{text.substr(0, colon), text.substr(colon + 1)};
  }
};

struct Bound {
  int port = 8080;
  size_t capacity = 4096;
  long twice = 0;
  double timeout = 30;
  double unset_timeout = -1;
  std::string host = "127.0.0.1";
  bool verbose = false;
  bool save = true;
  std::optional<Pair> pair;
  std::string endpoint;

  FlagTable Table() {
    FlagTable table("[options] COMMAND");
    table.Int("--port", &port, 0, 65535, "listen port")
        .Int("--capacity", &capacity, 1, 1'000'000, "entries")
        .Int("--twice", 1, 10, [this](long v) { twice = 2 * v; },
             "stored doubled", 3)
        .Seconds("--timeout", &timeout, "deadline")
        .Seconds("--unset", &unset_timeout, "no default shown")
        .Text("--host", "ADDR", &host, "listen address")
        .Switch("--verbose", &verbose, "talk more")
        .Switch("--no-save", &save, "do not save", false)
        .Parsed("--pair", "A:B", &pair, "a typed parsed value")
        .Parsed("--endpoint", "H:P",
                [this](const std::string& text) {
                  if (text.find(':') == std::string::npos) {
                    return std::string("expected host:port");
                  }
                  endpoint = text;
                  return std::string();
                },
                "a parsed value with its own setter");
    return table;
  }
};

FlagTable::Outcome ParseWords(const FlagTable& table,
                              std::vector<const char*> words,
                              std::vector<std::string>* positionals,
                              std::string* error, size_t max_positionals = 2) {
  words.insert(words.begin(), "tool");
  return table.Parse(static_cast<int>(words.size()), words.data(),
                     max_positionals, positionals, error);
}

TEST(FlagTableTest, AcceptsEveryValueKind) {
  Bound bound;
  FlagTable table = bound.Table();
  std::vector<std::string> positionals;
  std::string error;
  EXPECT_EQ(ParseWords(table,
                       {"--port", "0", "--capacity", "1000000", "--twice", "4",
                        "--timeout", "1.5", "--host", "::1", "--verbose",
                        "--no-save", "--pair", "x:y", "--endpoint", "h:1",
                        "--unset", "0"},
                       &positionals, &error),
            FlagTable::Outcome::kOk)
      << error;
  EXPECT_EQ(bound.port, 0);
  EXPECT_EQ(bound.capacity, 1'000'000u);
  EXPECT_EQ(bound.twice, 8);
  EXPECT_DOUBLE_EQ(bound.timeout, 1.5);
  EXPECT_DOUBLE_EQ(bound.unset_timeout, 0.0);
  EXPECT_EQ(bound.host, "::1");
  EXPECT_TRUE(bound.verbose);
  EXPECT_FALSE(bound.save);
  ASSERT_TRUE(bound.pair.has_value());
  EXPECT_EQ(bound.pair->left, "x");
  EXPECT_EQ(bound.pair->right, "y");
  EXPECT_EQ(bound.endpoint, "h:1");
  EXPECT_TRUE(positionals.empty());
}

TEST(FlagTableTest, ErrorsNameTheFlagAndWhy) {
  struct Case {
    std::vector<const char*> words;
    std::string error;
  };
  const Case cases[] = {
      {{"--port"}, "missing value for --port"},
      {{"--port", "x"},
       "invalid value for --port: \"x\" (expected an integer in [0, 65535])"},
      {{"--port", "65536"},
       "invalid value for --port: \"65536\" (expected an integer in [0, "
       "65535])"},
      {{"--capacity", "0"},
       "invalid value for --capacity: \"0\" (expected an integer in [1, "
       "1000000])"},
      {{"--twice", "11"},
       "invalid value for --twice: \"11\" (expected an integer in [1, 10])"},
      {{"--timeout", "-1"},
       "invalid value for --timeout: \"-1\" (expected seconds >= 0)"},
      {{"--pair", "xy"}, "invalid value for --pair: \"xy\" (expected a:b)"},
      {{"--endpoint", "h"},
       "invalid value for --endpoint: \"h\" (expected host:port)"},
      {{"--bogus"}, "unknown flag: --bogus"},
      {{"a", "b", "c"}, "unexpected argument: c"},
  };
  for (const Case& c : cases) {
    Bound bound;
    std::vector<std::string> positionals;
    std::string error;
    EXPECT_EQ(ParseWords(bound.Table(), c.words, &positionals, &error),
              FlagTable::Outcome::kError)
        << c.error;
    EXPECT_EQ(error, c.error);
    EXPECT_EQ(bound.port, 8080) << "a failed parse must not touch the value";
  }
}

TEST(FlagTableTest, PositionalsPassThroughAndHelpStops) {
  Bound bound;
  FlagTable table = bound.Table();
  std::vector<std::string> positionals;
  std::string error;
  EXPECT_EQ(ParseWords(table, {"decompose", "--port", "9", "-"}, &positionals,
                       &error),
            FlagTable::Outcome::kOk)
      << error;
  EXPECT_EQ(positionals, (std::vector<std::string>{"decompose", "-"}));
  EXPECT_EQ(bound.port, 9);
  for (const char* help : {"--help", "-h"}) {
    positionals.clear();
    EXPECT_EQ(ParseWords(table, {"stats", help, "--bogus"}, &positionals,
                         &error),
              FlagTable::Outcome::kHelp);
  }
  positionals.clear();
  EXPECT_EQ(ParseWords(table, {"stats"}, &positionals, &error, 0),
            FlagTable::Outcome::kError);
  EXPECT_EQ(error, "unexpected argument: stats");
}

TEST(FlagTableTest, UsageNamesEveryFlagOnceWithItsDefault) {
  Bound bound;
  const std::string usage = bound.Table().Usage("tool");
  EXPECT_EQ(usage.rfind("usage: tool [options] COMMAND\n", 0), 0u) << usage;
  auto count = [&usage](const std::string& text) {
    size_t n = 0;
    for (size_t at = usage.find(text); at != std::string::npos;
         at = usage.find(text, at + 1)) {
      ++n;
    }
    return n;
  };
  for (const char* flag :
       {"--port N", "--capacity N", "--twice N", "--timeout S", "--unset S",
        "--host ADDR", "--verbose", "--no-save", "--pair A:B", "--endpoint H:P",
        "-h, --help"}) {
    EXPECT_EQ(count(std::string("  ") + flag), 1u) << flag << "\n" << usage;
  }
  for (const char* shown : {"(default 8080)", "(default 4096)", "(default 3)",
                            "(default 30)", "(default 127.0.0.1)"}) {
    EXPECT_EQ(count(shown), 1u) << shown << "\n" << usage;
  }
  EXPECT_EQ(count("(default"), 5u) << "unset values show no default\n" << usage;
  for (size_t start = 0, end; start < usage.size(); start = end + 1) {
    end = usage.find('\n', start);
    EXPECT_LE(end - start, 79u) << usage.substr(start, end - start);
  }
}

}  // namespace
}  // namespace htd::util
