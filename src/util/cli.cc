#include "util/cli.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace htd::util {

bool ParseIntFlag(std::string_view text, long min_value, long max_value,
                  long* out) {
  if (text.empty()) return false;
  // strtol skips leading whitespace; a flag value starting with space is
  // operator error, not a number.
  if (std::isspace(static_cast<unsigned char>(text.front()))) return false;
  std::string owned(text);
  errno = 0;
  char* end = nullptr;
  long value = std::strtol(owned.c_str(), &end, 10);
  if (end != owned.c_str() + owned.size()) return false;
  if (errno == ERANGE) return false;
  if (value < min_value || value > max_value) return false;
  *out = value;
  return true;
}

bool ParseDoubleFlag(std::string_view text, double min_value, double* out) {
  if (text.empty()) return false;
  if (std::isspace(static_cast<unsigned char>(text.front()))) return false;
  std::string owned(text);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(owned.c_str(), &end);
  if (end != owned.c_str() + owned.size()) return false;
  if (errno == ERANGE || !std::isfinite(value)) return false;
  if (value < min_value) return false;
  *out = value;
  return true;
}

FlagTable::FlagTable(std::string synopsis, std::string notes)
    : synopsis_(std::move(synopsis)), notes_(std::move(notes)) {}

FlagTable& FlagTable::Add(Flag flag) {
  flags_.push_back(std::move(flag));
  return *this;
}

FlagTable& FlagTable::Int(std::string name, long min_value, long max_value,
                          std::function<void(long)> set, std::string help,
                          std::optional<long> shown_default) {
  const std::string expected = "expected an integer in [" +
                               std::to_string(min_value) + ", " +
                               std::to_string(max_value) + "]";
  return Add({std::move(name), "N", std::move(help),
              shown_default ? std::to_string(*shown_default) : "",
              [=](const std::string& text) {
                long value;
                if (!ParseIntFlag(text, min_value, max_value, &value)) {
                  return expected;
                }
                set(value);
                return std::string();
              }});
}

FlagTable& FlagTable::Seconds(std::string name, double* out, std::string help) {
  char shown[32] = "";
  if (*out >= 0) std::snprintf(shown, sizeof(shown), "%g", *out);
  return Add({std::move(name), "S", std::move(help), shown,
              [out](const std::string& text) {
                if (ParseDoubleFlag(text, 0.0, out)) return std::string();
                return std::string("expected seconds >= 0");
              }});
}

FlagTable& FlagTable::Text(std::string name, std::string metavar,
                           std::string* out, std::string help) {
  return Add({std::move(name), std::move(metavar), std::move(help), *out,
              [out](const std::string& text) {
                *out = text;
                return std::string();
              }});
}

FlagTable& FlagTable::Switch(std::string name, bool* out, std::string help,
                             bool value) {
  return Add({std::move(name), "", std::move(help), "",
              [out, value](const std::string&) {
                *out = value;
                return std::string();
              }});
}

FlagTable& FlagTable::Parsed(std::string name, std::string metavar,
                             ParseFn parse, std::string help) {
  return Add({std::move(name), std::move(metavar), std::move(help), "",
              std::move(parse)});
}

FlagTable::Outcome FlagTable::Parse(int argc, const char* const* argv,
                                    size_t max_positionals,
                                    std::vector<std::string>* positionals,
                                    std::string* error) const {
  for (int i = 1; i < argc; ++i) {
    const std::string word = argv[i];
    if (word == "--help" || word == "-h") return Outcome::kHelp;
    auto flag = std::find_if(flags_.begin(), flags_.end(),
                             [&](const Flag& f) { return f.name == word; });
    if (flag == flags_.end()) {
      if (word.starts_with("--")) {
        *error = "unknown flag: " + word;
      } else if (positionals->size() >= max_positionals) {
        *error = "unexpected argument: " + word;
      } else {
        positionals->push_back(word);
        continue;
      }
      return Outcome::kError;
    }
    const bool takes_value = !flag->metavar.empty();
    if (takes_value && i + 1 >= argc) {
      *error = "missing value for " + word;
      return Outcome::kError;
    }
    const std::string value = takes_value ? argv[++i] : "";
    if (std::string why = flag->parse(value); !why.empty()) {
      *error = "invalid value for " + word + ": \"" + value + "\" (" + why + ")";
      return Outcome::kError;
    }
  }
  return Outcome::kOk;
}

std::string FlagTable::Usage(std::string_view argv0) const {
  constexpr size_t kColumn = 26;  // where help text starts
  constexpr size_t kWidth = 79;
  std::string out = "usage: " + std::string(argv0) + " " + synopsis_ + "\n" +
                    notes_ + "options:\n";
  auto entry = [&](const std::string& left, const std::string& help) {
    std::string line = "  " + left;
    if (line.size() >= kColumn) {
      out += line + "\n";
      line.clear();
    }
    // Word-wrap the help text into the help column.
    for (size_t start = 0, end = 0; start < help.size(); start = end + 1) {
      end = help.size();
      if (kColumn + end - start > kWidth) {
        end = help.rfind(' ', start + kWidth - kColumn);
        if (end == std::string::npos || end <= start) end = help.find(' ', start);
        end = std::min(end, help.size());
      }
      line.resize(kColumn, ' ');
      out += line + help.substr(start, end - start) + "\n";
      line.clear();
    }
  };
  for (const Flag& flag : flags_) {
    entry(flag.metavar.empty() ? flag.name : flag.name + " " + flag.metavar,
          flag.shown_default.empty()
              ? flag.help
              : flag.help + " (default " + flag.shown_default + ")");
  }
  entry("-h, --help", "print this text and exit");
  return out;
}

std::vector<std::string> FlagTable::ParseOrExit(int argc, char** argv,
                                                size_t max_positionals) const {
  std::vector<std::string> positionals;
  std::string error;
  const Outcome outcome =
      Parse(argc, argv, max_positionals, &positionals, &error);
  if (outcome == Outcome::kOk) return positionals;
  if (outcome == Outcome::kHelp) {
    std::fputs(Usage(argv[0]).c_str(), stdout);
    std::exit(0);
  }
  std::fprintf(stderr, "%s\n\n%s", error.c_str(), Usage(argv[0]).c_str());
  std::exit(2);
}

}  // namespace htd::util
