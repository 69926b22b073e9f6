// Command-line flags: strict numeric parsing and one declarative flag table.
//
// std::atoi silently turns garbage into 0 (`--port x` binds an ephemeral
// port) and overflow is undefined behaviour; ParseIntFlag/ParseDoubleFlag
// parse the FULL string, check the range, and report failure instead.
//
// The tools (tools/hdserver.cc, hdclient.cc, hdreshard.cc) declare each flag
// once in a FlagTable: name, value kind, where it is stored, help text. The
// table parses argv, reports `missing value for`, `invalid value for …
// (expected …)` and `unknown flag` errors, answers --help, and renders the
// usage text. A flag's default there is its bound variable's value at
// declaration, so the text cannot drift from the code.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace htd::util {

/// Parses `text` as a base-10 integer in [min_value, max_value]. The whole
/// string must be consumed (leading/trailing whitespace and trailing
/// characters are errors); out-of-range values — including anything that
/// overflows long — fail rather than wrap. Returns false without touching
/// `*out` on failure.
bool ParseIntFlag(std::string_view text, long min_value, long max_value,
                  long* out);

/// Ditto for floating-point flags: full-string, finite, and >= min_value.
bool ParseDoubleFlag(std::string_view text, double min_value, double* out);

class FlagTable {
 public:
  /// Turns a flag's text into state: "" when taken, otherwise why not.
  using ParseFn = std::function<std::string(const std::string& text)>;

  /// Usage reads "usage: <argv0> <synopsis>", `notes` verbatim, then one
  /// entry per flag.
  explicit FlagTable(std::string synopsis, std::string notes = "");

  /// An integer in [min_value, max_value] stored in `*out`; `*out` outside
  /// that range means "not set" and shows no default.
  template <typename T>
  FlagTable& Int(std::string name, T* out, long min_value, long max_value,
                 std::string help) {
    const long now = static_cast<long>(*out);
    return Int(std::move(name), min_value, max_value,
               [out](long value) { *out = static_cast<T>(value); },
               std::move(help),
               now >= min_value && now <= max_value ? std::optional(now)
                                                    : std::nullopt);
  }
  /// An integer handed to `set`, for a flag that writes more than one field.
  FlagTable& Int(std::string name, long min_value, long max_value,
                 std::function<void(long)> set, std::string help,
                 std::optional<long> shown_default);
  /// Seconds >= 0 stored in `*out`; a negative `*out` shows no default.
  FlagTable& Seconds(std::string name, double* out, std::string help);
  /// Free text stored in `*out`; an empty `*out` shows no default.
  FlagTable& Text(std::string name, std::string metavar, std::string* out,
                  std::string help);
  /// A presence switch: stores `value` in `*out`.
  FlagTable& Switch(std::string name, bool* out, std::string help,
                    bool value = true);
  /// A value `parse` turns into state (a host:port, …).
  FlagTable& Parsed(std::string name, std::string metavar, ParseFn parse,
                    std::string help);
  /// A value `T::Parse(text)` turns into `*out`; T::Parse returns a
  /// util::StatusOr<T> (e.g. service::ShardMap).
  template <typename T>
  FlagTable& Parsed(std::string name, std::string metavar, std::optional<T>* out,
                    std::string help) {
    return Parsed(std::move(name), std::move(metavar),
                  [out](const std::string& text) {
                    auto parsed = T::Parse(text);
                    if (!parsed.ok()) return parsed.status().message();
                    *out = *std::move(parsed);
                    return std::string();
                  },
                  std::move(help));
  }

  enum class Outcome { kOk, kHelp, kError };
  /// Parses argv[1, argc). A word that is no declared flag, flag value or
  /// --help/-h and does not start with "--" is appended to `*positionals`;
  /// more than `max_positionals` of them is an error. kError sets `*error`.
  Outcome Parse(int argc, const char* const* argv, size_t max_positionals,
                std::vector<std::string>* positionals,
                std::string* error) const;

  std::string Usage(std::string_view argv0) const;

  /// Parse for main(): --help prints the usage to stdout and exits 0; an
  /// error prints itself and the usage to stderr and exits 2.
  std::vector<std::string> ParseOrExit(int argc, char** argv,
                                       size_t max_positionals = 0) const;

 private:
  struct Flag {
    std::string name;
    std::string metavar;  // empty: a switch, takes no value
    std::string help;
    std::string shown_default;
    ParseFn parse;
  };
  FlagTable& Add(Flag flag);

  std::string synopsis_;
  std::string notes_;
  std::vector<Flag> flags_;
};

}  // namespace htd::util
