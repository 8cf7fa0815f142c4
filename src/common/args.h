// Minimal command-line argument parser for the tools/ binaries.
//
// Supports `--flag value`, `--flag=value`, and boolean `--flag` forms,
// plus positional arguments.  Unknown flags are an error (typos should
// not be silently ignored on a measurement tool).  Every malformed
// command line throws UsageError, so a tool can answer it with its usage
// text and exit status 2 instead of treating it as a failed run.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"

namespace soc {

/// A malformed command line: an unknown flag, a missing value, or a value
/// that is not the number the flag expects.
class UsageError : public Error {
 public:
  using Error::Error;
};

class ArgParser {
 public:
  /// Declares a value flag (e.g. "--nodes").  `help` appears in usage().
  void add_flag(const std::string& name, const std::string& help,
                const std::string& default_value = "");
  /// Declares a boolean flag (present/absent).
  void add_bool(const std::string& name, const std::string& help);

  /// Parses argv[start..); throws UsageError on unknown or malformed
  /// flags.
  void parse(int argc, const char* const* argv, int start = 1);

  /// Value of a declared flag (default if not given on the command line).
  const std::string& get(const std::string& name) const;
  /// Numeric value of a declared flag; throws UsageError unless the whole
  /// value is a number.
  int get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  /// True when the user explicitly supplied the flag.
  bool given(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Formatted flag documentation.
  std::string usage() const;

 private:
  struct Flag {
    std::string help;
    std::string value;
    std::string default_value;  ///< What usage() shows, whatever was parsed.
    bool is_bool = false;
    bool given = false;
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

/// Splits "2,4,8,16" into integers; throws UsageError on malformed
/// entries.
std::vector<int> parse_int_list(const std::string& csv);

/// Splits "0.6,0.8,1.0" into doubles; throws UsageError on malformed
/// entries.
std::vector<double> parse_double_list(const std::string& csv);

/// A host thread count ("0" = all cores) read from `source` (a flag or
/// an environment variable): decimal digits only, so "-1", "abc" and ""
/// throw UsageError instead of turning into some other count.
unsigned parse_thread_count(const std::string& text,
                            const std::string& source);

/// Splits "hpl,jacobi" into strings; throws on empty entries.
std::vector<std::string> parse_string_list(const std::string& csv);

}  // namespace soc
