// Minimal command-line flag parsing for examples and benchmark harnesses.
//
// Supports --name=value and --name value forms plus bare boolean switches
// (--verbose). Unknown positional arguments are collected in order.

#ifndef GSGROW_UTIL_FLAGS_H_
#define GSGROW_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace gsgrow {

/// Parsed command line. Typed getters fall back to the provided default when
/// the flag is absent or unparsable; an unparsable value is also recorded,
/// and CheckParsed reports it. A CLI reads its flags, then calls
/// CheckParsed and exits 2 on an error, so `--min_sup=abc` never silently
/// runs with the default.
class Flags {
 public:
  /// Parses argv (argv[0] is skipped).
  static Flags Parse(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// InvalidArgument naming the first flag a typed getter could not parse
  /// (in call order); OK when every value read so far parsed.
  Status CheckParsed() const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  // Records the first unparsable value a typed getter saw.
  void NoteUnparsable(const std::string& name, const char* expected) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  // The getters are const reads of the command line; what they could not
  // parse is bookkeeping about those reads, not part of the parsed state.
  mutable Status unparsable_;
};

/// Reads a double from environment variable `name`, or `default_value` if it
/// is unset or unparsable. Used by benchmarks for GSGROW_BENCH_SCALE.
double EnvDouble(const char* name, double default_value);

}  // namespace gsgrow

#endif  // GSGROW_UTIL_FLAGS_H_
