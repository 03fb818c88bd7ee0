// Minimal command-line flag parsing for bench and example binaries.
// Flags use --name=value; a bare --name is the boolean "true". The
// space-separated form (--name value) is deliberately NOT supported: the
// parser has no flag registry, so it cannot tell a boolean flag followed
// by a positional from a value flag, and guessing used to swallow the
// positional (and turned "--n -5" into n="-5" or n=true depending on the
// sign). Unknown flags are an error so typos don't silently run the wrong
// experiment.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace scc {

class CliFlags {
 public:
  /// Parses argv. Throws std::runtime_error on malformed input, including
  /// a bare "--" (there is no end-of-flags separator). Arguments not
  /// starting with "--" are collected as positionals.
  static CliFlags parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  /// Strict positive-integer flag shared by thread-count flags (--jobs,
  /// --workers): absent -> `fallback`; present -> must be an integer >= 1.
  /// Rejects 0, negatives and garbage with "--name must be a positive
  /// integer, got V" / get_int's "expects an integer" error.
  [[nodiscard]] int get_positive_int(const std::string& name,
                                     int fallback) const;

  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  /// Names that were parsed but never queried -- call at the end of main to
  /// reject typos.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

 private:
  mutable std::map<std::string, std::pair<std::string, bool>> values_;
  std::vector<std::string> positionals_;
};

}  // namespace scc
