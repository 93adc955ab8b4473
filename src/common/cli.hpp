#pragma once
// Minimal command-line flag parser shared by the bench binaries and
// examples: supports --name=value, --name value, and boolean --name.
//
// Binding is greedy: in `--flag token`, `token` becomes the flag's value
// unless it starts with "--". Place positional arguments before any bare
// boolean flag (or use --flag=1) to avoid the ambiguity.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace evmp::common {

/// Parses argv into flags and positional arguments.
class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  /// True if --name was given (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// Value of --name, or fallback if absent.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;
  [[nodiscard]] long get_long(const std::string& name, long fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Parse a comma-separated list of longs, e.g. --loads=10,20,50.
  [[nodiscard]] std::vector<long> get_long_list(
      const std::string& name, std::vector<long> fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Minimal key lookup in a flat JSON object (bench/budgets.json): finds
/// `"key" : <number>`. A file that cannot be read, a missing key or a value
/// that is not a finite number is reported on stderr and yields nullopt:
/// the caller fails its gate rather than check against a guessed budget.
std::optional<double> read_budget(const std::string& path, const char* key);

}  // namespace evmp::common
