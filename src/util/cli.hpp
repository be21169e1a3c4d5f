// Minimal command-line flag parsing for the example binaries.
//
// Supports `--name value` and `--name=value`; anything else is rejected with
// a helpful message.  Examples stay dependency-free and uniform.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace upn {

class Cli {
 public:
  /// Parses argv.  Throws std::invalid_argument on malformed input.
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name, std::string fallback) const;
  /// Numeric flags take the whole value as an unsigned decimal (finite for
  /// get_double); anything else throws std::invalid_argument naming the flag.
  [[nodiscard]] std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;

  /// Names that were provided but never queried; used to reject typos.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace upn
