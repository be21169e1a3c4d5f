#include "src/util/cli.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <system_error>
#include <type_traits>

namespace upn {

Cli::Cli(int argc, const char* const* argv) {
  if (argc < 1) throw std::invalid_argument{"Cli: empty argv"};
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      throw std::invalid_argument{"Cli: expected --name[=value], got '" + token + "'"};
    }
    token.erase(0, 2);
    if (const auto eq = token.find('='); eq != std::string::npos) {
      values_[token.substr(0, eq)] = token.substr(eq + 1);
    } else if (i + 1 < argc && std::string{argv[i + 1]}.rfind("--", 0) != 0) {
      values_[token] = argv[++i];
    } else {
      values_[token] = "true";  // bare flag
    }
  }
}

bool Cli::has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) != 0;
}

std::string Cli::get(const std::string& name, std::string fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? std::move(fallback) : it->second;
}

namespace {

/// Parses the whole of `text` as an unsigned decimal of type T (finite for
/// floating point): no sign, no hex, nothing left over.
template <typename T>
T parse_whole(const std::string& name, const std::string& text, const char* expected) {
  T value{};
  const char* const end = text.data() + text.size();
  const bool unsigned_decimal = !text.empty() && text.front() != '-';
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  bool ok = unsigned_decimal && error == std::errc{} && stop == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw std::invalid_argument{"Cli: --" + name + " expects " + expected + ", got '" +
                                text + "'"};
  }
  return value;
}

}  // namespace

std::uint64_t Cli::get_u64(const std::string& name, std::uint64_t fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_whole<std::uint64_t>(name, it->second, "an unsigned integer");
}

double Cli::get_double(const std::string& name, double fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_whole<double>(name, it->second, "a finite non-negative number");
}

std::vector<std::string> Cli::unused() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : values_) {
    if (!queried_.count(name)) names.push_back(name);
  }
  return names;
}

}  // namespace upn
