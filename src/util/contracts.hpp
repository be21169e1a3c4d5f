// Project-wide contract macros: checked preconditions, postconditions, and
// invariants for the lower-bound machinery and the simulation pipeline.
//
// The machine-checkable artifacts this repository produces (pebble protocols,
// path schedules, embeddings) are only as trustworthy as the code that emits
// them, so the paper's side conditions -- degree bounds, congestion and
// dilation limits, pebble-game legality, balanced-embedding loads -- are
// encoded as executable contracts at the module boundaries:
//
//   UPN_REQUIRE(cond, msg)    precondition: the caller broke the API contract
//   UPN_ENSURE(cond, msg)     postcondition: this function computed nonsense
//   UPN_INVARIANT(cond, msg)  internal consistency mid-computation
//
// The message argument is optional and is only evaluated when the condition
// fails, so contracts on hot paths cost one predictable branch.
//
// A failed contract always throws upn::ContractViolation (derives
// std::logic_error); no contract ever lets a run continue.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace upn {

enum class ContractKind : std::uint8_t { kRequire, kEnsure, kInvariant };

/// Thrown when a contract fails.
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(ContractKind kind, std::string what)
      : std::logic_error(std::move(what)), kind_(kind) {}

  [[nodiscard]] ContractKind kind() const noexcept { return kind_; }

 private:
  ContractKind kind_;
};

/// Optional context provider, appended to every contract diagnostic.  The
/// obs layer installs one that names the current span and step (" [in
/// sim.universal.route, step 12]") so a violation locates itself without
/// util depending on obs.  Returns "" for no context; pass nullptr to clear.
using ContractContextProvider = std::string (*)();
void set_contract_context_provider(ContractContextProvider provider) noexcept;

namespace detail {

/// Throws the ContractViolation for a failed contract.
[[noreturn]] void contract_failed(ContractKind kind, const char* condition, const char* file,
                                  int line, const std::string& message);

}  // namespace detail
}  // namespace upn

#define UPN_CONTRACT_IMPL_(kind, cond, ...)                                         \
  do {                                                                              \
    if (!(cond)) [[unlikely]] {                                                     \
      ::upn::detail::contract_failed((kind), #cond, __FILE__, __LINE__,             \
                                     ::std::string{__VA_ARGS__});                   \
    }                                                                               \
  } while (false)

#define UPN_REQUIRE(cond, ...) \
  UPN_CONTRACT_IMPL_(::upn::ContractKind::kRequire, cond, __VA_ARGS__)
#define UPN_ENSURE(cond, ...) \
  UPN_CONTRACT_IMPL_(::upn::ContractKind::kEnsure, cond, __VA_ARGS__)
#define UPN_INVARIANT(cond, ...) \
  UPN_CONTRACT_IMPL_(::upn::ContractKind::kInvariant, cond, __VA_ARGS__)
