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
// Failure handling is a process-wide runtime mode (ContractMode):
//   kThrow (default)  throw upn::ContractViolation (derives std::logic_error)
//   kAbort            print the diagnostic to stderr and std::abort()
//   kLog              print to stderr, bump a counter, and continue
// The mode can be forced at startup with the environment variable
// UPN_CONTRACT_MODE=throw|abort|log.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace upn {

enum class ContractKind : std::uint8_t { kRequire, kEnsure, kInvariant };

enum class ContractMode : std::uint8_t { kThrow, kAbort, kLog };

/// Thrown (in ContractMode::kThrow) when a contract fails.
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(ContractKind kind, std::string what)
      : std::logic_error(std::move(what)), kind_(kind) {}

  [[nodiscard]] ContractKind kind() const noexcept { return kind_; }

 private:
  ContractKind kind_;
};

/// Current process-wide failure mode (initialized from UPN_CONTRACT_MODE).
[[nodiscard]] ContractMode contract_mode() noexcept;
void set_contract_mode(ContractMode mode) noexcept;

/// Violations observed in ContractMode::kLog since process start (or the
/// last reset).  Lets tests and long-running sweeps assert "no contract
/// fired" without dying mid-run.
[[nodiscard]] std::uint64_t contract_violation_count() noexcept;
void reset_contract_violation_count() noexcept;

/// Optional context provider, appended to every contract diagnostic.  The
/// obs layer installs one that names the current span and step (" [in
/// sim.universal.route, step 12]") so a violation locates itself without
/// util depending on obs.  Returns "" for no context; pass nullptr to clear.
using ContractContextProvider = std::string (*)();
void set_contract_context_provider(ContractContextProvider provider) noexcept;

/// RAII mode switch for tests: restores the previous mode on scope exit.
class ScopedContractMode {
 public:
  explicit ScopedContractMode(ContractMode mode) noexcept
      : previous_(contract_mode()) {
    set_contract_mode(mode);
  }
  ~ScopedContractMode() { set_contract_mode(previous_); }
  ScopedContractMode(const ScopedContractMode&) = delete;
  ScopedContractMode& operator=(const ScopedContractMode&) = delete;

 private:
  ContractMode previous_;
};

namespace detail {

/// Dispatches a failed contract according to contract_mode().  Returns only
/// in ContractMode::kLog.
void contract_failed(ContractKind kind, const char* condition, const char* file, int line,
                     const std::string& message);

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
