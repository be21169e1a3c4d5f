#include "src/util/contracts.hpp"

#include <atomic>

namespace upn {

namespace {

std::atomic<ContractContextProvider>& context_provider_slot() noexcept {
  static std::atomic<ContractContextProvider> provider{nullptr};
  return provider;
}

const char* kind_name(ContractKind kind) noexcept {
  switch (kind) {
    case ContractKind::kRequire:
      return "UPN_REQUIRE";
    case ContractKind::kEnsure:
      return "UPN_ENSURE";
    case ContractKind::kInvariant:
      return "UPN_INVARIANT";
  }
  return "UPN_CONTRACT";
}

}  // namespace

void set_contract_context_provider(ContractContextProvider provider) noexcept {
  context_provider_slot().store(provider, std::memory_order_relaxed);
}

namespace detail {

void contract_failed(ContractKind kind, const char* condition, const char* file, int line,
                     const std::string& message) {
  std::string what = std::string{kind_name(kind)} + " failed: " + condition + " at " + file +
                     ":" + std::to_string(line);
  if (!message.empty()) what += ": " + message;
  if (const ContractContextProvider provider =
          context_provider_slot().load(std::memory_order_relaxed)) {
    what += provider();
  }
  throw ContractViolation{kind, what};
}

}  // namespace detail
}  // namespace upn
