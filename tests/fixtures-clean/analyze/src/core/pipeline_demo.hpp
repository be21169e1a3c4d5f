#pragma once

#include "src/util/checked_math.hpp"

namespace demo {

inline int half_of(int value) {
  UPN_REQUIRE(value >= 0);
  return demo::checked_halve(value);
}

inline int identity(int value) {
  int result = value;
  return result;
}

}  // namespace demo
