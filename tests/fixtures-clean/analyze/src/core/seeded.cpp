#include "src/core/pipeline_demo.hpp"

namespace demo {

int reseed() {
  return half_of(4) + rand();  // upn-analyze-waive(no-std-rand: fixture exercises the waiver marker)
}

}  // namespace demo
