#pragma once

namespace demo {

struct Loose {};

}  // namespace demo
