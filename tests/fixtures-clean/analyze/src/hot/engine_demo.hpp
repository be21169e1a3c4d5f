#pragma once

namespace demo {

struct Queue {
  std::vector<int> pending;
};

inline void consume(std::vector<int> batch) {
  std::vector<int> sink = std::move(batch);
}

}  // namespace demo
