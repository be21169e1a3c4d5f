#include "src/sorting/comparator_network.hpp"

#include <algorithm>
#include <stdexcept>

namespace upn {

ComparatorNetwork::ComparatorNetwork(std::uint32_t wires, std::string name)
    : wires_(wires), name_(std::move(name)), used_in_layer_(wires, 0) {}

void ComparatorNetwork::begin_layer() {
  layers_.emplace_back();
  std::fill(used_in_layer_.begin(), used_in_layer_.end(), 0);
}

void ComparatorNetwork::add(std::uint32_t a, std::uint32_t b) {
  if (layers_.empty()) begin_layer();
  if (a >= wires_ || b >= wires_ || a == b) {
    throw std::invalid_argument{"ComparatorNetwork::add: bad wire pair"};
  }
  if (used_in_layer_[a] || used_in_layer_[b]) {
    throw std::invalid_argument{"ComparatorNetwork::add: wire reused within a layer"};
  }
  used_in_layer_[a] = used_in_layer_[b] = 1;
  layers_.back().push_back(Comparator{a, b});
}

std::uint64_t ComparatorNetwork::size() const {
  std::uint64_t total = 0;
  for (const auto& layer : layers_) total += layer.size();
  return total;
}

void ComparatorNetwork::apply(std::span<std::uint64_t> values) const {
  if (values.size() != wires_) {
    throw std::invalid_argument{"ComparatorNetwork::apply: size mismatch"};
  }
  for (const auto& layer : layers_) {
    for (const Comparator& c : layer) {
      if (values[c.low] > values[c.high]) std::swap(values[c.low], values[c.high]);
    }
  }
}

void ComparatorNetwork::apply_with_payload(std::span<std::uint64_t> keys,
                                           std::span<std::uint64_t> payloads) const {
  if (keys.size() != wires_ || payloads.size() != wires_) {
    throw std::invalid_argument{"ComparatorNetwork::apply_with_payload: size mismatch"};
  }
  for (const auto& layer : layers_) {
    for (const Comparator& c : layer) {
      if (keys[c.low] > keys[c.high]) {
        std::swap(keys[c.low], keys[c.high]);
        std::swap(payloads[c.low], payloads[c.high]);
      }
    }
  }
}

}  // namespace upn
