// Textual (de)serialization of embeddings f: guest -> host.
//
// Format (line-oriented, whitespace-separated, mirroring pebble/io):
//   upn-embedding 1 <n> <m> <declared_load>
//   <host id of guest 0>
//   <host id of guest 1>
//   ...
// The header declares the load bound the producer claims (max guests per
// host).  upn_analyze statically re-derives the actual load and rejects
// files whose contents exceed their declaration, so a stored embedding can
// be trusted without re-running the embedder.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/topology/graph.hpp"

namespace upn {

/// Hostile-input cap on n and m (same rationale as kMaxProtocolDimension).
inline constexpr std::uint32_t kMaxEmbeddingDimension = 1u << 26;

/// An embedding as stored on disk: the map plus its declared bounds.
struct StoredEmbedding {
  std::vector<NodeId> map;          ///< guest u -> host map[u]
  std::uint32_t num_hosts = 0;      ///< m
  std::uint32_t declared_load = 0;  ///< producer's claimed max_q |f^{-1}(q)|
};

/// Writes the embedding with its actual load as the declared bound.
void write_embedding(std::ostream& os, const std::vector<NodeId>& embedding,
                     std::uint32_t num_hosts);

/// Parses an embedding; throws std::runtime_error with a line number on
/// malformed input (bad header, non-numeric fields, host ids >= m, missing
/// or surplus rows).  Does NOT check the declared load -- that is the
/// linter's job, so a forged declaration is representable and detectable.
[[nodiscard]] StoredEmbedding read_embedding(std::istream& is);

}  // namespace upn
