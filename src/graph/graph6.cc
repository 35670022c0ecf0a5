#include "graph/graph6.h"

#include <sstream>

namespace x2vec::graph {

std::string ToGraph6(const Graph& g) {
  X2VEC_CHECK(!g.directed()) << "graph6 encodes undirected graphs";
  const int n = g.NumVertices();
  X2VEC_CHECK_LT(n, 63) << "only short-form graph6 (n < 63) is supported";
  std::string out;
  out.push_back(static_cast<char>(n + 63));
  // Upper triangle column by column: bit (i, j) for i < j, ordered by
  // j ascending then i ascending, packed 6 bits per character.
  int bits_in_current = 0;
  int current = 0;
  for (int j = 1; j < n; ++j) {
    for (int i = 0; i < j; ++i) {
      current = (current << 1) | (g.HasEdge(i, j) ? 1 : 0);
      if (++bits_in_current == 6) {
        out.push_back(static_cast<char>(current + 63));
        bits_in_current = 0;
        current = 0;
      }
    }
  }
  if (bits_in_current > 0) {
    current <<= (6 - bits_in_current);
    out.push_back(static_cast<char>(current + 63));
  }
  return out;
}

StatusOr<Graph> FromGraph6(const std::string& encoded) {
  if (encoded.empty()) {
    return Status::InvalidArgument("empty graph6 string");
  }
  const int n = encoded[0] - 63;
  if (n < 0 || n >= 63) {
    return Status::InvalidArgument(
        "unsupported graph6 size byte (value " +
        std::to_string(static_cast<int>(encoded[0])) +
        " at offset 0; short form needs 63..125)");
  }
  const int pair_bits = n * (n - 1) / 2;
  const int expected_chars = (pair_bits + 5) / 6;
  if (static_cast<int>(encoded.size()) != 1 + expected_chars) {
    return Status::InvalidArgument(
        "graph6 length mismatch for n=" + std::to_string(n) + ": expected " +
        std::to_string(1 + expected_chars) + " characters, got " +
        std::to_string(encoded.size()));
  }
  Graph g(n);
  int bit_index = 0;
  for (int j = 1; j < n; ++j) {
    for (int i = 0; i < j; ++i, ++bit_index) {
      const int offset = 1 + bit_index / 6;
      const int chunk = encoded[offset] - 63;
      if (chunk < 0 || chunk >= 64) {
        return Status::InvalidArgument(
            "invalid graph6 character at offset " + std::to_string(offset) +
            " (byte value " +
            std::to_string(static_cast<int>(encoded[offset])) + ")");
      }
      const int bit = (chunk >> (5 - bit_index % 6)) & 1;
      if (bit) g.AddEdge(i, j);
    }
  }
  // The low bits of the last character past the final pair are padding and
  // must be zero; otherwise two strings decode to one graph and decoding
  // no longer round-trips through ToGraph6.
  const int padding_bits = 6 * expected_chars - pair_bits;
  if (padding_bits > 0 &&
      ((encoded[expected_chars] - 63) & ((1 << padding_bits) - 1)) != 0) {
    return Status::InvalidArgument(
        "nonzero graph6 padding bits at offset " +
        std::to_string(expected_chars) + " (byte value " +
        std::to_string(static_cast<int>(encoded[expected_chars])) + ")");
  }
  return g;
}

StatusOr<std::vector<Graph>> FromGraph6List(const std::string& text) {
  std::vector<Graph> graphs;
  std::istringstream stream(text);
  std::string token;
  while (stream >> token) {
    StatusOr<Graph> g = FromGraph6(token);
    if (!g.ok()) return g.status();
    graphs.push_back(std::move(*g));
  }
  return graphs;
}

}  // namespace x2vec::graph
