#include "img/huffman.h"

#include <algorithm>
#include <queue>

#include "support/error.h"

namespace cellport::img {

namespace {

constexpr int kMaxCodeLen = 32;

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(const std::vector<std::uint8_t>& in,
                         std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= in.size()) {
      throw cellport::IoError("truncated Huffman stream");
    }
    std::uint8_t b = in[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 56) throw cellport::IoError("overlong varint");
  }
}

/// Computes code lengths from byte frequencies (plain Huffman tree; the
/// canonical code assignment only needs the lengths).
std::vector<int> code_lengths(const std::vector<std::uint64_t>& freq) {
  struct Node {
    std::uint64_t weight;
    int index;  // < 256: leaf symbol; otherwise internal
    int left = -1;
    int right = -1;
  };
  std::vector<Node> nodes;
  auto cmp = [&](int a, int b) {
    if (nodes[static_cast<std::size_t>(a)].weight !=
        nodes[static_cast<std::size_t>(b)].weight) {
      return nodes[static_cast<std::size_t>(a)].weight >
             nodes[static_cast<std::size_t>(b)].weight;
    }
    return a > b;  // deterministic tie-break
  };
  std::priority_queue<int, std::vector<int>, decltype(cmp)> heap(cmp);
  for (int s = 0; s < 256; ++s) {
    if (freq[static_cast<std::size_t>(s)] > 0) {
      nodes.push_back(Node{freq[static_cast<std::size_t>(s)], s});
      heap.push(static_cast<int>(nodes.size()) - 1);
    }
  }
  std::vector<int> lengths(256, 0);
  if (nodes.empty()) return lengths;
  if (nodes.size() == 1) {
    lengths[static_cast<std::size_t>(nodes[0].index)] = 1;
    return lengths;
  }
  while (heap.size() > 1) {
    int a = heap.top();
    heap.pop();
    int b = heap.top();
    heap.pop();
    Node parent{nodes[static_cast<std::size_t>(a)].weight +
                    nodes[static_cast<std::size_t>(b)].weight,
                256, a, b};
    nodes.push_back(parent);
    heap.push(static_cast<int>(nodes.size()) - 1);
  }
  // Depth-first walk assigns lengths.
  struct Frame {
    int node;
    int depth;
  };
  std::vector<Frame> stack = {{heap.top(), 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(f.node)];
    if (n.left < 0) {
      lengths[static_cast<std::size_t>(n.index)] =
          std::max(1, std::min(f.depth, kMaxCodeLen));
    } else {
      stack.push_back({n.left, f.depth + 1});
      stack.push_back({n.right, f.depth + 1});
    }
  }
  return lengths;
}

/// Assigns canonical codes (sorted by (length, symbol)).
void canonical_codes(const std::vector<int>& lengths,
                     std::vector<std::uint32_t>& codes) {
  codes.assign(256, 0);
  std::vector<int> order;
  for (int s = 0; s < 256; ++s) {
    if (lengths[static_cast<std::size_t>(s)] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    int la = lengths[static_cast<std::size_t>(a)];
    int lb = lengths[static_cast<std::size_t>(b)];
    return la != lb ? la < lb : a < b;
  });
  std::uint32_t code = 0;
  int prev_len = 0;
  for (int s : order) {
    int len = lengths[static_cast<std::size_t>(s)];
    code <<= (len - prev_len);
    codes[static_cast<std::size_t>(s)] = code;
    ++code;
    prev_len = len;
  }
}

inline void chg(sim::ScalarContext* ctx, sim::OpClass c,
                std::uint64_t n = 1) {
  if (ctx != nullptr) ctx->charge(c, n);
}

}  // namespace

std::vector<std::uint8_t> huffman_encode(
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  put_varint(out, payload.size());
  if (payload.empty()) return out;

  std::vector<std::uint64_t> freq(256, 0);
  for (std::uint8_t b : payload) ++freq[b];
  std::vector<int> lengths = code_lengths(freq);
  // Oversized codes (possible only for pathological skew with our naive
  // tree) would corrupt the bit writer; rebalancing is overkill here, so
  // fall back to flattening the distribution.
  if (*std::max_element(lengths.begin(), lengths.end()) >= kMaxCodeLen) {
    lengths.assign(256, 8);
  }
  std::vector<std::uint32_t> codes;
  canonical_codes(lengths, codes);

  for (int s = 0; s < 256; ++s) {
    out.push_back(static_cast<std::uint8_t>(lengths[
        static_cast<std::size_t>(s)]));
  }

  // Bit writer, MSB first.
  std::uint64_t bitbuf = 0;
  int bitcount = 0;
  for (std::uint8_t b : payload) {
    int len = lengths[b];
    bitbuf = (bitbuf << len) | codes[b];
    bitcount += len;
    while (bitcount >= 8) {
      out.push_back(
          static_cast<std::uint8_t>(bitbuf >> (bitcount - 8)));
      bitcount -= 8;
    }
  }
  if (bitcount > 0) {
    out.push_back(static_cast<std::uint8_t>(bitbuf << (8 - bitcount)));
  }
  return out;
}

std::vector<std::uint8_t> huffman_decode(
    const std::vector<std::uint8_t>& stream, std::size_t& pos,
    sim::ScalarContext* ctx) {
  std::uint64_t count = get_varint(stream, pos);
  std::vector<std::uint8_t> out;
  if (count == 0) return out;
  if (count > (std::uint64_t{1} << 32)) {
    throw cellport::IoError("implausible Huffman payload size");
  }
  // 16 bytes of slack: the SIC decoder's SPE path zero-pads the payload
  // to a 16-byte multiple in place.
  out.reserve(count + 16);

  if (pos + 256 > stream.size()) {
    throw cellport::IoError("truncated Huffman code table");
  }
  std::vector<int> lengths(256);
  for (int s = 0; s < 256; ++s) {
    lengths[static_cast<std::size_t>(s)] = stream[pos++];
    if (lengths[static_cast<std::size_t>(s)] > kMaxCodeLen) {
      throw cellport::IoError("invalid Huffman code length");
    }
  }
  std::vector<std::uint32_t> codes;
  canonical_codes(lengths, codes);

  // Canonical decode tables: for each length, the first code and the
  // symbols ordered canonically.
  std::vector<std::uint32_t> first_code(kMaxCodeLen + 1, 0);
  std::vector<int> first_index(kMaxCodeLen + 1, 0);
  std::vector<int> symbols;
  {
    std::vector<int> order;
    for (int s = 0; s < 256; ++s) {
      if (lengths[static_cast<std::size_t>(s)] > 0) order.push_back(s);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      int la = lengths[static_cast<std::size_t>(a)];
      int lb = lengths[static_cast<std::size_t>(b)];
      return la != lb ? la < lb : a < b;
    });
    symbols = order;
    int idx = 0;
    for (int len = 1; len <= kMaxCodeLen; ++len) {
      first_index[static_cast<std::size_t>(len)] = idx;
      bool found = false;
      for (; idx < static_cast<int>(symbols.size()); ++idx) {
        if (lengths[static_cast<std::size_t>(
                symbols[static_cast<std::size_t>(idx)])] != len) {
          break;
        }
        if (!found) {
          first_code[static_cast<std::size_t>(len)] = codes
              [static_cast<std::size_t>(symbols[static_cast<std::size_t>(
                  idx)])];
          found = true;
        }
      }
      if (!found) {
        first_code[static_cast<std::size_t>(len)] = 0xFFFFFFFFu;
      }
    }
  }

  // Bit reader.
  std::uint32_t code = 0;
  int len = 0;
  std::uint8_t cur = 0;
  int bits_left = 0;
  while (out.size() < count) {
    if (bits_left == 0) {
      if (pos >= stream.size()) {
        throw cellport::IoError("truncated Huffman bitstream");
      }
      cur = stream[pos++];
      bits_left = 8;
      // Decode cost: a handful of shifts/compares per bit consumed.
      chg(ctx, sim::OpClass::kLoad, 1);
      chg(ctx, sim::OpClass::kIntAlu, 10);
      chg(ctx, sim::OpClass::kBranch, 3);
    }
    code = (code << 1) | ((cur >> (bits_left - 1)) & 1);
    --bits_left;
    ++len;
    if (len > kMaxCodeLen) {
      throw cellport::IoError("corrupt Huffman bitstream");
    }
    std::uint32_t fc = first_code[static_cast<std::size_t>(len)];
    if (fc == 0xFFFFFFFFu || code < fc) continue;
    int offset = static_cast<int>(code - fc);
    int idx = first_index[static_cast<std::size_t>(len)] + offset;
    if (idx >= static_cast<int>(symbols.size()) ||
        lengths[static_cast<std::size_t>(
            symbols[static_cast<std::size_t>(idx)])] != len) {
      continue;  // code belongs to a longer length
    }
    out.push_back(static_cast<std::uint8_t>(
        symbols[static_cast<std::size_t>(idx)]));
    code = 0;
    len = 0;
  }
  return out;
}

}  // namespace cellport::img
