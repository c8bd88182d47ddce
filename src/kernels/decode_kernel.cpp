#include "kernels/decode_kernel.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "img/codec.h"
#include "kernels/common.h"
#include "kernels/messages.h"
#include "spu/spu.h"
#include "support/aligned.h"
#include "support/error.h"

namespace cellport::kernels {

namespace {

using namespace cellport::sim;
using namespace cellport::spu;

constexpr int kB = img::kSicBlock;
constexpr std::uint32_t kMaxElement = Mfc::kMaxTransfer;

/// The IDCT's constants, register-resident for the whole call. The
/// column pass runs one lane per column (splatted basis entries); the row
/// pass runs one lane per output n (basis rows), splatting each input.
struct Consts {
  alignas(16) float qf[64] = {};  // the quant table as float, natural order
  vec_float4 col[kB][4];  // splat(c[k][n]), n < 4
  vec_float4 row[kB];     // (c[k][0], c[k][1], c[k][2], c[k][3])
  vec_uchar16 splat[4];   // shufb: word lane j to every lane
  vec_uchar16 reverse;    // shufb: word lanes 3, 2, 1, 0
  vec_float4 bias;        // 128
  vec_float4 zero;
  vec_float4 top;         // 255
  vec_float4 half;        // 0.5
  vec_int4 one;
  vec_int4 none;
  float c00 = 0;
};

Consts make_consts(const std::int32_t* quant) {
  Consts k;
  const std::array<float, 64>& c = img::sic_dct_basis();
  for (int r = 0; r < kB; ++r) {
    for (int n = 0; n < 4; ++n) k.col[r][n] = vec_float4::splat(c[r * kB + n]);
    for (int n = 0; n < 4; ++n) k.row[r].v[n] = c[r * kB + n];
  }
  for (int j = 0; j < 4; ++j) {
    for (int b = 0; b < 16; ++b) {
      k.splat[j].v[b] = static_cast<std::uint8_t>(4 * j + b % 4);
      k.reverse.v[b] = static_cast<std::uint8_t>(4 * (3 - b / 4) + b % 4);
    }
  }
  k.bias = vec_float4::splat(128.0f);
  k.zero = vec_float4::splat(0.0f);
  k.top = vec_float4::splat(255.0f);
  k.half = vec_float4::splat(0.5f);
  k.one = vec_int4::splat(1);
  k.none = vec_int4::splat(0);
  k.c00 = c[0];
  // Constants live in the program image: one quadword load each.
  charge_odd(kB * 4 + kB + 5 + 6);
  for (int q = 0; q < 64; q += 4) {
    vec_int4 qi = vld<vec_int4>(quant + q);
    vec_float4 qf = spu_convtf(qi);
    vst(k.qf + q, qf);
  }
  return k;
}

/// Rounds one row half to pixel bytes the way the PPE store does:
/// clamp(lround(v + 128), 0, 255). The clamp runs first, in float (it
/// commutes with rounding on [0, 255] and keeps the conversion in
/// range); lround's half-away-from-zero is truncate-then-compare-the-
/// fraction (adding 0.5 first would round 0.49999997f up).
vec_int4 to_pixels(const vec_float4& x, const Consts& k) {
  vec_float4 v = spu_add(x, k.bias);
  v = spu_sel(v, k.zero, spu_cmpgt(k.zero, v));
  v = spu_sel(v, k.top, spu_cmpgt(v, k.top));
  const vec_int4 t = spu_convts(v);
  const vec_float4 frac = spu_sub(v, spu_convtf(t));
  const vec_int4 up = spu_sel(k.one, k.none, spu_cmpgt(k.half, frac));
  return spu_add(t, up);
}

/// Inverse DCT of one dequantized block (natural order, 16-byte aligned)
/// into eight rows of pixel words, `out[y][0]` holding columns 0..3 and
/// `out[y][1]` columns 4..7. Same association as the PPE idct8: the even
/// sum c0 + c2 + c4 + c6 and the odd sum c1 + c3 + c5 + c7, left to
/// right, then e + o and e - o. All-zero columns are not skipped: they
/// only change the sign of zeros, which the +128 erases.
void idct_block(const float* coef, const Consts& k, vec_int4 out[kB][2]) {
  vec_float4 tmp[kB][2];
  for (int h = 0; h < 2; ++h) {
    vec_float4 r[kB];
    for (int y = 0; y < kB; ++y) r[y] = vld<vec_float4>(coef + y * kB + 4 * h);
    for (int n = 0; n < 4; ++n) {
      vec_float4 e = spu_mul(r[0], k.col[0][n]);
      e = spu_madd(r[2], k.col[2][n], e);
      e = spu_madd(r[4], k.col[4][n], e);
      e = spu_madd(r[6], k.col[6][n], e);
      vec_float4 o = spu_mul(r[1], k.col[1][n]);
      o = spu_madd(r[3], k.col[3][n], o);
      o = spu_madd(r[5], k.col[5][n], o);
      o = spu_madd(r[7], k.col[7][n], o);
      tmp[n][h] = spu_add(e, o);
      tmp[7 - n][h] = spu_sub(e, o);
    }
  }
  for (int y = 0; y < kB; ++y) {
    auto in = [&](int i) {
      const vec_float4& q = tmp[y][i / 4];
      return spu_shuffle(q, q, k.splat[i % 4]);
    };
    vec_float4 e = spu_mul(in(0), k.row[0]);
    e = spu_madd(in(2), k.row[2], e);
    e = spu_madd(in(4), k.row[4], e);
    e = spu_madd(in(6), k.row[6], e);
    vec_float4 o = spu_mul(in(1), k.row[1]);
    o = spu_madd(in(3), k.row[3], o);
    o = spu_madd(in(5), k.row[5], o);
    o = spu_madd(in(7), k.row[7], o);
    const vec_float4 lo = spu_add(e, o);
    const vec_float4 d = spu_sub(e, o);
    out[y][0] = to_pixels(lo, k);
    out[y][1] = to_pixels(spu_shuffle(d, d, k.reverse), k);
  }
}

/// Scalar SPU work the token parse and the stores cost, summed per block
/// row and charged once (the loops are branchy scalar code: load +
/// rotate per byte, no branch predictor).
struct ScalarCost {
  double even = 0;
  double odd = 0;
  double misses = 0;
  void charge() const {
    charge_even(even);
    charge_odd(odd);
    charge_branch_miss(misses);
  }
};

/// One varint of the LS token window (the PPE scan validated the stream;
/// the bounds checks only keep a corrupt index from reading past it).
std::uint32_t varint(const std::uint8_t*& p, const std::uint8_t* end,
                     ScalarCost& cost) {
  std::uint32_t v = 0;
  int shift = 0;
  for (;;) {
    if (p >= end) throw cellport::ConfigError("decode: token window overrun");
    const std::uint8_t b = *p++;
    cost.odd += 3;   // load + rotate, loop branch
    cost.even += 3;  // mask, shift, or
    v |= static_cast<std::uint32_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 28) throw cellport::ConfigError("decode: overlong varint");
  }
}

int zz_dec(std::uint32_t v) {
  return static_cast<int>(v >> 1) ^ -static_cast<int>(v & 1);
}

/// Decodes channel `ch` of one block row from its token window [p, end)
/// into `tile` (the row's `rows` pixel rows, `stride` apart).
void decode_channel(const std::uint8_t* p, const std::uint8_t* end, int dc,
                    int ch, int bw, int w, int rows, std::uint8_t* tile,
                    int stride, const Consts& k, float* coef,
                    ScalarCost& cost) {
  const std::array<std::uint8_t, 64>& zig = img::sic_zigzag();
  for (int bx = 0; bx < bw; ++bx) {
    dc = static_cast<int>(static_cast<std::uint32_t>(dc) +
                          static_cast<std::uint32_t>(zz_dec(varint(p, end, cost))));
    std::memset(coef, 0, 64 * sizeof(float));
    cost.odd += 16;  // zero the block: 16 quadword stores
    coef[0] = static_cast<float>(dc) * k.qf[0];
    cost.even += 2;
    int i = 1;
    int nz_ac = 0;
    for (;;) {
      const std::uint32_t tok = varint(p, end, cost);
      cost.odd += 1;  // end-of-block test
      if (tok == 0) break;
      if (tok - 1 >= static_cast<std::uint32_t>(64 - i)) {
        throw cellport::ConfigError("decode: run overflow");
      }
      i += static_cast<int>(tok) - 1;
      const int idx = zig[static_cast<std::size_t>(i++)];
      coef[idx] = static_cast<float>(zz_dec(varint(p, end, cost))) * k.qf[idx];
      // zigzag lookup (load + rotate), convert + multiply, scalar store
      cost.odd += 4;
      cost.even += 3;
      ++nz_ac;
    }
    cost.misses += 1;  // the end-of-block exit defeats the branch hint

    vec_int4 px[kB][2];
    if (nz_ac == 0) {
      // DC-only block: one constant, (dc * q * c00) * c00 as on the PPE.
      const float v = coef[0] * k.c00 * k.c00;
      cost.even += 2;
      const vec_int4 c = to_pixels(spu_splats<vec_float4>(v), k);
      for (auto& row : px) row[0] = row[1] = c;
    } else {
      idct_block(coef, k, px);
    }
    // Interleave into the tile: pack the 8 words to bytes, then merge
    // them into the row's 24-byte RGB run (two quadword loads, two
    // shuffles + selects, two stores).
    const int x0 = bx * kB;
    const int cols = std::min(kB, w - x0);
    for (int y = 0; y < rows; ++y) {
      std::uint8_t* dst = tile + static_cast<std::size_t>(y) * stride +
                          static_cast<std::size_t>(x0) * 3 + ch;
      for (int x = 0; x < cols; ++x) {
        dst[3 * x] = static_cast<std::uint8_t>(px[y][x / 4].v[x % 4]);
      }
    }
    cost.odd += 7.0 * rows;
    cost.even += 2.0 * rows;
  }
  if (p != end) {
    throw cellport::ConfigError("decode: block row ends inside its window");
  }
}

/// The token windows of one block row: per channel, the enclosing
/// 16-byte-aligned range of its segment, split into <= 16 KiB list
/// elements (they land back to back in the LS). With `list` null only
/// sizes them.
struct RowWindows {
  std::uint32_t skip[3] = {};   // LS offset of the segment's first byte
  std::uint32_t bytes = 0;      // LS footprint of all three windows
  int elements = 0;
};

RowWindows row_windows(const DecodeMsg& m, MfcListElement* list) {
  RowWindows rw;
  for (int c = 0; c < 3; ++c) {
    if (m.end[c] < m.begin[c]) {
      throw cellport::ConfigError("decode: malformed token segment");
    }
    const std::uint64_t ea = m.tokens_ea + m.begin[c];
    const std::uint64_t base = ea & ~std::uint64_t{15};
    const auto span = static_cast<std::uint32_t>(
        cellport::round_up(ea - base + (m.end[c] - m.begin[c]), 16));
    rw.skip[c] = rw.bytes + static_cast<std::uint32_t>(ea - base);
    for (std::uint32_t off = 0; off < span; off += kMaxElement) {
      if (list != nullptr) {
        list[rw.elements].ea = base + off;
        list[rw.elements].size = std::min(kMaxElement, span - off);
      }
      ++rw.elements;
    }
    rw.bytes += span;
  }
  return rw;
}

int decode_run(std::uint64_t ea) {
  auto* msg = static_cast<DecodeMsg*>(spu_ls_alloc(sizeof(DecodeMsg)));
  fetch_msg(msg, ea);
  const int w = msg->width;
  const int h = msg->height;
  const int by = msg->row;
  const auto stride = static_cast<std::uint32_t>(msg->dst_stride);
  if (w <= 0 || h <= 0 || by < 0 || by >= (h + kB - 1) / kB ||
      stride % 16 != 0 || stride < static_cast<std::uint32_t>(w) * 3 ||
      stride > kMaxElement) {
    throw cellport::ConfigError("decode: malformed DecodeMsg geometry");
  }
  const int bw = (w + kB - 1) / kB;
  const int rows = std::min(kB, h - by * kB);

  // LS: the quant table, the row's token windows, its eight pixel rows
  // and the two DMA lists.
  auto* quant = spu_ls_alloc_array<std::int32_t>(64);
  auto* coef = spu_ls_alloc_array<float>(64);
  const RowWindows sized = row_windows(*msg, nullptr);
  const std::size_t tile_bytes = static_cast<std::size_t>(kB) * stride;
  if (sized.bytes + tile_bytes +
          static_cast<std::size_t>(sized.elements + kB) *
              sizeof(MfcListElement) + 64 >
      spu_ls_free()) {
    throw cellport::ConfigError("decode: a block row exceeds the local store");
  }
  auto* tok = static_cast<std::uint8_t*>(spu_ls_alloc(sized.bytes, 16));
  auto* tile = static_cast<std::uint8_t*>(spu_ls_alloc(tile_bytes, 16));
  auto* in_el = spu_ls_alloc_array<MfcListElement>(
      static_cast<std::size_t>(sized.elements));
  auto* out_el = spu_ls_alloc_array<MfcListElement>(kB);

  // The quant table and the token windows: one wait on tag 0.
  dma_in(quant, msg->quant_ea, 64 * sizeof(std::int32_t), 0);
  const RowWindows win = row_windows(*msg, in_el);
  sop(4.0 * win.elements);
  mfc_getl(tok, std::span(in_el, static_cast<std::size_t>(win.elements)), 0);
  mfc_write_tag_mask(1u << 0);
  mfc_read_tag_status_all();
  const Consts k = make_consts(quant);

  // Row pads stay zero, as in a freshly reshaped RgbImage.
  std::memset(tile, 0, tile_bytes);
  charge_odd(rows);
  ScalarCost cost;
  for (int c = 0; c < 3; ++c) {
    const std::uint8_t* p = tok + win.skip[c];
    decode_channel(p, p + (msg->end[c] - msg->begin[c]), msg->dc[c], c, bw,
                   w, rows, tile, static_cast<int>(stride), k, coef, cost);
  }
  cost.charge();
  for (int y = 0; y < rows; ++y) {
    out_el[y].ea = msg->dst_ea + static_cast<std::uint64_t>(by * kB + y) * stride;
    out_el[y].size = stride;
  }
  sop(2.0 * rows);
  mfc_putl(tile, std::span(out_el, static_cast<std::size_t>(rows)), 0);
  mfc_write_tag_mask(1u << 0);
  mfc_read_tag_status_all();
  return 0;
}

}  // namespace

bool DecodeTasks::prepare(img::SicDecoder& dec) {
  eas_.clear();
  img::RgbImage& dst = dec.image();
  const auto bh = static_cast<std::size_t>(dec.block_rows());
  const std::vector<std::uint32_t>& pos = dec.row_pos();
  if (msgs_.size() < bh) {
    msgs_ = std::vector<port::WrappedMessage<DecodeMsg>>(bh);
  }
  // Whole destination rows must be single list elements, the token
  // windows must start on 16-byte boundaries, and each block row's token
  // windows plus its eight pixel rows must fit the LS budget (the scan
  // bounds a row's tokens; a very wide or very dense image stays on the
  // PPE).
  const auto stride = static_cast<std::size_t>(dst.stride());
  if (stride > Mfc::kMaxTransfer || !cellport::is_aligned(dec.tokens(), 16)) {
    return false;
  }
  if (quant_.empty()) quant_ = cellport::AlignedBuffer<std::int32_t>(64);
  for (std::size_t by = 0; by < bh; ++by) {
    DecodeMsg& m = *msgs_[by];
    std::size_t bytes = kB * stride;
    for (std::size_t c = 0; c < 3; ++c) {
      m.begin[c] = pos[c * bh + by];
      m.end[c] = pos[c * bh + by + 1];
      m.dc[c] = dec.row_dc()[c * bh + by];
      bytes += cellport::round_up(m.end[c] - m.begin[c] + 15, 16);
    }
    if (bytes > kDecodeRowLsBytes) return false;
    m.tokens_ea = reinterpret_cast<std::uint64_t>(dec.tokens());
    m.quant_ea = reinterpret_cast<std::uint64_t>(quant_.data());
    m.dst_ea = reinterpret_cast<std::uint64_t>(dst.data());
    m.width = dst.width();
    m.height = dst.height();
    m.dst_stride = dst.stride();
    m.row = static_cast<std::int32_t>(by);
  }
  std::copy(dec.quant().begin(), dec.quant().end(), quant_.data());
  for (std::size_t by = 0; by < bh; ++by) eas_.push_back(msgs_[by].ea());
  return true;
}

void register_decode(port::KernelModule& module) {
  module.add_function(SPU_Run_Decode, &decode_run);
}

}  // namespace cellport::kernels
