#include "img/codec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "img/huffman.h"
#include "img/ppm.h"
#include "support/error.h"

namespace cellport::img {

namespace {

constexpr int kBlock = 8;

// Zigzag scan order for an 8x8 block.
constexpr std::array<std::uint8_t, 64> kZigzag = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

// Base luminance quantization table (JPEG Annex K), scaled by quality.
constexpr std::array<int, 64> kBaseQuant = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

std::array<int, 64> quant_table(int quality) {
  quality = std::clamp(quality, 1, 100);
  int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  std::array<int, 64> q{};
  for (int i = 0; i < 64; ++i) {
    q[i] = std::clamp((kBaseQuant[i] * scale + 50) / 100, 1, 255);
  }
  return q;
}

// Separable 8-point DCT-II basis, precomputed.
struct DctBasis {
  float c[kBlock][kBlock];
  DctBasis() {
    for (int k = 0; k < kBlock; ++k) {
      float a = k == 0 ? std::sqrt(1.0f / kBlock) : std::sqrt(2.0f / kBlock);
      for (int n = 0; n < kBlock; ++n) {
        c[k][n] = a * std::cos((2 * n + 1) * k * 3.14159265358979f /
                               (2 * kBlock));
      }
    }
  }
};

const DctBasis& basis() {
  static const DctBasis b;
  return b;
}

void fdct8x8(const float in[kBlock][kBlock], float out[kBlock][kBlock]) {
  const auto& b = basis();
  float tmp[kBlock][kBlock];
  for (int y = 0; y < kBlock; ++y) {
    for (int k = 0; k < kBlock; ++k) {
      float acc = 0;
      for (int n = 0; n < kBlock; ++n) acc += in[y][n] * b.c[k][n];
      tmp[y][k] = acc;
    }
  }
  for (int x = 0; x < kBlock; ++x) {
    for (int k = 0; k < kBlock; ++k) {
      float acc = 0;
      for (int n = 0; n < kBlock; ++n) acc += tmp[n][x] * b.c[k][n];
      out[k][x] = acc;
    }
  }
}

// Fast separable 8-point inverse DCT (even/odd decomposition: the basis
// is symmetric for even and antisymmetric for odd coefficients, halving
// the multiply count — the structure real JPEG decoders use).
void idct8(const float in[kBlock], float out[kBlock]) {
  const auto& b = basis();
  float e[4];
  float o[4];
  for (int n = 0; n < 4; ++n) {
    e[n] = in[0] * b.c[0][n] + in[2] * b.c[2][n] + in[4] * b.c[4][n] +
           in[6] * b.c[6][n];
    o[n] = in[1] * b.c[1][n] + in[3] * b.c[3][n] + in[5] * b.c[5][n] +
           in[7] * b.c[7][n];
  }
  for (int n = 0; n < 4; ++n) {
    out[n] = e[n] + o[n];
    out[7 - n] = e[n] - o[n];
  }
}

/// Returns the number of 1-D passes actually computed (the caller charges
/// 32 mul + 32 add per pass). Columns whose coefficients are all zero are
/// skipped — quantized blocks are sparse, and real decoders exploit it.
int idct8x8(const float in[kBlock][kBlock], float out[kBlock][kBlock]) {
  float tmp[kBlock][kBlock];
  int passes = 0;
  for (int x = 0; x < kBlock; ++x) {
    bool any = false;
    for (int k = 0; k < kBlock; ++k) any = any || in[k][x] != 0.0f;
    if (!any) {
      for (int n = 0; n < kBlock; ++n) tmp[n][x] = 0.0f;
      continue;
    }
    float col[kBlock];
    float res[kBlock];
    for (int k = 0; k < kBlock; ++k) col[k] = in[k][x];
    idct8(col, res);
    ++passes;
    for (int n = 0; n < kBlock; ++n) tmp[n][x] = res[n];
  }
  for (int y = 0; y < kBlock; ++y) {
    idct8(tmp[y], out[y]);
    ++passes;
  }
  return passes;
}

// --- varint + zigzag-int helpers (entropy layer) ---

void put_varint(std::vector<std::uint8_t>& out, std::uint32_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t get_varint(const std::uint8_t* in, std::size_t n,
                         std::size_t& pos) {
  std::uint32_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= n) throw cellport::IoError("truncated SIC stream");
    std::uint8_t b = in[pos++];
    v |= static_cast<std::uint32_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 28) throw cellport::IoError("overlong varint in SIC stream");
  }
}

std::uint32_t zz_enc(int v) {
  return static_cast<std::uint32_t>((v << 1) ^ (v >> 31));
}

int zz_dec(std::uint32_t v) {
  return static_cast<int>(v >> 1) ^ -static_cast<int>(v & 1);
}

inline void chg(sim::ScalarContext* ctx, sim::OpClass c,
                std::uint64_t n = 1) {
  if (ctx != nullptr) ctx->charge(c, n);
}

/// DC deltas accumulate modulo 2^32: a hostile stream must not overflow.
int add_dc(int prev, std::uint32_t token) {
  return static_cast<int>(static_cast<std::uint32_t>(prev) +
                          static_cast<std::uint32_t>(zz_dec(token)));
}

/// The AC run check shared by the scan and the row decode: a run token
/// `tok` (run + 1) must leave the next coefficient inside the block.
void check_run(std::uint32_t tok, int i) {
  if (tok - 1 >= static_cast<std::uint32_t>(64 - i)) {
    throw cellport::IoError("SIC run overflow");
  }
}

/// Decodes one (channel `ch`, block row `by`) of the token stream into
/// `img`, starting at token byte `pos` with DC predictor `prev_dc` (both
/// advanced). The one row decode: the plain decode's row slices and the
/// PPE mirror of an SPE decode task both run it.
void decode_block_row(const std::uint8_t* tokens, std::size_t ntok,
                      std::size_t& pos, int& prev_dc,
                      const std::array<int, 64>& quant, int bw, int ch,
                      int by, RgbImage& img, sim::ScalarContext* ctx) {
  const int w = img.width();
  const int h = img.height();
  for (int bx = 0; bx < bw; ++bx) {
    int qv[64] = {};
    prev_dc = add_dc(prev_dc, get_varint(tokens, ntok, pos));
    qv[0] = prev_dc;
    int i = 1;
    int nz_ac = 0;
    for (;;) {
      std::uint32_t tok = get_varint(tokens, ntok, pos);
      chg(ctx, sim::OpClass::kLoad, 2);
      chg(ctx, sim::OpClass::kIntAlu, 4);
      chg(ctx, sim::OpClass::kBranch, 2);
      if (tok == 0) break;  // end of block
      check_run(tok, i);
      i += static_cast<int>(tok) - 1;
      qv[i++] = zz_dec(get_varint(tokens, ntok, pos));
      ++nz_ac;
    }
    float blk[kBlock][kBlock];
    if (nz_ac == 0) {
      // DC-only fast path (most blocks of smooth regions): the whole
      // block is one constant. Same association as the general path:
      // (dc*q * c00) * c00.
      chg(ctx, sim::OpClass::kMul, 3);
      chg(ctx, sim::OpClass::kStore, 64);
      chg(ctx, sim::OpClass::kIntAlu, 64);
      float c00 = basis().c[0][0];
      float v =
          (static_cast<float>(qv[0]) * static_cast<float>(quant[0]) * c00) *
          c00;
      for (auto& row : blk) {
        for (float& x : row) x = v;
      }
    } else {
      // Dequantize the nonzeros + fast separable IDCT (32 mul + 32 add
      // per 1-D pass; all-zero columns are skipped).
      float coef[kBlock][kBlock] = {};
      for (int k = 0; k < 64; ++k) {
        int idx = kZigzag[k];
        coef[idx / kBlock][idx % kBlock] =
            static_cast<float>(qv[k]) * static_cast<float>(quant[idx]);
      }
      int passes = idct8x8(coef, blk);
      chg(ctx, sim::OpClass::kMul, static_cast<std::uint64_t>(nz_ac) + 1);
      chg(ctx, sim::OpClass::kFloatAlu,
          static_cast<std::uint64_t>(passes) * 32);
      chg(ctx, sim::OpClass::kMul, static_cast<std::uint64_t>(passes) * 32);
      chg(ctx, sim::OpClass::kIntAlu, 64 * 2);
      chg(ctx, sim::OpClass::kStore, 64);
    }
    for (int y = 0; y < kBlock; ++y) {
      int sy = by * kBlock + y;
      if (sy >= h) break;
      for (int x = 0; x < kBlock; ++x) {
        int sx = bx * kBlock + x;
        if (sx >= w) break;
        img.at(sx, sy, ch) = static_cast<std::uint8_t>(
            std::clamp(std::lround(blk[y][x] + 128.0f), 0l, 255l));
      }
    }
  }
}

/// The validating scan of one (channel, block row): the row decode's
/// token parse, same checks and same IoError text, without the pixel
/// work. Charges the parse the row decode charges per token, plus the
/// two index stores.
void scan_block_row(const std::uint8_t* tokens, std::size_t ntok,
                    std::size_t& pos, int& prev_dc, int bw,
                    sim::ScalarContext* ctx) {
  std::uint64_t parsed = 0;
  for (int bx = 0; bx < bw; ++bx) {
    prev_dc = add_dc(prev_dc, get_varint(tokens, ntok, pos));
    int i = 1;
    for (;;) {
      std::uint32_t tok = get_varint(tokens, ntok, pos);
      ++parsed;
      if (tok == 0) break;
      check_run(tok, i);
      i += static_cast<int>(tok) - 1;
      get_varint(tokens, ntok, pos);
      ++i;
    }
  }
  chg(ctx, sim::OpClass::kLoad, 2 * parsed);
  chg(ctx, sim::OpClass::kIntAlu, 4 * parsed);
  chg(ctx, sim::OpClass::kBranch, 2 * parsed);
  chg(ctx, sim::OpClass::kStore, 2);
}

}  // namespace

const std::array<std::uint8_t, 64>& sic_zigzag() { return kZigzag; }

const std::array<float, 64>& sic_dct_basis() {
  static const std::array<float, 64> flat = [] {
    std::array<float, 64> f{};
    for (int k = 0; k < kBlock; ++k) {
      for (int n = 0; n < kBlock; ++n) f[k * kBlock + n] = basis().c[k][n];
    }
    return f;
  }();
  return flat;
}

SicEncoded sic_encode(const RgbImage& src, int quality) {
  SicEncoded enc;
  enc.width = src.width();
  enc.height = src.height();
  auto q = quant_table(quality);

  // The token stream is built first, then entropy-coded (canonical
  // Huffman over the token bytes) behind a SIC2 header.
  std::vector<std::uint8_t> out;

  int bw = (src.width() + kBlock - 1) / kBlock;
  int bh = (src.height() + kBlock - 1) / kBlock;
  for (int ch = 0; ch < 3; ++ch) {
    int prev_dc = 0;
    for (int by = 0; by < bh; ++by) {
      for (int bx = 0; bx < bw; ++bx) {
        float blk[kBlock][kBlock];
        for (int y = 0; y < kBlock; ++y) {
          int sy = std::min(by * kBlock + y, src.height() - 1);
          for (int x = 0; x < kBlock; ++x) {
            int sx = std::min(bx * kBlock + x, src.width() - 1);
            blk[y][x] = static_cast<float>(src.at(sx, sy, ch)) - 128.0f;
          }
        }
        float coef[kBlock][kBlock];
        fdct8x8(blk, coef);
        // Quantize + zigzag + RLE of zero runs.
        int qv[64];
        for (int i = 0; i < 64; ++i) {
          int idx = kZigzag[i];
          float c = coef[idx / kBlock][idx % kBlock];
          qv[i] = static_cast<int>(std::lround(c / static_cast<float>(
                                                       q[idx])));
        }
        // DC is delta-coded against the previous block; AC coefficients
        // are (run+1, value) pairs terminated by an explicit EOB token.
        put_varint(out, zz_enc(qv[0] - prev_dc));
        prev_dc = qv[0];
        int i = 1;
        while (i < 64) {
          int run = 0;
          while (i + run < 64 && qv[i + run] == 0) ++run;
          if (i + run >= 64) break;  // only zeros remain
          put_varint(out, static_cast<std::uint32_t>(run) + 1);
          put_varint(out, zz_enc(qv[i + run]));
          i += run + 1;
        }
        put_varint(out, 0);  // end-of-block
      }
    }
  }
  enc.bytes.push_back('S');
  enc.bytes.push_back('I');
  enc.bytes.push_back('C');
  enc.bytes.push_back('2');
  put_varint(enc.bytes, static_cast<std::uint32_t>(src.width()));
  put_varint(enc.bytes, static_cast<std::uint32_t>(src.height()));
  put_varint(enc.bytes, static_cast<std::uint32_t>(quality));
  std::vector<std::uint8_t> packed = huffman_encode(out);
  enc.bytes.insert(enc.bytes.end(), packed.begin(), packed.end());
  return enc;
}

SicEncoded ppm_encode(const RgbImage& src) {
  SicEncoded enc;
  enc.width = src.width();
  enc.height = src.height();
  // cellfeed's DMA-list gather anchors each row's window on the enclosing
  // 16-byte boundary, so the carrier keeps >= 15 readable bytes on both
  // sides of the pixel payload: the comment line pads the header (and
  // exercises the strict parser's comment handling on every decode path),
  // and 15 zero tail bytes pad the end (trailing bytes after the payload
  // are legal PPM).
  const std::string hdr = "P6\n# raw feed carrier\n" +
                          std::to_string(src.width()) + " " +
                          std::to_string(src.height()) + "\n255\n";
  const std::size_t row_bytes = static_cast<std::size_t>(src.width()) * 3;
  enc.bytes.reserve(hdr.size() +
                    row_bytes * static_cast<std::size_t>(src.height()) + 15);
  enc.bytes.insert(enc.bytes.end(), hdr.begin(), hdr.end());
  for (int y = 0; y < src.height(); ++y) {
    const std::uint8_t* row = src.row(y);
    enc.bytes.insert(enc.bytes.end(), row, row + row_bytes);
  }
  enc.bytes.insert(enc.bytes.end(), 15, std::uint8_t{0});
  return enc;
}

bool is_ppm(const SicEncoded& enc) {
  return enc.bytes.size() >= 2 && enc.bytes[0] == 'P' &&
         enc.bytes[1] == '6';
}

RgbImage sic_decode(const SicEncoded& enc, sim::ScalarContext* ctx) {
  SicDecoder dec(enc, ctx);
  while (dec.step()) {
  }
  return dec.take();
}

SicDecoder::SicDecoder(const SicEncoded& enc, sim::ScalarContext* ctx,
                       bool charge_io, RgbImage storage, bool index_rows)
    : enc_(enc),
      ctx_(ctx),
      stage_(charge_io && ctx != nullptr ? Stage::kIo : Stage::kHeader),
      index_rows_(index_rows),
      img_(std::move(storage)) {}

bool SicDecoder::step() {
  switch (stage_) {
    case Stage::kIo:
      // Reading the compressed image from disk.
      ctx_->charge_io(enc_.bytes.size(), /*open_file=*/true);
      stage_ = Stage::kHeader;
      break;
    case Stage::kHeader:
      decode_header();
      break;
    case Stage::kRows:
      row_slice();
      break;
    case Stage::kDone:
      break;
  }
  return stage_ != Stage::kDone;
}

RgbImage SicDecoder::take() {
  if (stage_ != Stage::kDone) {
    throw cellport::ConfigError("SicDecoder::take before the last slice");
  }
  return std::move(img_);
}

void SicDecoder::decode_header() {
  if (is_ppm(enc_)) {
    // PPM carrier: the strict shared parser (identical to the SPE feed
    // path's header handling), then a per-row unpack whose touch cost is
    // charged per 16-byte chunk — this is the PPE-resident ingest that
    // cellfeed exists to displace.
    img_ = decode_p6(enc_.bytes.data(), enc_.bytes.size());
    std::uint64_t chunks =
        (static_cast<std::uint64_t>(img_.width()) * 3 * img_.height() +
         15) /
        16;
    chg(ctx_, sim::OpClass::kLoad, chunks);
    chg(ctx_, sim::OpClass::kStore, chunks);
    chg(ctx_, sim::OpClass::kIntAlu,
        static_cast<std::uint64_t>(img_.height()) * 2);
    stage_ = Stage::kDone;
    return;
  }
  const std::vector<std::uint8_t>& bytes = enc_.bytes;
  if (bytes.size() < 4 || bytes[0] != 'S' || bytes[1] != 'I' ||
      bytes[2] != 'C' || bytes[3] != '2') {
    throw cellport::IoError("bad SIC magic");
  }
  std::size_t hdr = 4;
  int w = static_cast<int>(get_varint(bytes.data(), bytes.size(), hdr));
  int h = static_cast<int>(get_varint(bytes.data(), bytes.size(), hdr));
  int quality =
      static_cast<int>(get_varint(bytes.data(), bytes.size(), hdr));
  // Entropy-decode the token stream; the block rows parse it.
  tokens_ = huffman_decode(bytes, hdr, ctx_);
  if (w <= 0 || h <= 0 || w > 1 << 16 || h > 1 << 16) {
    throw cellport::IoError("bad SIC dimensions");
  }
  quant_ = quant_table(quality);
  img_.reshape(w, h);
  bw_ = (w + kBlock - 1) / kBlock;
  bh_ = (h + kBlock - 1) / kBlock;
  ntok_ = tokens_.size();
  if (index_rows_) {
    // Zero-pad the stream to a 16-byte multiple so an SPE may DMA any
    // aligned window covering a row (operator new already aligns the
    // storage to 16 bytes); the parse still stops at ntok_.
    tokens_.resize(cellport::round_up(ntok_ + 1, 16), 0);
    row_pos_.assign(static_cast<std::size_t>(3 * bh_) + 1, 0);
    row_dc_.assign(static_cast<std::size_t>(3 * bh_), 0);
  }
  stage_ = Stage::kRows;
}

void SicDecoder::row_slice() {
  if (by_ == 0) prev_dc_ = 0;  // DC deltas restart with each channel
  if (index_rows_) {
    const auto at = static_cast<std::size_t>(ch_ * bh_ + by_);
    row_pos_[at] = static_cast<std::uint32_t>(pos_);
    row_dc_[at] = prev_dc_;
    scan_block_row(tokens_.data(), ntok_, pos_, prev_dc_, bw_, ctx_);
  } else {
    decode_block_row(tokens_.data(), ntok_, pos_, prev_dc_, quant_, bw_, ch_,
                     by_, img_, ctx_);
  }
  if (++by_ == bh_) {
    by_ = 0;
    if (++ch_ == 3) {
      stage_ = Stage::kDone;
      if (index_rows_) {
        row_pos_.back() = static_cast<std::uint32_t>(pos_);
        indexed_ = true;
      }
    }
  }
}

void SicDecoder::decode_rows(int by, sim::ScalarContext* ctx) {
  if (!indexed_ || by < 0 || by >= bh_) {
    throw cellport::ConfigError("SicDecoder::decode_rows outside the index");
  }
  for (int c = 0; c < 3; ++c) {
    const auto at = static_cast<std::size_t>(c * bh_ + by);
    std::size_t pos = row_pos_[at];
    int dc = row_dc_[at];
    decode_block_row(tokens_.data(), ntok_, pos, dc, quant_, bw_, c, by, img_,
                     ctx);
  }
}

double psnr(const RgbImage& a, const RgbImage& b) {
  if (!a.same_dims(b)) {
    throw cellport::ConfigError("psnr: image dimensions differ");
  }
  double mse = 0;
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      for (int c = 0; c < 3; ++c) {
        double d = static_cast<double>(a.at(x, y, c)) - b.at(x, y, c);
        mse += d * d;
      }
    }
  }
  mse /= static_cast<double>(a.width()) * a.height() * 3;
  if (mse <= 0) return 99.0;
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace cellport::img
