// SIC — a simple DCT image codec.
//
// MARVEL's preprocessing step reads and decompresses JPEG-like images
// before feature extraction (2% of per-image time; most of the remaining
// preprocessing is disk I/O). The authors' image set and decoder are not
// available, so SIC provides the same code path: a baseline-JPEG-shaped
// lossy codec (4:2:0-free, per-channel 8x8 DCT, uniform quantization,
// zigzag scan, run-length + varint entropy coding). It is a real codec —
// encode/decode round-trips within the chosen quality's error bound — and
// its decode cost is charged to the preprocessing phase.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "img/image.h"
#include "sim/scalar_context.h"

namespace cellport::img {

struct SicEncoded {
  std::vector<std::uint8_t> bytes;
  int width = 0;
  int height = 0;
};

/// Encodes an RGB image. `quality` in [1, 100]; higher keeps more detail.
SicEncoded sic_encode(const RgbImage& src, int quality = 85);

/// Wraps an image as an uncompressed binary P6 PPM stream in the same
/// carrier. This is cellfeed's ingest format: raw packed rows the SPEs
/// gather straight out of main memory with DMA lists. sic_decode accepts
/// both layouts (dispatch on magic), so every PPE path — including the
/// differential oracle — decodes PPM carriers without special cases.
SicEncoded ppm_encode(const RgbImage& src);

/// True when the carrier holds a binary P6 PPM stream (by magic) rather
/// than a SIC2 stream.
bool is_ppm(const SicEncoded& enc);

/// Decodes a SIC stream. Throws IoError on malformed input. Charges the
/// decode op mix (entropy decode + dequant + IDCT per block) when
/// ctx != null — this is MARVEL's "image reading and decompressing" cost.
/// P6 PPM carriers (see ppm_encode) decode through the strict shared
/// parser with a per-row copy cost instead. The loop over SicDecoder.
RgbImage sic_decode(const SicEncoded& enc,
                    sim::ScalarContext* ctx = nullptr);

/// celldecode: the tables the SPE decode kernel (SPU_Run_Decode) shares
/// with the PPE decoder, so both compute the same floats. Zigzag: token k
/// of a block lands at natural (row-major) index sic_zigzag()[k]. Basis:
/// the separable 8-point DCT-II basis c[k][n] at index k * 8 + n.
inline constexpr int kSicBlock = 8;
const std::array<std::uint8_t, 64>& sic_zigzag();
const std::array<float, 64>& sic_dct_basis();

/// The one decode implementation, resumable: each step() runs one slice
/// of PPE-serial work so a caller can interleave its own between slices
/// (the streaming pipeline services finished SPE tasks there). Slices, in
/// order: the disk read (only with `charge_io`), the header + Huffman
/// pass (the whole decode for a PPM carrier), then one per (channel,
/// block row). Run to completion it issues exactly sic_decode's charges
/// in the same order, and throws the same IoError from the slice that
/// meets the malformed bytes. `enc` must outlive the decoder.
///
/// With `index_rows` the per-(channel, block row) slices only scan the
/// tokens instead: they validate the stream (throwing the same IoError
/// the row decode would) and record where each block row starts and the
/// DC predictor entering it. The pixels are then decoded block row by
/// block row, in any order — by SPU_Run_Decode tasks, or on the PPE by
/// decode_rows() — and take() hands the image over. A PPM carrier
/// decodes whole in its header slice either way.
class SicDecoder {
 public:
  /// `storage` is an earlier image whose pixel buffer the decode reuses
  /// (RgbImage::reshape) instead of allocating one.
  SicDecoder(const SicEncoded& enc, sim::ScalarContext* ctx = nullptr,
             bool charge_io = false, RgbImage storage = {},
             bool index_rows = false);

  /// Runs the next slice; true while more remain.
  bool step();
  bool done() const { return stage_ == Stage::kDone; }
  /// The decoded image (once done(); an indexed decoder's block rows
  /// must have been decoded by then).
  RgbImage take();

  // ---- index mode (after done()) ----
  /// True when the scan indexed a SIC2 stream and no pixel is decoded.
  bool indexed() const { return indexed_; }
  int block_rows() const { return bh_; }
  const std::array<int, 64>& quant() const { return quant_; }
  /// Token byte offset of (channel c, block row by) at [c * block_rows()
  /// + by]; the last entry is the end of the token stream.
  const std::vector<std::uint32_t>& row_pos() const { return row_pos_; }
  /// The DC predictor entering (channel c, block row by), same indexing.
  const std::vector<std::int32_t>& row_dc() const { return row_dc_; }
  /// The token stream: zero-padded to a 16-byte multiple, so an SPE may
  /// DMA any 16-byte window covering a row (the storage is 16-byte
  /// aligned, __STDCPP_DEFAULT_NEW_ALIGNMENT__ on the supported hosts).
  const std::uint8_t* tokens() const { return tokens_.data(); }
  /// The destination image (dimensions set, pixels zero until decoded).
  RgbImage& image() { return img_; }
  /// Decodes block row `by` of all three channels into image(), charging
  /// `ctx` exactly what the plain decode charges for those three slices
  /// (the PPE mirror of one SPU_Run_Decode task).
  void decode_rows(int by, sim::ScalarContext* ctx);

 private:
  enum class Stage : std::uint8_t { kIo, kHeader, kRows, kDone };
  void decode_header();
  void row_slice();

  const SicEncoded& enc_;
  sim::ScalarContext* ctx_;
  Stage stage_;
  bool index_rows_;
  bool indexed_ = false;
  RgbImage img_;
  std::vector<std::uint8_t> tokens_;
  std::size_t ntok_ = 0;  // token bytes (index mode pads tokens_ past it)
  std::vector<std::uint32_t> row_pos_;
  std::vector<std::int32_t> row_dc_;
  std::size_t pos_ = 0;
  std::array<int, 64> quant_{};
  int bw_ = 0;
  int bh_ = 0;
  int ch_ = 0;
  int by_ = 0;
  int prev_dc_ = 0;
};

/// Peak signal-to-noise ratio between two images (round-trip quality).
double psnr(const RgbImage& a, const RgbImage& b);

}  // namespace cellport::img
