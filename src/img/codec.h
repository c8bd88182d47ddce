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

/// The one decode implementation, resumable: each step() runs one slice
/// of PPE-serial work so a caller can interleave its own between slices
/// (the streaming pipeline services finished SPE tasks there). Slices, in
/// order: the disk read (only with `charge_io`), the header + Huffman
/// pass (the whole decode for a PPM carrier), then one per (channel,
/// block row). Run to completion it issues exactly sic_decode's charges
/// in the same order, and throws the same IoError from the slice that
/// meets the malformed bytes. `enc` must outlive the decoder.
class SicDecoder {
 public:
  /// `storage` is an earlier image whose pixel buffer the decode reuses
  /// (RgbImage::reshape) instead of allocating one.
  SicDecoder(const SicEncoded& enc, sim::ScalarContext* ctx = nullptr,
             bool charge_io = false, RgbImage storage = {});

  /// Runs the next slice; true while more remain.
  bool step();
  bool done() const { return stage_ == Stage::kDone; }
  /// The decoded image (once done()).
  RgbImage take();

 private:
  enum class Stage : std::uint8_t { kIo, kHeader, kRows, kDone };
  void decode_header();
  void decode_block_row();

  const SicEncoded& enc_;
  sim::ScalarContext* ctx_;
  Stage stage_;
  RgbImage img_;
  std::vector<std::uint8_t> tokens_;
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
