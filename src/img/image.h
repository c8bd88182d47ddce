// Image containers.
//
// Pixel storage is 128-byte aligned with every row padded to a 16-byte
// multiple, so any whole row (or run of rows) of any image is a legal DMA
// transfer — the property the paper's kernel-migration step relies on when
// slicing images through the SPE local store.
#pragma once

#include <cstdint>
#include <cstring>

#include "support/aligned.h"
#include "support/error.h"

namespace cellport::img {

/// Interleaved 8-bit RGB image.
class RgbImage {
 public:
  RgbImage() = default;
  RgbImage(int width, int height)
      : width_(width),
        height_(height),
        stride_(static_cast<int>(cellport::round_up(
            static_cast<std::size_t>(width) * 3, 16))),
        pixels_(static_cast<std::size_t>(stride_) * height) {
    if (width <= 0 || height <= 0) {
      throw cellport::ConfigError("image dimensions must be positive");
    }
  }

  int width() const { return width_; }
  int height() const { return height_; }
  /// Bytes between the starts of consecutive rows (16-byte multiple).
  int stride() const { return stride_; }

  std::uint8_t* row(int y) {
    return pixels_.data() + static_cast<std::size_t>(y) * stride_;
  }
  const std::uint8_t* row(int y) const {
    return pixels_.data() + static_cast<std::size_t>(y) * stride_;
  }

  /// Channel c (0=R,1=G,2=B) of pixel (x, y).
  std::uint8_t at(int x, int y, int c) const { return row(y)[x * 3 + c]; }
  std::uint8_t& at(int x, int y, int c) { return row(y)[x * 3 + c]; }

  std::uint8_t* data() { return pixels_.data(); }
  const std::uint8_t* data() const { return pixels_.data(); }
  std::size_t bytes() const {
    return static_cast<std::size_t>(stride_) * height_;
  }

  bool same_dims(const RgbImage& o) const {
    return width_ == o.width_ && height_ == o.height_;
  }

  /// Re-dimensions the image to `width` x `height` with every byte zero,
  /// as a fresh RgbImage(width, height) reads. The pixel storage is kept
  /// when it is large enough, so a decoder that recycles one image per
  /// in-flight request allocates nothing once it has seen the largest
  /// shape.
  void reshape(int width, int height) {
    const int stride = static_cast<int>(
        cellport::round_up(static_cast<std::size_t>(width) * 3, 16));
    const std::size_t need = static_cast<std::size_t>(stride) * height;
    if (width <= 0 || height <= 0 || pixels_.size() < need) {
      *this = RgbImage(width, height);  // throws on bad dimensions
      return;
    }
    width_ = width;
    height_ = height;
    stride_ = stride;
    std::memset(pixels_.data(), 0, need);
  }

 private:
  int width_ = 0;
  int height_ = 0;
  int stride_ = 0;
  cellport::AlignedBuffer<std::uint8_t> pixels_;
};

/// Single-channel 8-bit image (grayscale, quantized-bin maps, ...).
class GrayImage {
 public:
  GrayImage() = default;
  GrayImage(int width, int height)
      : width_(width),
        height_(height),
        stride_(static_cast<int>(
            cellport::round_up(static_cast<std::size_t>(width), 16))),
        pixels_(static_cast<std::size_t>(stride_) * height) {
    if (width <= 0 || height <= 0) {
      throw cellport::ConfigError("image dimensions must be positive");
    }
  }

  int width() const { return width_; }
  int height() const { return height_; }
  int stride() const { return stride_; }

  std::uint8_t* row(int y) {
    return pixels_.data() + static_cast<std::size_t>(y) * stride_;
  }
  const std::uint8_t* row(int y) const {
    return pixels_.data() + static_cast<std::size_t>(y) * stride_;
  }

  std::uint8_t at(int x, int y) const { return row(y)[x]; }
  std::uint8_t& at(int x, int y) { return row(y)[x]; }

  std::uint8_t* data() { return pixels_.data(); }
  const std::uint8_t* data() const { return pixels_.data(); }
  std::size_t bytes() const { return pixels_.bytes(); }

 private:
  int width_ = 0;
  int height_ = 0;
  int stride_ = 0;
  cellport::AlignedBuffer<std::uint8_t> pixels_;
};

/// Single-channel float image (wavelet planes, filter intermediates).
class FloatImage {
 public:
  FloatImage() = default;
  FloatImage(int width, int height)
      : width_(width),
        height_(height),
        stride_(static_cast<int>(
            cellport::round_up(static_cast<std::size_t>(width), 4))),
        pixels_(static_cast<std::size_t>(stride_) * height) {
    if (width <= 0 || height <= 0) {
      throw cellport::ConfigError("image dimensions must be positive");
    }
  }

  int width() const { return width_; }
  int height() const { return height_; }
  /// Floats (not bytes) between row starts; a 16-byte multiple of bytes.
  int stride() const { return stride_; }

  float* row(int y) {
    return pixels_.data() + static_cast<std::size_t>(y) * stride_;
  }
  const float* row(int y) const {
    return pixels_.data() + static_cast<std::size_t>(y) * stride_;
  }

  float at(int x, int y) const { return row(y)[x]; }
  float& at(int x, int y) { return row(y)[x]; }

  float* data() { return pixels_.data(); }
  const float* data() const { return pixels_.data(); }
  std::size_t bytes() const { return pixels_.bytes(); }

 private:
  int width_ = 0;
  int height_ = 0;
  int stride_ = 0;
  cellport::AlignedBuffer<float> pixels_;
};

}  // namespace cellport::img
