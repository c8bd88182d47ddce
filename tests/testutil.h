// Shared helpers for the gtest suites: temporary model libraries,
// seeded synthetic inputs, vector digests, and the feature-equivalence
// assertion whose tolerances match cellcheck's differential oracle
// (src/check/oracle.h) — the two test tiers must agree on what
// "equivalent" means or a bug could pass one and fail the other.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "img/codec.h"
#include "img/huffman.h"
#include "img/synth.h"
#include "learn/model_store.h"
#include "marvel/result.h"

namespace cellport::testutil {

/// A model library written to gtest's temp dir, removed on destruction.
/// The file name carries the process id: ctest runs every test case in
/// its own process, in parallel, and two of them must never share (and
/// remove) one file.
/// `extra_concepts` < 0 writes the full library (34 inactive concepts
/// per feature, the paper's 166-model store); small values keep
/// model-load time negligible for tests that only need valid models.
class TempLibrary {
 public:
  explicit TempLibrary(const std::string& name, int extra_concepts = -1)
      : path_(::testing::TempDir() + "/" + std::to_string(::getpid()) +
              "_" + name) {
    learn::MarvelModels models = learn::make_marvel_models();
    if (extra_concepts < 0) {
      learn::save_library(path_, models);
    } else {
      learn::save_library(path_, models,
                          static_cast<std::size_t>(extra_concepts));
    }
  }
  ~TempLibrary() { std::remove(path_.c_str()); }
  TempLibrary(const TempLibrary&) = delete;
  TempLibrary& operator=(const TempLibrary&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A SIC2 carrier around a hand-built token payload (the decoder's
/// malformed-input cases): `w` and `h` below 128, quality 50.
inline img::SicEncoded sic_with_tokens(int w, int h,
                                       const std::vector<std::uint8_t>& tokens) {
  img::SicEncoded enc;
  enc.width = w;
  enc.height = h;
  enc.bytes = {'S', 'I', 'C', '2', static_cast<std::uint8_t>(w),
               static_cast<std::uint8_t>(h), 50};
  std::vector<std::uint8_t> packed = img::huffman_encode(tokens);
  enc.bytes.insert(enc.bytes.end(), packed.begin(), packed.end());
  return enc;
}

inline double l1_distance(const std::vector<float>& a,
                          const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  double d = 0;
  std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    d += std::abs(static_cast<double>(a[i]) - b[i]);
  }
  return d;
}

/// Order-independent summary of a feature vector, stable enough to pin
/// in golden files without listing every element.
struct VectorDigest {
  double sum = 0;
  std::size_t argmax = 0;
  double max = 0;
  double v0 = 0;
};

inline VectorDigest digest(const std::vector<float>& values) {
  VectorDigest d;
  d.max = -1.0;
  d.v0 = values.empty() ? 0.0 : values[0];
  for (std::size_t i = 0; i < values.size(); ++i) {
    d.sum += values[i];
    if (values[i] > d.max) {
      d.max = values[i];
      d.argmax = i;
    }
  }
  return d;
}

/// The Cell-vs-reference equivalence contract (tolerances documented in
/// src/check/oracle.h): color kernels bit-exact, edge histogram within
/// an L1 budget, texture and detection scores element-wise close.
inline void expect_feature_equivalent(const marvel::AnalysisResult& cell,
                                      const marvel::AnalysisResult& ref) {
  EXPECT_EQ(cell.color_histogram.values, ref.color_histogram.values);
  EXPECT_EQ(cell.color_correlogram.values, ref.color_correlogram.values);
  EXPECT_LT(l1_distance(cell.edge_histogram.values,
                        ref.edge_histogram.values),
            2e-3);
  ASSERT_EQ(cell.texture.values.size(), ref.texture.values.size());
  for (std::size_t i = 0; i < cell.texture.values.size(); ++i) {
    EXPECT_NEAR(cell.texture.values[i], ref.texture.values[i], 1e-3);
  }
  ASSERT_EQ(cell.cc_detect.values.size(), ref.cc_detect.values.size());
  for (std::size_t i = 0; i < cell.cc_detect.values.size(); ++i) {
    EXPECT_NEAR(cell.cc_detect.values[i], ref.cc_detect.values[i], 1e-2);
  }
}

/// Seeded synthetic image, cycling through scene kinds so suites can
/// ask for "image i" without repeating the kind/seed plumbing.
inline img::RgbImage seeded_image(std::uint64_t seed, int width = 64,
                                  int height = 48) {
  auto kind = static_cast<img::SceneKind>(seed % 5);
  return img::synth_image(kind, seed, width, height);
}

/// Seeded white noise: at a high quality nearly every DCT coefficient
/// survives, the densest SIC token stream per pixel.
inline img::RgbImage noise_image(std::uint64_t seed, int width, int height) {
  img::RgbImage image(width, height);
  std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      for (int c = 0; c < 3; ++c) {
        image.at(x, y, c) = static_cast<std::uint8_t>(rng() & 0xFF);
      }
    }
  }
  return image;
}

}  // namespace cellport::testutil
