// SPU SIMD intrinsics emulation (the Cell SDK spu_intrinsics.h dialect).
//
// Each function is functionally exact on its lanes and charges the cycle
// cost of the corresponding SPU instruction (or documented instruction
// sequence) to the current SPE context: arithmetic on the even pipe,
// shuffles on the odd pipe, double precision at 3.5 even cycles per op.
// SIMD speedups measured by the benchmarks therefore arise from lane width
// and pipeline balance, not from hard-coded factors.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "spu/pipes.h"
#include "spu/vec.h"

namespace cellport::spu {

// ---- arithmetic (even pipe) ----

/// Integer lanes add and subtract modulo 2^bits, like the hardware; the
/// arithmetic runs in the unsigned type so a wrapping word lane is not
/// signed overflow.
template <typename T>
using WrapType = std::conditional_t<std::is_integral_v<T>,
                                    std::make_unsigned<T>,
                                    std::type_identity<T>>::type;

template <typename T, std::size_t N>
Vec<T, N> spu_add(const Vec<T, N>& a, const Vec<T, N>& b) {
  charge_arith<T>();
  Vec<T, N> r;
  for (std::size_t i = 0; i < N; ++i)
    r.v[i] = static_cast<T>(static_cast<WrapType<T>>(a.v[i]) +
                            static_cast<WrapType<T>>(b.v[i]));
  return r;
}

template <typename T, std::size_t N>
Vec<T, N> spu_sub(const Vec<T, N>& a, const Vec<T, N>& b) {
  charge_arith<T>();
  Vec<T, N> r;
  for (std::size_t i = 0; i < N; ++i)
    r.v[i] = static_cast<T>(static_cast<WrapType<T>>(a.v[i]) -
                            static_cast<WrapType<T>>(b.v[i]));
  return r;
}

/// Single-precision multiply (one fused even-pipe instruction).
inline vec_float4 spu_mul(const vec_float4& a, const vec_float4& b) {
  charge_arith<float>();
  vec_float4 r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}

inline vec_double2 spu_mul(const vec_double2& a, const vec_double2& b) {
  charge_arith<double>();
  vec_double2 r;
  for (std::size_t i = 0; i < 2; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}

/// 32-bit integer multiply. The SPU only has 16x16 multipliers: a full
/// 32-bit multiply compiles to a ~5 instruction sequence (mpyh/mpyh/mpyu/
/// add/add), charged accordingly.
inline vec_int4 spu_mul(const vec_int4& a, const vec_int4& b) {
  charge_even(5);
  vec_int4 r;
  for (std::size_t i = 0; i < 4; ++i)
    r.v[i] = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(a.v[i]) *
        static_cast<std::uint32_t>(b.v[i]));
  return r;
}

inline vec_uint4 spu_mul(const vec_uint4& a, const vec_uint4& b) {
  charge_even(5);
  vec_uint4 r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}

/// Halfword modulo multiply (low 16 bits of the product). The SPU builds
/// this from its 16-bit multipliers in a 2-instruction sequence.
inline vec_ushort8 spu_mulhw(const vec_ushort8& a, const vec_ushort8& b) {
  charge_even(2);
  vec_ushort8 r;
  for (std::size_t i = 0; i < 8; ++i)
    r.v[i] = static_cast<std::uint16_t>(static_cast<std::uint32_t>(a.v[i]) *
                                        b.v[i]);
  return r;
}

/// 16-bit multiply, even lanes widened to 32 bits (native mpye-style op).
inline vec_int4 spu_mule(const vec_short8& a, const vec_short8& b) {
  charge_even();
  vec_int4 r;
  for (std::size_t i = 0; i < 4; ++i)
    r.v[i] = static_cast<std::int32_t>(a.v[2 * i]) *
             static_cast<std::int32_t>(b.v[2 * i]);
  return r;
}

/// 16-bit multiply, odd lanes widened to 32 bits.
inline vec_int4 spu_mulo(const vec_short8& a, const vec_short8& b) {
  charge_even();
  vec_int4 r;
  for (std::size_t i = 0; i < 4; ++i)
    r.v[i] = static_cast<std::int32_t>(a.v[2 * i + 1]) *
             static_cast<std::int32_t>(b.v[2 * i + 1]);
  return r;
}

/// Fused multiply-add a*b+c (single instruction on the SPU).
inline vec_float4 spu_madd(const vec_float4& a, const vec_float4& b,
                           const vec_float4& c) {
  charge_arith<float>();
  vec_float4 r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i] + c.v[i];
  return r;
}

inline vec_double2 spu_madd(const vec_double2& a, const vec_double2& b,
                            const vec_double2& c) {
  charge_arith<double>();
  vec_double2 r;
  for (std::size_t i = 0; i < 2; ++i) r.v[i] = a.v[i] * b.v[i] + c.v[i];
  return r;
}

/// Fused multiply-subtract a*b-c.
inline vec_float4 spu_msub(const vec_float4& a, const vec_float4& b,
                           const vec_float4& c) {
  charge_arith<float>();
  vec_float4 r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i] - c.v[i];
  return r;
}

/// Negative multiply-subtract c-a*b (used by the Newton-Raphson division
/// refinement).
inline vec_float4 spu_nmsub(const vec_float4& a, const vec_float4& b,
                            const vec_float4& c) {
  charge_arith<float>();
  vec_float4 r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = c.v[i] - a.v[i] * b.v[i];
  return r;
}

/// Average of unsigned bytes, rounding up (native avgb).
inline vec_uchar16 spu_avg(const vec_uchar16& a, const vec_uchar16& b) {
  charge_even();
  vec_uchar16 r;
  for (std::size_t i = 0; i < 16; ++i)
    r.v[i] = static_cast<std::uint8_t>((a.v[i] + b.v[i] + 1) >> 1);
  return r;
}

/// Absolute difference of unsigned bytes (native absdb).
inline vec_uchar16 spu_absd(const vec_uchar16& a, const vec_uchar16& b) {
  charge_even();
  vec_uchar16 r;
  for (std::size_t i = 0; i < 16; ++i)
    r.v[i] = static_cast<std::uint8_t>(
        a.v[i] > b.v[i] ? a.v[i] - b.v[i] : b.v[i] - a.v[i]);
  return r;
}

// ---- logical (even pipe) ----

template <typename T, std::size_t N>
Vec<T, N> spu_and(const Vec<T, N>& a, const Vec<T, N>& b) {
  charge_even();
  Vec<T, N> r;
  auto pa = std::bit_cast<std::array<std::uint8_t, 16>>(a.v);
  auto pb = std::bit_cast<std::array<std::uint8_t, 16>>(b.v);
  std::array<std::uint8_t, 16> pr;
  for (std::size_t i = 0; i < 16; ++i)
    pr[i] = static_cast<std::uint8_t>(pa[i] & pb[i]);
  r.v = std::bit_cast<std::array<T, N>>(pr);
  return r;
}

template <typename T, std::size_t N>
Vec<T, N> spu_or(const Vec<T, N>& a, const Vec<T, N>& b) {
  charge_even();
  Vec<T, N> r;
  auto pa = std::bit_cast<std::array<std::uint8_t, 16>>(a.v);
  auto pb = std::bit_cast<std::array<std::uint8_t, 16>>(b.v);
  std::array<std::uint8_t, 16> pr;
  for (std::size_t i = 0; i < 16; ++i)
    pr[i] = static_cast<std::uint8_t>(pa[i] | pb[i]);
  r.v = std::bit_cast<std::array<T, N>>(pr);
  return r;
}

template <typename T, std::size_t N>
Vec<T, N> spu_xor(const Vec<T, N>& a, const Vec<T, N>& b) {
  charge_even();
  Vec<T, N> r;
  auto pa = std::bit_cast<std::array<std::uint8_t, 16>>(a.v);
  auto pb = std::bit_cast<std::array<std::uint8_t, 16>>(b.v);
  std::array<std::uint8_t, 16> pr;
  for (std::size_t i = 0; i < 16; ++i)
    pr[i] = static_cast<std::uint8_t>(pa[i] ^ pb[i]);
  r.v = std::bit_cast<std::array<T, N>>(pr);
  return r;
}

// ---- compares and select (even pipe) ----

/// Per-lane equality; result lanes are all-ones (true) or zero.
template <typename T, std::size_t N>
Vec<T, N> spu_cmpeq(const Vec<T, N>& a, const Vec<T, N>& b) {
  charge_even();
  Vec<T, N> r;
  for (std::size_t i = 0; i < N; ++i) {
    bool t = a.v[i] == b.v[i];
    if constexpr (std::is_floating_point_v<T>) {
      r.v[i] = t ? std::bit_cast<T>(
                       std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                          std::uint64_t>(~0ull))
                 : T{};
    } else {
      r.v[i] = t ? static_cast<T>(~T{}) : T{};
    }
  }
  return r;
}

/// Per-lane a > b; all-ones / zero lanes.
template <typename T, std::size_t N>
Vec<T, N> spu_cmpgt(const Vec<T, N>& a, const Vec<T, N>& b) {
  charge_even();
  Vec<T, N> r;
  for (std::size_t i = 0; i < N; ++i) {
    bool t = a.v[i] > b.v[i];
    if constexpr (std::is_floating_point_v<T>) {
      r.v[i] = t ? std::bit_cast<T>(
                       std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                          std::uint64_t>(~0ull))
                 : T{};
    } else {
      r.v[i] = t ? static_cast<T>(~T{}) : T{};
    }
  }
  return r;
}

/// Bitwise select: mask bit 1 picks b, 0 picks a. The SPU's branch-free
/// workhorse (the paper's "remove/replace branches" optimization).
template <typename T, std::size_t N, typename M>
Vec<T, N> spu_sel(const Vec<T, N>& a, const Vec<T, N>& b,
                  const Vec<M, N>& mask) {
  static_assert(sizeof(M) == sizeof(T));
  charge_even();
  Vec<T, N> r;
  auto pa = std::bit_cast<std::array<std::uint8_t, 16>>(a.v);
  auto pb = std::bit_cast<std::array<std::uint8_t, 16>>(b.v);
  auto pm = std::bit_cast<std::array<std::uint8_t, 16>>(mask.v);
  std::array<std::uint8_t, 16> pr;
  for (std::size_t i = 0; i < 16; ++i)
    pr[i] = static_cast<std::uint8_t>((pa[i] & ~pm[i]) | (pb[i] & pm[i]));
  r.v = std::bit_cast<std::array<T, N>>(pr);
  return r;
}

// ---- shifts (even pipe) ----

template <typename T, std::size_t N>
Vec<T, N> spu_sl(const Vec<T, N>& a, unsigned count) {
  static_assert(std::is_integral_v<T>);
  charge_even();
  Vec<T, N> r;
  for (std::size_t i = 0; i < N; ++i)
    r.v[i] = static_cast<T>(a.v[i] << count);
  return r;
}

template <typename T, std::size_t N>
Vec<T, N> spu_sr(const Vec<T, N>& a, unsigned count) {
  static_assert(std::is_integral_v<T>);
  charge_even();
  Vec<T, N> r;
  for (std::size_t i = 0; i < N; ++i)
    r.v[i] = static_cast<T>(a.v[i] >> count);
  return r;
}

// ---- splat / extract / insert ----

template <typename V>
V spu_splats(typename V::lane_type x) {
  charge_even();
  return V::splat(x);
}

/// Moves one lane to a scalar (compiles to a rotate on real SPUs: odd pipe).
template <typename T, std::size_t N>
T spu_extract(const Vec<T, N>& a, std::size_t lane) {
  charge_odd();
  return a.v[lane % N];
}

/// Replaces one lane (shuffle sequence: odd pipe).
template <typename T, std::size_t N>
Vec<T, N> spu_insert(T x, const Vec<T, N>& a, std::size_t lane) {
  charge_odd();
  Vec<T, N> r = a;
  r.v[lane % N] = x;
  return r;
}

/// Promotes a scalar into lane `lane` of an otherwise undefined vector.
template <typename V>
V spu_promote(typename V::lane_type x, std::size_t lane) {
  charge_odd();
  V r{};
  r.v[lane % V::lanes] = x;
  return r;
}

// ---- byte operations ----

/// Per-byte population count (native cntb, even pipe).
inline vec_uchar16 spu_cntb(const vec_uchar16& a) {
  charge_even();
  vec_uchar16 r;
  for (std::size_t i = 0; i < 16; ++i)
    r.v[i] = static_cast<std::uint8_t>(std::popcount(a.v[i]));
  return r;
}

/// Sums each group of 4 bytes of `a` into the corresponding word lane
/// (native sumb semantics, simplified to one operand; even pipe).
inline vec_uint4 spu_sumb(const vec_uchar16& a) {
  charge_even();
  vec_uint4 r;
  for (std::size_t w = 0; w < 4; ++w) {
    std::uint32_t s = 0;
    for (std::size_t b = 0; b < 4; ++b) s += a.v[4 * w + b];
    r.v[w] = s;
  }
  return r;
}

// ---- conversions (even pipe) ----

/// Signed words -> floats with scale 2^-scale (native cuflt/csflt).
inline vec_float4 spu_convtf(const vec_int4& a, unsigned scale = 0) {
  charge_even();
  vec_float4 r;
  float k = std::ldexp(1.0f, -static_cast<int>(scale));
  for (std::size_t i = 0; i < 4; ++i)
    r.v[i] = static_cast<float>(a.v[i]) * k;
  return r;
}

inline vec_float4 spu_convtf(const vec_uint4& a, unsigned scale = 0) {
  charge_even();
  vec_float4 r;
  float k = std::ldexp(1.0f, -static_cast<int>(scale));
  for (std::size_t i = 0; i < 4; ++i)
    r.v[i] = static_cast<float>(a.v[i]) * k;
  return r;
}

/// Floats -> signed words, truncating, with scale 2^scale (native cflts).
inline vec_int4 spu_convts(const vec_float4& a, unsigned scale = 0) {
  charge_even();
  vec_int4 r;
  float k = std::ldexp(1.0f, static_cast<int>(scale));
  for (std::size_t i = 0; i < 4; ++i) {
    float x = a.v[i] * k;
    // Saturating conversion, like the hardware. SPU single precision has
    // no NaN or infinity: exponent 255 is extended range (|x| >= 2^128),
    // so such a bit pattern saturates by its sign.
    if (std::isnan(x)) {
      r.v[i] = std::signbit(a.v[i])
                   ? std::numeric_limits<std::int32_t>::min()
                   : std::numeric_limits<std::int32_t>::max();
    } else if (x >= 2147483647.0f) {
      r.v[i] = std::numeric_limits<std::int32_t>::max();
    } else if (x <= -2147483648.0f) {
      r.v[i] = std::numeric_limits<std::int32_t>::min();
    } else {
      r.v[i] = static_cast<std::int32_t>(x);
    }
  }
  return r;
}

// ---- estimates and derived math ----

/// Reciprocal estimate (~12 bits, native frest+fi pair: 2 even cycles).
inline vec_float4 spu_re(const vec_float4& a) {
  charge_even(2);
  vec_float4 r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = 1.0f / a.v[i];
  return r;
}

/// Reciprocal square-root estimate (frsqest+fi).
inline vec_float4 spu_rsqrte(const vec_float4& a) {
  charge_even(2);
  vec_float4 r;
  for (std::size_t i = 0; i < 4; ++i)
    r.v[i] = 1.0f / std::sqrt(a.v[i]);
  return r;
}

/// Full-precision division. On the SPU this is the standard estimate +
/// Newton-Raphson sequence (there is no divide instruction), whose result
/// is within 1 ulp of the correctly rounded quotient; the emulation
/// charges that sequence's cost but returns the correctly rounded IEEE
/// quotient, so kernels that mirror the reference's operation order are
/// bit-identical to it.
inline vec_float4 spu_div(const vec_float4& a, const vec_float4& b) {
  charge_even(5);  // frest/fi + multiply + nmsub + madd
  vec_float4 r;
  for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] / b.v[i];
  return r;
}

/// Full-precision square root via rsqrte + refinement.
inline vec_float4 spu_sqrt(const vec_float4& a) {
  vec_float4 y = spu_rsqrte(a);             // ~1/sqrt(a)
  vec_float4 x = spu_mul(a, y);             // ~sqrt(a)
  vec_float4 half = spu_splats<vec_float4>(0.5f);
  vec_float4 err = spu_nmsub(x, y, spu_splats<vec_float4>(1.0f));
  vec_float4 corr = spu_mul(spu_mul(x, half), err);
  return spu_add(x, corr);
}

// ---- shuffle / quadword (odd pipe) ----

/// Byte shuffle (shufb): pattern byte p selects byte p & 0x1F of the
/// 32-byte concatenation a:b, except the special patterns — 10xxxxxx
/// yields 0x00, 110xxxxx yields 0xFF and 111xxxxx yields 0x80.
inline vec_uchar16 spu_shuffle(const vec_uchar16& a, const vec_uchar16& b,
                               const vec_uchar16& pattern) {
  charge_odd();
  vec_uchar16 r;
  std::uint8_t special = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint8_t k = pattern.v[i] & 0x1F;
    r.v[i] = k < 16 ? a.v[k] : b.v[k - 16];
    special |= pattern.v[i];
  }
  // Kernels rarely use the constant patterns; patch them in a second
  // pass so the common case stays one select per byte on the host.
  if ((special & 0x80) != 0) {
    for (std::size_t i = 0; i < 16; ++i) {
      const std::uint8_t p = pattern.v[i];
      if ((p & 0x80) == 0) continue;
      r.v[i] = (p & 0x40) == 0 ? 0x00 : (p & 0x20) == 0 ? 0xFF : 0x80;
    }
  }
  return r;
}

template <typename T, std::size_t N>
Vec<T, N> spu_shuffle(const Vec<T, N>& a, const Vec<T, N>& b,
                      const vec_uchar16& pattern) {
  auto r = spu_shuffle(vec_cast<vec_uchar16>(a), vec_cast<vec_uchar16>(b),
                       pattern);
  return vec_cast<Vec<T, N>>(r);
}

/// Rotates the quadword left by `bytes` bytes (odd pipe).
template <typename T, std::size_t N>
Vec<T, N> spu_rlqwbyte(const Vec<T, N>& a, unsigned bytes) {
  charge_odd();
  auto in = vec_cast<vec_uchar16>(a);
  vec_uchar16 out;
  for (std::size_t i = 0; i < 16; ++i)
    out.v[i] = in.v[(i + bytes) % 16];
  return vec_cast<Vec<T, N>>(out);
}

}  // namespace cellport::spu
