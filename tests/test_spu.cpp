#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/machine.h"
#include "spu/spu.h"
#include "support/aligned.h"

namespace cellport::spu {
namespace {

using sim::Machine;
using sim::SpeContext;

// Functional semantics are testable outside an SPE thread (charging is a
// no-op there); the charging tests install a context explicitly.

TEST(SpuVec, SplatAndExtract) {
  auto v = vec_float4::splat(3.5f);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], 3.5f);
  auto u = spu_splats<vec_uchar16>(7);
  EXPECT_EQ(u[15], 7);
}

TEST(SpuVec, CastPreservesBits) {
  vec_uint4 u = spu_splats<vec_uint4>(0x3F800000u);
  auto f = vec_cast<vec_float4>(u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(f[static_cast<std::size_t>(i)], 1.0f);
  }
}

TEST(SpuArith, AddSubWrapAround) {
  auto a = spu_splats<vec_uchar16>(250);
  auto b = spu_splats<vec_uchar16>(10);
  auto s = spu_add(a, b);
  EXPECT_EQ(s[0], 4);  // modulo 256
  auto d = spu_sub(b, a);
  EXPECT_EQ(d[0], 16);  // wraps
}

TEST(SpuArith, FloatMaddChain) {
  auto a = spu_splats<vec_float4>(2.0f);
  auto b = spu_splats<vec_float4>(3.0f);
  auto c = spu_splats<vec_float4>(1.0f);
  auto r = spu_madd(a, b, c);
  EXPECT_EQ(r[0], 7.0f);
  EXPECT_EQ(spu_msub(a, b, c)[1], 5.0f);
  EXPECT_EQ(spu_nmsub(a, b, c)[2], -5.0f);
}

TEST(SpuArith, IntMul32) {
  vec_int4 a{{100000, -7, 3, 65536}};
  vec_int4 b{{3, 6, -9, 65536}};
  auto r = spu_mul(a, b);
  EXPECT_EQ(r[0], 300000);
  EXPECT_EQ(r[1], -42);
  EXPECT_EQ(r[2], -27);
  EXPECT_EQ(r[3], 0);  // 2^32 wraps to 0
}

TEST(SpuArith, MuleMulo) {
  vec_short8 a{{1, 2, 3, 4, 5, 6, 7, 8}};
  vec_short8 b{{10, 20, 30, 40, 50, 60, 70, 80}};
  auto e = spu_mule(a, b);
  auto o = spu_mulo(a, b);
  EXPECT_EQ(e[0], 10);
  EXPECT_EQ(e[1], 90);
  EXPECT_EQ(o[0], 40);
  EXPECT_EQ(o[3], 640);
}

TEST(SpuArith, MulhwModulo) {
  vec_ushort8 a = spu_splats<vec_ushort8>(300);
  vec_ushort8 b = spu_splats<vec_ushort8>(300);
  auto r = spu_mulhw(a, b);
  EXPECT_EQ(r[0], static_cast<std::uint16_t>(90000));  // mod 65536
}

TEST(SpuArith, AvgAndAbsd) {
  auto a = spu_splats<vec_uchar16>(10);
  auto b = spu_splats<vec_uchar16>(13);
  EXPECT_EQ(spu_avg(a, b)[0], 12);  // rounds up
  EXPECT_EQ(spu_absd(a, b)[0], 3);
  EXPECT_EQ(spu_absd(b, a)[0], 3);
}

TEST(SpuCompare, MasksAreAllOnesOrZero) {
  vec_int4 a{{1, 5, 5, 9}};
  vec_int4 b{{5, 5, 1, 1}};
  auto gt = spu_cmpgt(a, b);
  EXPECT_EQ(gt[0], 0);
  EXPECT_EQ(gt[1], 0);
  EXPECT_EQ(gt[2], -1);
  EXPECT_EQ(gt[3], -1);
  auto eq = spu_cmpeq(a, b);
  EXPECT_EQ(eq[1], -1);
  EXPECT_EQ(eq[0], 0);
}

TEST(SpuCompare, FloatMaskBits) {
  auto a = spu_splats<vec_float4>(2.0f);
  auto b = spu_splats<vec_float4>(1.0f);
  auto m = spu_cmpgt(a, b);
  auto bits = vec_cast<vec_uint4>(m);
  EXPECT_EQ(bits[0], ~0u);
}

TEST(SpuSelect, PicksByMask) {
  vec_int4 a{{1, 2, 3, 4}};
  vec_int4 b{{10, 20, 30, 40}};
  vec_int4 m{{0, -1, 0, -1}};
  auto r = spu_sel(a, b, m);
  EXPECT_EQ(r[0], 1);
  EXPECT_EQ(r[1], 20);
  EXPECT_EQ(r[2], 3);
  EXPECT_EQ(r[3], 40);
}

TEST(SpuShift, PerLane) {
  vec_ushort8 a = spu_splats<vec_ushort8>(0x0100);
  EXPECT_EQ(spu_sl(a, 2)[0], 0x0400);
  EXPECT_EQ(spu_sr(a, 4)[0], 0x0010);
}

TEST(SpuBytes, CntbPopcount) {
  vec_uchar16 a = spu_splats<vec_uchar16>(0xFF);
  EXPECT_EQ(spu_cntb(a)[0], 8);
  a = spu_splats<vec_uchar16>(0x11);
  EXPECT_EQ(spu_cntb(a)[3], 2);
}

TEST(SpuBytes, SumbGroupsOfFour) {
  vec_uchar16 a;
  for (int i = 0; i < 16; ++i) {
    a.v[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  }
  auto s = spu_sumb(a);
  EXPECT_EQ(s[0], 0u + 1 + 2 + 3);
  EXPECT_EQ(s[3], 12u + 13 + 14 + 15);
}

TEST(SpuConvert, RoundTripInts) {
  vec_int4 a{{-5, 0, 7, 1000000}};
  auto f = spu_convtf(a);
  EXPECT_EQ(f[0], -5.0f);
  EXPECT_EQ(f[3], 1000000.0f);
  auto back = spu_convts(f);
  EXPECT_EQ(back[0], -5);
  EXPECT_EQ(back[3], 1000000);
}

TEST(SpuConvert, TruncatesAndSaturates) {
  vec_float4 f{{1.9f, -1.9f, 3e9f, -3e9f}};
  auto i = spu_convts(f);
  EXPECT_EQ(i[0], 1);
  EXPECT_EQ(i[1], -1);
  EXPECT_EQ(i[2], std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(i[3], std::numeric_limits<std::int32_t>::min());
}

TEST(SpuMath, DivisionRefined) {
  vec_float4 a{{1.0f, 10.0f, -6.0f, 0.3f}};
  vec_float4 b{{3.0f, 4.0f, 2.0f, 0.1f}};
  auto q = spu_div(a, b);
  for (int i = 0; i < 4; ++i) {
    auto lane = static_cast<std::size_t>(i);
    EXPECT_NEAR(q[lane], a[lane] / b[lane],
                2e-6f * std::abs(a[lane] / b[lane]) + 1e-7f);
  }
}

TEST(SpuMath, SqrtRefined) {
  vec_float4 a{{4.0f, 2.0f, 100.0f, 0.25f}};
  auto s = spu_sqrt(a);
  for (int i = 0; i < 4; ++i) {
    auto lane = static_cast<std::size_t>(i);
    EXPECT_NEAR(s[lane], std::sqrt(a[lane]), 2e-6f * std::sqrt(a[lane]));
  }
}

TEST(SpuShuffle, BytePatterns) {
  vec_uchar16 a;
  vec_uchar16 b;
  for (int i = 0; i < 16; ++i) {
    a.v[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    b.v[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(100 + i);
  }
  vec_uchar16 p;
  for (int i = 0; i < 16; ++i) {
    p.v[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(i < 8 ? 15 - i : 16 + (i - 8));
  }
  auto r = spu_shuffle(a, b, p);
  EXPECT_EQ(r[0], 15);
  EXPECT_EQ(r[7], 8);
  EXPECT_EQ(r[8], 100);
  EXPECT_EQ(r[15], 107);
}

// shufb conformance: one row per pattern-byte class of the SPU ISA. The
// sources are a[i] = 0x10 + i and b[i] = 0x30 + i, so every selected
// byte is distinguishable from the three special constants.
struct ShufbCase {
  std::uint8_t pattern;
  std::uint8_t expect;
  const char* rule;
};
constexpr ShufbCase kShufbTable[] = {
    {0x00, 0x10, "0xxxxxxx, index 0 -> a[0]"},
    {0x0F, 0x1F, "index 15 -> a[15]"},
    {0x10, 0x30, "index 16 -> b[0]"},
    {0x1F, 0x3F, "index 31 -> b[15]"},
    {0x25, 0x15, "0x25: only the low 5 bits index -> a[5]"},
    {0x7E, 0x3E, "0x7E: low 5 bits 30 -> b[14]"},
    {0x80, 0x00, "10xxxxxx -> 0x00"},
    {0xBF, 0x00, "10111111 -> 0x00"},
    {0xC0, 0xFF, "110xxxxx -> 0xFF"},
    {0xDF, 0xFF, "11011111 -> 0xFF"},
    {0xE0, 0x80, "111xxxxx -> 0x80"},
    {0xFF, 0x80, "11111111 -> 0x80"},
};

TEST(SpuShuffle, ShufbConformanceTable) {
  vec_uchar16 a;
  vec_uchar16 b;
  for (std::size_t i = 0; i < 16; ++i) {
    a.v[i] = static_cast<std::uint8_t>(0x10 + i);
    b.v[i] = static_cast<std::uint8_t>(0x30 + i);
  }
  for (const ShufbCase& c : kShufbTable) {
    // The case's pattern byte in every lane but one, which keeps a plain
    // index so each row also checks the lanes stay independent.
    vec_uchar16 p = spu_splats<vec_uchar16>(c.pattern);
    p.v[3] = 0x02;
    const vec_uchar16 r = spu_shuffle(a, b, p);
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(r.v[i], i == 3 ? 0x12 : c.expect)
          << c.rule << " (lane " << i << ")";
    }
  }
}

// cflts (spu_convts) conformance: truncation toward zero, scale
// 2^scale, saturation at the int32 edges, and the exponent-255 patterns
// the host reads as NaN/Inf but SPU single precision reads as extended
// range — they saturate by sign.
struct ConvtsCase {
  std::uint32_t bits;
  unsigned scale;
  std::int32_t expect;
  const char* rule;
};
constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
constexpr ConvtsCase kConvtsTable[] = {
    {std::bit_cast<std::uint32_t>(0.0f), 0, 0, "zero"},
    {std::bit_cast<std::uint32_t>(1.9f), 0, 1, "truncates toward zero"},
    {std::bit_cast<std::uint32_t>(-1.9f), 0, -1, "truncates toward zero (-)"},
    {std::bit_cast<std::uint32_t>(0.75f), 1, 1, "scale 1: 1.5 -> 1"},
    {std::bit_cast<std::uint32_t>(-0.75f), 1, -1, "scale 1: -1.5 -> -1"},
    {std::bit_cast<std::uint32_t>(0.5f), 31, 1 << 30, "scale 31: 0.5 -> 2^30"},
    {std::bit_cast<std::uint32_t>(1.0f), 31, kMax, "scale 31: 2^31 saturates"},
    {std::bit_cast<std::uint32_t>(-1.0f), 31, kMin, "scale 31: -2^31 exact"},
    {std::bit_cast<std::uint32_t>(2147483520.0f), 0, 2147483520,
     "largest float below 2^31"},
    {std::bit_cast<std::uint32_t>(2147483648.0f), 0, kMax, "2^31 saturates"},
    {std::bit_cast<std::uint32_t>(-2147483520.0f), 0, -2147483520,
     "smallest float above -2^31"},
    {std::bit_cast<std::uint32_t>(-2147483648.0f), 0, kMin, "-2^31 exact"},
    {std::bit_cast<std::uint32_t>(-4294967296.0f), 0, kMin,
     "below -2^31 saturates"},
    {0x00000001u, 31, 0, "denormal -> 0"},
    {0x7F800000u, 0, kMax, "+Inf pattern saturates high"},
    {0xFF800000u, 0, kMin, "-Inf pattern saturates low"},
    {0x7FC00000u, 0, kMax, "+NaN pattern (quiet) saturates high"},
    {0xFFC00000u, 0, kMin, "-NaN pattern (quiet) saturates low"},
    {0x7F800001u, 0, kMax, "+NaN pattern (signaling) saturates high"},
    {0xFFFFFFFFu, 0, kMin, "-NaN pattern (all ones) saturates low"},
    {0x7FC00000u, 31, kMax, "+NaN pattern, scale 31"},
    {0xFFC00000u, 1, kMin, "-NaN pattern, scale 1"},
};

TEST(SpuConvert, ConvtsConformanceTable) {
  for (const ConvtsCase& c : kConvtsTable) {
    // The case's pattern in every lane but one, which keeps 0.25 so each
    // row also checks the lanes stay independent.
    vec_float4 a = spu_splats<vec_float4>(std::bit_cast<float>(c.bits));
    a.v[2] = 0.25f;
    const vec_int4 r = spu_convts(a, c.scale);
    for (std::size_t i = 0; i < 4; ++i) {
      const std::int32_t want =
          i == 2 ? static_cast<std::int32_t>(std::ldexp(0.25, c.scale))
                 : c.expect;
      EXPECT_EQ(r.v[i], want) << c.rule << " (lane " << i << ")";
    }
  }
}

TEST(SpuShuffle, RotateQuadword) {
  vec_uchar16 a;
  for (int i = 0; i < 16; ++i) {
    a.v[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  }
  auto r = spu_rlqwbyte(a, 3);
  EXPECT_EQ(r[0], 3);
  EXPECT_EQ(r[13], 0);
}

TEST(SpuInsertExtract, Lanes) {
  auto v = spu_splats<vec_int4>(0);
  v = spu_insert(42, v, 2);
  EXPECT_EQ(spu_extract(v, 2), 42);
  EXPECT_EQ(spu_extract(v, 1), 0);
  auto p = spu_promote<vec_float4>(1.5f, 0);
  EXPECT_EQ(p[0], 1.5f);
}

// ---- memory helpers ----

TEST(SpuMemory, AlignedVectorAccess) {
  AlignedBuffer<float> buf(8);
  for (int i = 0; i < 8; ++i) {
    buf[static_cast<std::size_t>(i)] = static_cast<float>(i);
  }
  auto v = vld<vec_float4>(buf.data());
  EXPECT_EQ(v[3], 3.0f);
  vst(buf.data() + 4, spu_splats<vec_float4>(9.0f));
  EXPECT_EQ(buf[5], 9.0f);
}

TEST(SpuMemory, UnalignedVectorLoadThrows) {
  AlignedBuffer<float> buf(8);
  EXPECT_THROW(vld<vec_float4>(buf.data() + 1), Error);
  EXPECT_THROW(vst(buf.data() + 1, vec_float4{}), Error);
}

// ---- charging ----

class SpuCharging : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = std::make_unique<Machine>(Machine::Config{1});
    sim::set_current_spe(&machine_->spe(0));
  }
  void TearDown() override { sim::set_current_spe(nullptr); }
  std::unique_ptr<Machine> machine_;
  SpeContext& spe() { return machine_->spe(0); }
};

TEST_F(SpuCharging, ArithmeticChargesEvenPipe) {
  auto a = spu_splats<vec_float4>(1.0f);  // 1 even
  auto b = spu_add(a, a);                 // 1 even
  (void)b;
  spe().flush_pipes();
  EXPECT_NEAR(spe().pipe_stats().even_cycles, 2.0, 1e-9);
  EXPECT_EQ(spe().pipe_stats().odd_cycles, 0.0);
}

TEST_F(SpuCharging, ShuffleChargesOddPipe) {
  vec_uchar16 a{};
  auto r = spu_shuffle(a, a, a);
  (void)r;
  spe().flush_pipes();
  EXPECT_NEAR(spe().pipe_stats().odd_cycles, 1.0, 1e-9);
}

TEST_F(SpuCharging, DoublePrecisionCosts3point5) {
  auto a = spu_splats<vec_double2>(1.0);  // splat: 1 even
  auto b = spu_mul(a, a);                 // 3.5 even
  (void)b;
  spe().flush_pipes();
  EXPECT_NEAR(spe().pipe_stats().even_cycles, 4.5, 1e-9);
}

TEST_F(SpuCharging, ScalarAccessPenalties) {
  AlignedBuffer<int> buf(4);
  int x = sload(buf.data());  // 2 odd
  sstore(buf.data(), x + 1);  // 1 even + 2 odd
  spe().flush_pipes();
  EXPECT_NEAR(spe().pipe_stats().odd_cycles, 4.0, 1e-9);
  EXPECT_NEAR(spe().pipe_stats().even_cycles, 1.0, 1e-9);
}

TEST_F(SpuCharging, BranchMispredictCosts18) {
  spu_branch(true, /*hint_correct=*/false);
  spe().flush_pipes();
  EXPECT_NEAR(spe().pipe_stats().odd_cycles,
              1.0 + sim::calib::kSpuBranchMissCycles, 1e-9);
}

TEST_F(SpuCharging, DualIssueBalancedCodeIsFree) {
  // 10 even + 10 odd ops take 10 cycles, not 20.
  for (int i = 0; i < 10; ++i) {
    charge_even(1);
    charge_odd(1);
  }
  double t0 = spe().now_ns();
  EXPECT_NEAR(t0, 10.0 / 3.2, 1e-9);
}

}  // namespace
}  // namespace cellport::spu
