// Differential tests pinning the SIMD batch truncation kernels (DESIGN.md
// §13) bit-for-bit against the scalar sf::fast_* kernels AND the BigFloat
// reference, on every dispatch path the build and the host CPU support:
//
//  * Exhaustive fp16-pattern sweeps plus >= 1M random fp64 inputs per format
//    through SpanOp::Round on portable/AVX2/AVX-512, with mismatches
//    reporting the element index, its lane index within the vector, and the
//    input/output bit patterns.
//  * Arithmetic span ops (add/sub/mul/div/neg/sqrt/fma) against the scalar
//    fast_* kernels over random operands, plus a BigFloat cross-check; for
//    exp_bits 10/11 formats every element against BigFloat, with operands
//    aimed at double-subnormal products and quotients and near-midpoint
//    quotients, out of place and in place, and the guarded Mul witness at
//    every lane position.
//  * man_bits 25..52 (the tie-breaking kernels): e5..e11 spans of operands
//    aimed at target midpoints, the subnormal range, the exp_bits == 11
//    fallback bound and the overflow threshold, every element against
//    BigFloat on every path, out of place and in place.
//  * Zero lanes: ±0 beside in-range lanes at every lane position (one zero,
//    half, all but one, all), as inputs and as exact zero results, for
//    e5..e11 x m1..24 (Round also m52) on every path, in place and out of
//    place, against scalar fast_* and BigFloat — the vectors that take the
//    kernel's common-case branch with zero lanes in them.
//  * Exact operands: span_exec with operands flagged as already rounded
//    into the format, bit for bit against the unflagged call, for every
//    mask, e5..e11 x m1..52, specials and e11 guard lanes, on every path.
//  * Lane movement (the compare / compress / merge / blend behind batch::Vec
//    masks, branches and selects) against scalar loops on every path,
//    lengths around the vector width, NaN and -0 lanes.
//  * Edge spans through all four Runtime batch entry points: lengths 0, 1,
//    and non-multiples of the lane width (tail handling), NaN / inf /
//    subnormal / signed-zero planted at every lane position — pinned for
//    results, counters, and trace events.
//  * Dispatch introspection: Runtime::simd_path(), force-path override wins,
//    forcing an unsupported path falls back cleanly, reset_all() restores
//    the CPUID/environment default; every span entry point the build
//    compiled starts on a 64-byte boundary.
//  * Counter conservation: ops counted == elements processed on every path
//    and lane width, per kind, for truncated and full-precision spans alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "runtime/runtime.hpp"
#include "softfloat/bigfloat.hpp"
#include "softfloat/fast_round.hpp"
#include "softfloat/fast_round_simd.hpp"
#include "tests/midpoint_products.hpp"
#include "trace/analysis.hpp"
#include "trunc/scope.hpp"

namespace raptor {
namespace {

using rt::OpKind;
using rt::Runtime;
using sf::simd::Path;
using sf::simd::SpanOp;

u64 bits_of(double d) { return std::bit_cast<u64>(d); }
double from_bits(u64 b) { return std::bit_cast<double>(b); }

std::vector<Path> available_paths() {
  std::vector<Path> v;
  for (const Path p : {Path::Portable, Path::Avx2, Path::Avx512}) {
    if (sf::simd::path_supported(p)) v.push_back(p);
  }
  return v;
}

constexpr std::size_t lane_width(Path p) {
  return p == Path::Avx512 ? 8 : p == Path::Avx2 ? 4 : 1;
}

/// Decode an IEEE binary16 bit pattern to double (exact).
double fp16_to_double(std::uint16_t h) {
  const int sign = (h >> 15) & 1;
  const int expf = (h >> 10) & 0x1F;
  const int frac = h & 0x3FF;
  double mag;
  if (expf == 0x1F) {
    mag = frac != 0 ? std::numeric_limits<double>::quiet_NaN()
                    : std::numeric_limits<double>::infinity();
  } else if (expf == 0) {
    mag = std::ldexp(frac, -24);
  } else {
    mag = std::ldexp(1024 + frac, expf - 25);
  }
  return sign != 0 ? -mag : mag;
}

/// Run `op` over the whole span on `path` and compare element-by-element
/// against the expected bits; failures carry the element index, the lane
/// index inside its vector, and the full bit patterns.
::testing::AssertionResult SpanMatches(Path path, SpanOp op, const std::vector<double>& a,
                                       const double* b, const double* c,
                                       const std::vector<u64>& expect, const sf::RoundSpec& spec,
                                       const char* what) {
  std::vector<double> out(a.size(), 0.0);
  sf::simd::span_exec(path, op, a.data(), b, c, out.data(), a.size(), spec);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits_of(out[i]) == expect[i]) continue;
    const std::size_t w = lane_width(path);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s path=%s elem=%zu lane=%zu/%zu a=0x%016llx got=0x%016llx want=0x%016llx",
                  what, sf::simd::path_name(path), i, i % w, w,
                  static_cast<unsigned long long>(bits_of(a[i])),
                  static_cast<unsigned long long>(bits_of(out[i])),
                  static_cast<unsigned long long>(expect[i]));
    return ::testing::AssertionFailure() << buf;
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Dispatch introspection
// ---------------------------------------------------------------------------

TEST(SimdDispatch, PathSupportAndResolution) {
  // The portable fallback exists in every build on every CPU.
  EXPECT_TRUE(sf::simd::path_supported(Path::Portable));
  EXPECT_TRUE(sf::simd::path_supported(sf::simd::best_path()));
  EXPECT_TRUE(sf::simd::path_supported(sf::simd::default_path()));

  // resolve_path: no request -> default; supported request wins; an
  // unsupported request falls back to the default instead of crashing later.
  EXPECT_EQ(sf::simd::resolve_path(std::nullopt), sf::simd::default_path());
  for (const Path p : {Path::Portable, Path::Avx2, Path::Avx512}) {
    const Path r = sf::simd::resolve_path(p);
    if (sf::simd::path_supported(p)) {
      EXPECT_EQ(r, p) << sf::simd::path_name(p);
    } else {
      EXPECT_EQ(r, sf::simd::default_path()) << sf::simd::path_name(p);
    }
  }
}

TEST(SimdDispatch, ParsePathSpellings) {
  EXPECT_EQ(sf::simd::parse_path("portable"), Path::Portable);
  EXPECT_EQ(sf::simd::parse_path("scalar"), Path::Portable);
  EXPECT_EQ(sf::simd::parse_path("AVX2"), Path::Avx2);
  EXPECT_EQ(sf::simd::parse_path("avx512"), Path::Avx512);
  EXPECT_EQ(sf::simd::parse_path("AVX-512"), Path::Avx512);
  EXPECT_EQ(sf::simd::parse_path("neon"), std::nullopt);
  EXPECT_EQ(sf::simd::parse_path(""), std::nullopt);
}

TEST(SimdDispatch, PathNamesRoundTrip) {
  for (const Path p : {Path::Portable, Path::Avx2, Path::Avx512}) {
    EXPECT_EQ(sf::simd::parse_path(sf::simd::path_name(p)), p);
  }
}

// The span kernels' translation units are built with -falign-functions=64
// and the scalar kernels' out-of-line fast_round is aligned to match, so
// each entry point starts on a 64-byte boundary in every binary: a per-path
// timing moves with the kernel's own code, not with the link layout.
TEST(SimdDispatch, SpanEntryPointsStartOn64ByteBoundaries) {
  const auto offset = [](auto* fn) { return reinterpret_cast<std::uintptr_t>(fn) % 64; };
  EXPECT_EQ(offset(&sf::simd::span_exec), 0u);
  EXPECT_EQ(offset(static_cast<double (*)(double, double, const sf::RoundSpec&)>(&sf::fast_round)),
            0u);
#ifdef RAPTOR_SIMD_HAVE_AVX2
  EXPECT_EQ(offset(&sf::simd::detail::span_avx2), 0u);
#endif
#ifdef RAPTOR_SIMD_HAVE_AVX512
  EXPECT_EQ(offset(&sf::simd::detail::span_avx512), 0u);
#endif
}

// ---------------------------------------------------------------------------
// SpanOp::Round parity: exhaustive fp16 sweep + 1M random inputs per format
// ---------------------------------------------------------------------------

const std::vector<sf::Format> kRoundFormats = {
    {5, 10}, {8, 7}, {4, 3}, {8, 12}, {8, 23}, {9, 24}, {11, 4}, {10, 30}, {11, 52},
};

TEST(SimdRoundParity, ExhaustiveFp16PatternsEveryPath) {
  std::vector<double> in(65536);
  for (std::uint32_t h = 0; h <= 0xFFFF; ++h) {
    in[h] = fp16_to_double(static_cast<std::uint16_t>(h));
  }
  for (const sf::Format& fmt : kRoundFormats) {
    const sf::RoundSpec spec(fmt);
    std::vector<u64> expect(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      const double ref = sf::fast_round(in[i], spec);
      // The scalar kernel is itself pinned against BigFloat; re-assert here
      // so a parity failure can't hide behind a stale scalar reference.
      ASSERT_EQ(bits_of(ref), bits_of(sf::quantize(in[i], fmt)))
          << "scalar/BigFloat disagree: fmt " << fmt.to_string() << " input 0x" << std::hex
          << bits_of(in[i]);
      expect[i] = bits_of(ref);
    }
    for (const Path p : available_paths()) {
      ASSERT_TRUE(SpanMatches(p, SpanOp::Round, in, nullptr, nullptr, expect, spec, "fp16"))
          << "fmt " << fmt.to_string();
    }
  }
}

TEST(SimdRoundParity, MillionRandomInputsPerFormatEveryPath) {
  constexpr std::size_t kN = 1u << 20;  // >= 1M per format per path
  std::vector<double> in(kN);
  std::vector<u64> expect(kN);
  for (std::size_t fi = 0; fi < kRoundFormats.size(); ++fi) {
    const sf::Format& fmt = kRoundFormats[fi];
    const sf::RoundSpec spec(fmt);
    std::mt19937_64 rng(0x51D0 + fi);
    std::uniform_int_distribution<int> exp_dist(fmt.emin_subnormal() - 3, fmt.emax() + 3);
    for (std::size_t i = 0; i < kN; ++i) {
      if ((i & 1) != 0) {
        in[i] = from_bits(rng());  // arbitrary patterns: NaN, inf, extremes
      } else {
        // Exponent-targeted: normal band, underflow fringe, overflow edge.
        const int biased = std::clamp(exp_dist(rng) + 1023, 0, 2046);
        in[i] = from_bits(((rng() & 1) << 63) | (static_cast<u64>(biased) << 52) |
                          (rng() & ((u64{1} << 52) - 1)));
      }
      expect[i] = bits_of(sf::fast_round(in[i], spec));
    }
    // BigFloat cross-check on a deterministic subsample (the full 1M-vs-
    // BigFloat sweep lives in test_fast_round; here it guards the reference).
    for (std::size_t i = 0; i < kN; i += 97) {
      ASSERT_EQ(expect[i], bits_of(sf::quantize(in[i], fmt)))
          << "scalar/BigFloat disagree: fmt " << fmt.to_string() << " input 0x" << std::hex
          << bits_of(in[i]);
    }
    for (const Path p : available_paths()) {
      ASSERT_TRUE(SpanMatches(p, SpanOp::Round, in, nullptr, nullptr, expect, spec, "rand"))
          << "fmt " << fmt.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// Arithmetic span ops vs scalar fast_* and BigFloat
// ---------------------------------------------------------------------------

const std::vector<sf::Format> kOpFormats = {{5, 10}, {8, 7}, {4, 3}, {8, 12}, {9, 24}, {2, 1}};

TEST(SimdOpParity, ArithmeticSpansEveryPath) {
  constexpr std::size_t kN = 1u << 16;
  std::vector<double> a(kN), b(kN), c(kN);
  std::vector<u64> expect(kN);
  for (std::size_t fi = 0; fi < kOpFormats.size(); ++fi) {
    const sf::Format& fmt = kOpFormats[fi];
    ASSERT_TRUE(sf::fast_round_supports(fmt));
    ASSERT_TRUE(sf::fast_fma_supports(fmt));
    const sf::RoundSpec spec(fmt);
    std::mt19937_64 rng(0x0BAD + fi);
    std::uniform_int_distribution<int> exp_dist(fmt.emin_subnormal() - 2, fmt.emax() + 2);
    const auto draw = [&] {
      if ((rng() & 7) == 0) return from_bits(rng());  // NaN/inf/raw patterns
      const int biased = std::clamp(exp_dist(rng) + 1023, 0, 2046);
      return from_bits(((rng() & 1) << 63) | (static_cast<u64>(biased) << 52) |
                       (rng() & ((u64{1} << 52) - 1)));
    };
    for (std::size_t i = 0; i < kN; ++i) {
      a[i] = draw();
      b[i] = draw();
      c[i] = draw();
    }
    struct Case {
      SpanOp op;
      const char* name;
    };
    for (const Case cs : {Case{SpanOp::Add, "add"}, Case{SpanOp::Sub, "sub"},
                          Case{SpanOp::Mul, "mul"}, Case{SpanOp::Div, "div"},
                          Case{SpanOp::Neg, "neg"}, Case{SpanOp::Sqrt, "sqrt"},
                          Case{SpanOp::Fma, "fma"}}) {
      for (std::size_t i = 0; i < kN; ++i) {
        switch (cs.op) {
          case SpanOp::Add: expect[i] = bits_of(sf::fast_add(a[i], b[i], spec)); break;
          case SpanOp::Sub: expect[i] = bits_of(sf::fast_sub(a[i], b[i], spec)); break;
          case SpanOp::Mul: expect[i] = bits_of(sf::fast_mul(a[i], b[i], spec)); break;
          case SpanOp::Div: expect[i] = bits_of(sf::fast_div(a[i], b[i], spec)); break;
          case SpanOp::Neg: expect[i] = bits_of(sf::fast_neg(a[i], spec)); break;
          case SpanOp::Sqrt: expect[i] = bits_of(sf::fast_sqrt(a[i], spec)); break;
          default: expect[i] = bits_of(sf::fast_fma(a[i], b[i], c[i], spec)); break;
        }
      }
      // BigFloat cross-check on a subsample (full sweeps live in
      // test_fast_round's op differentials).
      for (std::size_t i = 0; i < kN; i += 211) {
        u64 ref;
        switch (cs.op) {
          case SpanOp::Add: ref = bits_of(sf::trunc_add(a[i], b[i], fmt)); break;
          case SpanOp::Sub: ref = bits_of(sf::trunc_sub(a[i], b[i], fmt)); break;
          case SpanOp::Mul: ref = bits_of(sf::trunc_mul(a[i], b[i], fmt)); break;
          case SpanOp::Div: ref = bits_of(sf::trunc_div(a[i], b[i], fmt)); break;
          // No trunc_neg in the BigFloat API: negation is round, sign flip,
          // re-round (the re-round only canonicalizes NaN), same as fast_neg.
          case SpanOp::Neg: ref = bits_of(sf::quantize(-sf::quantize(a[i], fmt), fmt)); break;
          case SpanOp::Sqrt: ref = bits_of(sf::trunc_sqrt(a[i], fmt)); break;
          default: ref = bits_of(sf::trunc_fma(a[i], b[i], c[i], fmt)); break;
        }
        ASSERT_EQ(expect[i], ref) << "scalar/BigFloat disagree: " << cs.name << " fmt "
                                  << fmt.to_string() << " i=" << i;
      }
      for (const Path p : available_paths()) {
        ASSERT_TRUE(SpanMatches(p, cs.op, a, b.data(), c.data(), expect, spec, cs.name))
            << "fmt " << fmt.to_string();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// exp_bits 10/11: double-subnormal results, the guarded Mul lanes
// ---------------------------------------------------------------------------

/// BigFloat op-mode reference for the two-operand and unary span ops.
double bigfloat_ref(SpanOp op, double a, double b, const sf::Format& fmt) {
  switch (op) {
    case SpanOp::Add: return sf::trunc_add(a, b, fmt);
    case SpanOp::Sub: return sf::trunc_sub(a, b, fmt);
    case SpanOp::Mul: return sf::trunc_mul(a, b, fmt);
    case SpanOp::Div: return sf::trunc_div(a, b, fmt);
    case SpanOp::Neg: return sf::quantize(-sf::quantize(a, fmt), fmt);
    default: return sf::trunc_sqrt(a, fmt);
  }
}

/// span_exec on `path` into a fresh buffer, in place over `a` and in place
/// over `b`: all three must give `expect`.
::testing::AssertionResult SpanMatchesInPlace(Path path, SpanOp op, const std::vector<double>& a,
                                              const std::vector<double>& b,
                                              const std::vector<u64>& expect,
                                              const sf::RoundSpec& spec, const char* what) {
  if (auto r = SpanMatches(path, op, a, b.data(), nullptr, expect, spec, what); !r) return r;
  for (const bool over_a : {true, false}) {
    if (!over_a && op != SpanOp::Add && op != SpanOp::Sub && op != SpanOp::Mul &&
        op != SpanOp::Div) {
      continue;
    }
    std::vector<double> x = a, y = b;
    double* out = over_a ? x.data() : y.data();
    sf::simd::span_exec(path, op, x.data(), y.data(), nullptr, out, a.size(), spec);
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (bits_of(out[i]) == expect[i]) continue;
      return ::testing::AssertionFailure()
             << what << " in place over " << (over_a ? "a" : "b") << " path "
             << sf::simd::path_name(path) << " elem " << i << " lane "
             << i % lane_width(path) << " a=0x" << std::hex << bits_of(a[i]) << " b=0x"
             << bits_of(b[i]) << " got 0x" << bits_of(out[i]) << " want 0x" << expect[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SimdOpParity, WideExponentSpansMatchBigFloatEveryPath) {
  constexpr std::size_t kN = (1u << 14) + 5;  // full vectors plus a tail on every path
  for (const sf::Format fmt :
       {sf::Format{10, 1}, sf::Format{10, 24}, sf::Format{11, 4}, sf::Format{11, 12},
        sf::Format{11, 24}}) {
    ASSERT_TRUE(sf::fast_round_supports(fmt));
    const sf::RoundSpec spec(fmt);
    std::mt19937_64 rng(0x5B11 + static_cast<u64>(fmt.exp_bits * 64 + fmt.man_bits));
    const auto value = [&](int e) {
      e = std::clamp(e, fmt.emin_subnormal(), fmt.emax());
      const double sig = 1.0 + static_cast<double>(rng() >> 12) * 0x1p-52;
      return sf::quantize(std::ldexp((rng() & 1) != 0 ? -sig : sig, e), fmt);
    };
    std::vector<double> a(kN), b(kN);
    // Products next to a subnormal target midpoint (the guarded Mul lanes),
    // where the format admits them; random targeted operands elsewhere.
    const auto near_mid = fmt.exp_bits == 11 && fmt.man_bits >= 18
                              ? testing_support::midpoint_products(fmt, kN / 4, rng())
                              : std::vector<std::pair<double, double>>{};
    for (std::size_t i = 0; i < kN; ++i) {
      if (i % 4 == 3 && i / 4 < near_mid.size()) {
        std::tie(a[i], b[i]) = near_mid[i / 4];
        continue;
      }
      const int pe = -1080 + static_cast<int>(rng() % 63);  // aim at double subnormals
      const int ea = -40 + static_cast<int>(rng() % 80);
      switch (i % 3) {
        case 0:  // product in double's subnormal range
          a[i] = value(ea);
          b[i] = value(pe - ea);
          break;
        case 1:  // quotient in double's subnormal range
          a[i] = value(pe + ea);
          b[i] = value(ea);
          break;
        default:  // quotient next to a target rounding midpoint
          b[i] = value(ea);
          a[i] = sf::quantize(std::ldexp(2.0 * static_cast<double>(rng() % 4096) + 1.0,
                                         std::max(pe - 12, fmt.emin_subnormal()) - 1) *
                                  b[i],
                              fmt);
          break;
      }
    }
    for (const SpanOp op : {SpanOp::Add, SpanOp::Sub, SpanOp::Mul, SpanOp::Div, SpanOp::Neg,
                            SpanOp::Sqrt}) {
      std::vector<u64> expect(kN);
      for (std::size_t i = 0; i < kN; ++i) expect[i] = bits_of(bigfloat_ref(op, a[i], b[i], fmt));
      for (const Path p : available_paths()) {
        ASSERT_TRUE(SpanMatchesInPlace(p, op, a, b, expect, spec, "wide-exp"))
            << "fmt " << fmt.to_string();
      }
    }
  }
}

TEST(SimdOpParity, TieBreakingSpansMatchBigFloatEveryPath) {
  // man_bits 25..52 at exp_bits 5..11, the kernels that break target ties
  // by the sign of each op's exact error: operands aimed at midpoints (sums,
  // products, quotients, roots), at the subnormal range, at the 2^-968
  // fallback bound and at the overflow threshold, plus random ones, in
  // spans of full vectors and a tail on every path, out of place and in
  // place, every element against BigFloat.
  constexpr std::size_t kN = 1029;
  struct Case {
    SpanOp op;
    char kind;  // tie_operands op
  };
  for (int e = 5; e <= 11; ++e) {
    for (int m = 25; m <= 52; ++m) {
      const sf::Format fmt{e, m};
      ASSERT_TRUE(sf::fast_round_supports(fmt));
      const sf::RoundSpec spec(fmt);
      for (const Case cs : {Case{SpanOp::Add, '+'}, Case{SpanOp::Sub, '-'},
                            Case{SpanOp::Mul, '*'}, Case{SpanOp::Div, '/'},
                            Case{SpanOp::Sqrt, 'r'}, Case{SpanOp::Neg, '+'}}) {
        const auto pairs = testing_support::tie_operands(
            fmt, cs.kind, kN, static_cast<u64>(e * 4096 + m * 16) + static_cast<u64>(cs.op));
        std::vector<double> a(pairs.size()), b(pairs.size());
        std::vector<u64> expect(pairs.size());
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          std::tie(a[i], b[i]) = pairs[i];
          expect[i] = bits_of(bigfloat_ref(cs.op, a[i], b[i], fmt));
        }
        for (const Path p : available_paths()) {
          ASSERT_TRUE(SpanMatchesInPlace(p, cs.op, a, b, expect, spec, "tie"))
              << "fmt " << fmt.to_string();
        }
      }
    }
  }
}

TEST(SimdOpParity, MulSubnormalProductWitnessEveryLane) {
  // The Format{11,24} product whose hardware value double-rounds onto a
  // target midpoint, planted at every lane position of full vectors and of
  // the tail, on every path.
  const sf::Format fmt{11, 24};
  const sf::RoundSpec spec(fmt);
  const double wa = std::ldexp(16777603.0, -524);
  const double wb = std::ldexp(27268395.0, -552);
  const u64 want = bits_of(0x0.06805fp-1022);
  ASSERT_EQ(bits_of(sf::trunc_mul(wa, wb, fmt)), want);
  for (const Path p : available_paths()) {
    const std::size_t n = 2 * lane_width(p) + 3;
    for (std::size_t pos = 0; pos < n; ++pos) {
      std::vector<double> a(n, 1.5), b(n, 0.75);
      a[pos] = wa;
      b[pos] = wb;
      std::vector<u64> expect(n, bits_of(1.125));
      expect[pos] = want;
      ASSERT_TRUE(SpanMatchesInPlace(p, SpanOp::Mul, a, b, expect, spec, "witness"))
          << "pos " << pos;
    }
  }
}

// ---------------------------------------------------------------------------
// Edge spans: lengths around the lane width, specials at every position
// ---------------------------------------------------------------------------

const std::vector<double> kSpecials = {
    0.0,
    -0.0,
    std::numeric_limits<double>::quiet_NaN(),
    -std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    0x1p-1074,           // smallest double subnormal
    -0x1p-1074,
    0x1p-1030,           // double subnormal range for wide-exponent formats
    0x1.fffffffffffffp1023,
    1e300,
    -1e300,
};

TEST(SimdSpanEdges, TailLengthsAndSpecialLanePositions) {
  const sf::Format fmt{8, 12};
  const sf::RoundSpec spec(fmt);
  std::mt19937_64 rng(0xED6E);
  for (const Path p : available_paths()) {
    const std::size_t w = lane_width(p);
    // Lengths straddling 0, 1, the lane width, and non-multiples (tails).
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3}, w - 1, w, w + 1,
          2 * w + 3, std::size_t{37}}) {
      std::vector<double> a(n), b(n), c(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = std::ldexp(1.0 + static_cast<double>(rng() % 4096) / 4096.0,
                          static_cast<int>(rng() % 40) - 20);
        b[i] = std::ldexp(1.0 + static_cast<double>(rng() % 4096) / 4096.0,
                          static_cast<int>(rng() % 40) - 20);
        c[i] = a[i] - b[i];
      }
      // Plant every special at every position (one at a time, so each lane
      // of each vector sees each class at least once across the sweep).
      for (std::size_t pos = 0; pos < std::max<std::size_t>(n, 1); ++pos) {
        if (n != 0) a[pos % n] = kSpecials[(pos + n) % kSpecials.size()];
        std::vector<u64> expect(n);
        for (const SpanOp op : {SpanOp::Round, SpanOp::Add, SpanOp::Mul, SpanOp::Div,
                                SpanOp::Neg, SpanOp::Sqrt, SpanOp::Fma}) {
          for (std::size_t i = 0; i < n; ++i) {
            switch (op) {
              case SpanOp::Round: expect[i] = bits_of(sf::fast_round(a[i], spec)); break;
              case SpanOp::Add: expect[i] = bits_of(sf::fast_add(a[i], b[i], spec)); break;
              case SpanOp::Mul: expect[i] = bits_of(sf::fast_mul(a[i], b[i], spec)); break;
              case SpanOp::Div: expect[i] = bits_of(sf::fast_div(a[i], b[i], spec)); break;
              case SpanOp::Neg: expect[i] = bits_of(sf::fast_neg(a[i], spec)); break;
              case SpanOp::Sqrt: expect[i] = bits_of(sf::fast_sqrt(a[i], spec)); break;
              default: expect[i] = bits_of(sf::fast_fma(a[i], b[i], c[i], spec)); break;
            }
          }
          ASSERT_TRUE(SpanMatches(p, op, a, b.data(), c.data(), expect, spec, "edge"))
              << "n=" << n << " special_pos=" << (n ? pos % n : 0);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Zero lanes on the common branch: ±0 beside in-range lanes
// ---------------------------------------------------------------------------

/// Which lanes of an 8-lane pattern carry a zero: one zero at every
/// position, all but one at every position, half (even, odd, low, high),
/// all, and none. An 8-lane pattern is one AVX-512 vector and two AVX2
/// vectors, so every lane position of both widths sees every pattern.
std::vector<std::vector<bool>> zero_lane_patterns() {
  constexpr std::size_t w = 8;
  std::vector<std::vector<bool>> out;
  for (std::size_t p = 0; p < w; ++p) {
    std::vector<bool> one(w, false), all_but(w, true);
    one[p] = true;
    all_but[p] = false;
    out.push_back(one);
    out.push_back(all_but);
  }
  std::vector<bool> even(w), odd(w), low(w), high(w);
  for (std::size_t i = 0; i < w; ++i) {
    even[i] = i % 2 == 0;
    odd[i] = i % 2 == 1;
    low[i] = i < w / 2;
    high[i] = i >= w / 2;
  }
  for (const auto& z : {even, odd, low, high, std::vector<bool>(w, true),
                        std::vector<bool>(w, false)}) {
    out.push_back(z);
  }
  out.push_back({true, false, true, true, false});  // a scalar tail
  return out;
}

/// How the zero lanes of a span come about.
enum class ZeroKind {
  InA,     ///< a = ±0
  InB,     ///< b = ±0 (and c = ±0 for fma)
  Result,  ///< an exact zero result: a + -a, a - a, ±0 * ±v, ±0 / ±v, a*2^k - a*2^k
};

TEST(SimdZeroLanes, SignedZerosBesideInRangeLanesEveryFormatEveryPath) {
  const auto patterns = zero_lane_patterns();
  std::vector<bool> zero;
  for (const auto& p : patterns) zero.insert(zero.end(), p.begin(), p.end());
  const std::size_t n = zero.size();
  std::vector<sf::Format> formats;
  for (int e = 5; e <= 11; ++e) {
    for (int m = 1; m <= 24; ++m) formats.push_back({e, m});
    formats.push_back({e, 52});  // Round only
  }
  for (const sf::Format& fmt : formats) {
    const sf::RoundSpec spec(fmt);
    const bool round_only = fmt.man_bits > 24;
    std::mt19937_64 rng(0x2E50 + static_cast<u64>(fmt.exp_bits * 64 + fmt.man_bits));
    // In-range lanes: format values with exponents in [-3, 3], either sign.
    const auto value = [&] {
      const double sig = 1.0 + static_cast<double>(rng() >> 12) * 0x1p-52;
      const double v = std::ldexp(sig, static_cast<int>(rng() % 7) - 3);
      return sf::quantize((rng() & 1) != 0 ? -v : v, fmt);
    };
    const auto signed_zero = [](std::size_t i) { return i % 3 == 1 ? -0.0 : 0.0; };
    for (const ZeroKind kind : {ZeroKind::InA, ZeroKind::InB, ZeroKind::Result}) {
      for (const SpanOp op : {SpanOp::Round, SpanOp::Neg, SpanOp::Sqrt, SpanOp::Add, SpanOp::Sub,
                              SpanOp::Mul, SpanOp::Div, SpanOp::Fma}) {
        const bool binary = op != SpanOp::Round && op != SpanOp::Neg && op != SpanOp::Sqrt;
        if (round_only && op != SpanOp::Round) continue;
        if (!binary && kind != ZeroKind::InA) continue;
        if (op == SpanOp::Fma && !sf::fast_fma_supports(fmt)) continue;
        std::vector<double> a(n), b(n), c(n);
        for (std::size_t i = 0; i < n; ++i) {
          a[i] = value();
          b[i] = value();
          c[i] = value();
          if (op == SpanOp::Sqrt) a[i] = std::fabs(a[i]);
          if (!zero[i]) continue;
          switch (kind) {
            case ZeroKind::InA: a[i] = signed_zero(i); break;
            case ZeroKind::InB:
              b[i] = signed_zero(i);
              c[i] = signed_zero(i + 1);
              break;
            case ZeroKind::Result:
              switch (op) {
                case SpanOp::Add: b[i] = -a[i]; break;
                case SpanOp::Sub: b[i] = a[i]; break;
                case SpanOp::Fma:
                  b[i] = std::ldexp((rng() & 1) != 0 ? -1.0 : 1.0, static_cast<int>(rng() % 5) - 2);
                  c[i] = -(a[i] * b[i]);
                  break;
                default: a[i] = signed_zero(i); break;  // ±0 * ±v, ±0 / ±v
              }
              break;
          }
        }
        std::vector<u64> expect(n);
        for (std::size_t i = 0; i < n; ++i) {
          double fast = 0.0, big = 0.0;
          switch (op) {
            case SpanOp::Round:
              fast = sf::fast_round(a[i], spec);
              big = sf::quantize(a[i], fmt);
              break;
            case SpanOp::Fma:
              fast = sf::fast_fma(a[i], b[i], c[i], spec);
              big = sf::trunc_fma(a[i], b[i], c[i], fmt);
              break;
            default:
              fast = op == SpanOp::Add   ? sf::fast_add(a[i], b[i], spec)
                     : op == SpanOp::Sub ? sf::fast_sub(a[i], b[i], spec)
                     : op == SpanOp::Mul ? sf::fast_mul(a[i], b[i], spec)
                     : op == SpanOp::Div ? sf::fast_div(a[i], b[i], spec)
                     : op == SpanOp::Neg ? sf::fast_neg(a[i], spec)
                                         : sf::fast_sqrt(a[i], spec);
              big = bigfloat_ref(op, a[i], b[i], fmt);
              break;
          }
          ASSERT_EQ(bits_of(fast), bits_of(big))
              << "scalar/BigFloat disagree: fmt " << fmt.to_string() << " elem " << i;
          if (zero[i] && (kind == ZeroKind::Result || !binary)) {
            ASSERT_EQ(fast, 0.0) << "fmt " << fmt.to_string() << " elem " << i;
          }
          expect[i] = bits_of(fast);
        }
        for (const Path p : available_paths()) {
          // Out of place, then in place over each operand the op reads.
          ASSERT_TRUE(SpanMatches(p, op, a, b.data(), c.data(), expect, spec, "zero-lanes"))
              << "fmt " << fmt.to_string() << " kind " << static_cast<int>(kind);
          const int operands = op == SpanOp::Fma ? 3 : binary ? 2 : 1;
          for (int over = 0; over < operands; ++over) {
            std::vector<double> x = a, y = b, z = c;
            double* out = over == 0 ? x.data() : over == 1 ? y.data() : z.data();
            sf::simd::span_exec(p, op, x.data(), y.data(), z.data(), out, n, spec);
            for (std::size_t i = 0; i < n; ++i) {
              ASSERT_EQ(bits_of(out[i]), expect[i])
                  << "zero-lanes in place over operand " << over << " path "
                  << sf::simd::path_name(p) << " fmt " << fmt.to_string() << " kind "
                  << static_cast<int>(kind) << " elem " << i << " lane " << i % lane_width(p);
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Exact operands: the mask skips only rounds that are the identity
// ---------------------------------------------------------------------------

/// n operands already rounded into `fmt`: random values over its whole
/// range (subnormals included) mixed with ±0, ±inf, the canonical qNaN,
/// ±max finite and the extreme subnormals — and at exp_bits 11, values
/// near 2^-520 and 2^-1000, whose products fall below double's normal
/// range and whose quotients and roots start below 2^-968 (the kernels'
/// BigFloat guard lanes).
std::vector<double> exact_operands(const sf::Format& fmt, std::size_t n, std::mt19937_64& rng) {
  const sf::RoundSpec spec(fmt);
  const double inf = std::numeric_limits<double>::infinity();
  const double max_finite = std::ldexp(2.0 - std::ldexp(1.0, -fmt.man_bits), fmt.emax());
  const double min_sub = std::ldexp(1.0, fmt.emin_subnormal());
  const double max_sub = std::ldexp(1.0, fmt.emin()) - min_sub;
  const std::vector<double> specials = {0.0,     -0.0,     inf,     -inf,         std::nan(""),
                                        max_finite, -max_finite, min_sub, -min_sub, 3 * min_sub,
                                        max_sub, -max_sub};
  const auto mantissa = [&] { return 1.0 + static_cast<double>(rng() >> 12) * 0x1p-52; };
  std::vector<double> v(n);
  for (double& x : v) {
    const u64 pick = rng() % 8;
    if (pick < 2) {
      x = specials[rng() % specials.size()];
    } else if (pick < 4 && fmt.exp_bits == 11) {
      x = std::ldexp(mantissa(), pick == 2 ? -480 - static_cast<int>(rng() % 80)
                                           : -960 - static_cast<int>(rng() % 60));
    } else {
      const int span = fmt.emax() - fmt.emin_subnormal() + 1;
      x = std::ldexp(mantissa(), fmt.emin_subnormal() + static_cast<int>(rng() % span));
    }
    if ((rng() & 1) != 0) x = -x;
    x = sf::fast_round(x, spec);
  }
  return v;
}

TEST(SimdExactOperands, MaskedSpansMatchUnmaskedEveryFormatEveryPath) {
  // span_exec with an operand flagged exact against the same call without
  // the flag, bit for bit: the flag may only skip rounds that change
  // nothing. Every path, the six masked ops, each mask, e5..e11 at m
  // spanning both kernel families, lengths 1, width +- 1 and 2016, out of
  // place and in place.
  std::mt19937_64 rng(0xE7AC7);
  constexpr std::size_t kLong = 2016;
  for (int e = 5; e <= 11; ++e) {
    for (const int m : {1, 10, 12, 24, 25, 44, 52}) {
      const sf::Format fmt{e, m};
      const sf::RoundSpec spec(fmt);
      const std::vector<double> a = exact_operands(fmt, kLong, rng);
      const std::vector<double> b = exact_operands(fmt, kLong, rng);
      // The premise of the mask: each operand is a fixed point of the round.
      for (std::size_t i = 0; i < kLong; ++i) {
        ASSERT_EQ(bits_of(sf::fast_round(a[i], spec)), bits_of(a[i])) << fmt.to_string();
        ASSERT_EQ(bits_of(sf::fast_round(b[i], spec)), bits_of(b[i])) << fmt.to_string();
      }
      for (const Path p : available_paths()) {
        const std::size_t w = lane_width(p);
        for (const std::size_t n : {std::size_t{1}, w - 1, w, w + 1, kLong}) {
          if (n == 0) continue;
          for (const SpanOp op : {SpanOp::Add, SpanOp::Sub, SpanOp::Mul, SpanOp::Div,
                                  SpanOp::Neg, SpanOp::Sqrt}) {
            const bool unary = op == SpanOp::Neg || op == SpanOp::Sqrt;
            for (const unsigned mask : {1U, 2U, 3U}) {
              if (unary && mask != 1U) continue;
              for (const bool in_place : {false, true}) {
                std::vector<double> want(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n));
                std::vector<double> got = want;
                sf::simd::span_exec(p, op, in_place ? want.data() : a.data(), b.data(), nullptr,
                                    want.data(), n, spec);
                sf::simd::span_exec(p, op, in_place ? got.data() : a.data(), b.data(), nullptr,
                                    got.data(), n, spec, mask);
                for (std::size_t i = 0; i < n; ++i) {
                  ASSERT_EQ(bits_of(got[i]), bits_of(want[i]))
                      << sf::simd::path_name(p) << " " << fmt.to_string() << " op "
                      << static_cast<int>(op) << " mask " << mask << " n " << n
                      << (in_place ? " in place" : "") << " elem " << i << " a=" << a[i]
                      << " b=" << b[i];
                }
              }
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lane movement: compare, compress, merge on every path
// ---------------------------------------------------------------------------

TEST(SimdLaneMovement, CompareCompressMergeMatchScalarEveryPath) {
  std::mt19937_64 rng(0x1A7E);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{8},
                              std::size_t{9}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{200}}) {
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<double>(static_cast<int>(rng() % 7) - 3);
      b[i] = static_cast<double>(static_cast<int>(rng() % 7) - 3);
      if (rng() % 9 == 0) a[i] = (rng() & 1) != 0 ? nan : -0.0;
    }
    for (const sf::simd::LaneCmp op :
         {sf::simd::LaneCmp::Le, sf::simd::LaneCmp::Ge, sf::simd::LaneCmp::Lt}) {
      std::vector<bool> want(n);
      for (std::size_t i = 0; i < n; ++i) {
        want[i] = op == sf::simd::LaneCmp::Le   ? a[i] <= b[i]
                  : op == sf::simd::LaneCmp::Ge ? a[i] >= b[i]
                                                : a[i] < b[i];
      }
      for (const Path p : available_paths()) {
        // Poisoned words: compare must write every word it owns.
        std::vector<u64> mask((n + 63) / 64, ~u64{0});
        const std::size_t set = sf::simd::lanes_compare(p, op, a.data(), b.data(), n, mask.data());
        ASSERT_EQ(set, static_cast<std::size_t>(std::count(want.begin(), want.end(), true)))
            << sf::simd::path_name(p) << " n=" << n;
        for (std::size_t i = 0; i < mask.size() * 64; ++i) {
          const bool bit = ((mask[i / 64] >> (i % 64)) & 1) != 0;
          ASSERT_EQ(bit, i < n && want[i]) << sf::simd::path_name(p) << " n=" << n << " i=" << i;
        }
        std::vector<double> on(n + 1, 42.0), off(n + 1, 42.0), merged(n, 42.0);
        const std::size_t n_on =
            sf::simd::lanes_compress(p, a.data(), mask.data(), true, n, on.data());
        const std::size_t n_off =
            sf::simd::lanes_compress(p, a.data(), mask.data(), false, n, off.data());
        ASSERT_EQ(n_on + n_off, n);
        std::size_t k_on = 0, k_off = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const double got = want[i] ? on[k_on++] : off[k_off++];
          ASSERT_EQ(bits_of(got), bits_of(a[i])) << sf::simd::path_name(p) << " i=" << i;
        }
        // Nothing is written past the compressed lanes.
        ASSERT_EQ(on[n_on], 42.0);
        ASSERT_EQ(off[n_off], 42.0);
        sf::simd::lanes_merge(p, on.data(), off.data(), mask.data(), n, merged.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits_of(merged[i]), bits_of(a[i])) << sf::simd::path_name(p) << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdLaneMovement, BlendMatchesScalarEveryPath) {
  // batch::select's blend: lane i from a where the mask bit is set, from b
  // where not, bits exact (NaN and -0 lanes included), nothing written past
  // n, lengths around the vector width and the mask word.
  std::mt19937_64 rng(0xB1E0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
                              std::size_t{63}, std::size_t{64}, std::size_t{65},
                              std::size_t{200}}) {
    std::vector<double> a(n), b(n);
    std::vector<u64> mask((n + 63) / 64, 0);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = (rng() % 9 == 0) ? nan : static_cast<double>(rng() % 100) - 50.0;
      b[i] = (rng() % 9 == 0) ? -0.0 : static_cast<double>(rng() % 100) + 0.5;
      if ((rng() & 1) != 0) mask[i / 64] |= u64{1} << (i % 64);
    }
    for (const Path p : available_paths()) {
      std::vector<double> out(n + 1, 42.0);
      sf::simd::lanes_blend(p, mask.data(), a.data(), b.data(), n, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        const bool on = ((mask[i / 64] >> (i % 64)) & 1) != 0;
        ASSERT_EQ(bits_of(out[i]), bits_of(on ? a[i] : b[i]))
            << sf::simd::path_name(p) << " n=" << n << " i=" << i;
      }
      ASSERT_EQ(out[n], 42.0) << sf::simd::path_name(p) << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Runtime integration: the four batch entry points, counters, trace events
// ---------------------------------------------------------------------------

class SimdRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::instance().reset_all(); }
  void TearDown() override {
    Runtime::instance().reset_all();
    std::remove(kTracePath);
  }
  static constexpr const char* kTracePath = "test_simd_parity.rtrace";
  Runtime& R = Runtime::instance();
};

TEST_F(SimdRuntimeTest, RuntimePathIntrospectionAndForce) {
  // Fresh runtime reports the CPUID/environment default.
  EXPECT_EQ(R.simd_path(), sf::simd::default_path());

  // A forced supported path wins; forcing an unsupported path falls back
  // cleanly to the default instead of dispatching illegal instructions.
  for (const Path p : {Path::Portable, Path::Avx2, Path::Avx512}) {
    R.force_simd_path(p);
    if (sf::simd::path_supported(p)) {
      EXPECT_EQ(R.simd_path(), p) << sf::simd::path_name(p);
    } else {
      EXPECT_EQ(R.simd_path(), sf::simd::default_path()) << sf::simd::path_name(p);
    }
    // The forced path must actually execute work correctly.
    std::vector<double> a(19, 1.0 / 3.0), out(19);
    {
      TruncScope scope(8, 12);
      R.trunc_array(a.data(), out.data(), a.size());
    }
    const u64 want = bits_of(sf::fast_round(1.0 / 3.0, sf::Format{8, 12}));
    for (double v : out) EXPECT_EQ(bits_of(v), want);
  }

  // Clearing the override and reset_all() both restore the default.
  R.force_simd_path(Path::Portable);
  R.force_simd_path(std::nullopt);
  EXPECT_EQ(R.simd_path(), sf::simd::default_path());
  R.force_simd_path(Path::Portable);
  R.reset_all();
  EXPECT_EQ(R.simd_path(), sf::simd::default_path());
}

TEST_F(SimdRuntimeTest, BatchEntryPointsBitIdenticalAcrossPaths) {
  constexpr std::size_t kN = 1013;  // prime: exercises every tail remainder
  std::vector<double> a(kN), b(kN), c(kN);
  std::mt19937_64 rng(0xABCD);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = std::ldexp(1.0 + static_cast<double>(rng() % 4096) / 4096.0,
                      static_cast<int>(rng() % 60) - 30);
    b[i] = std::ldexp(1.0 + static_cast<double>(rng() % 4096) / 4096.0,
                      static_cast<int>(rng() % 60) - 30);
    c[i] = -a[i];
  }
  a[3] = std::numeric_limits<double>::quiet_NaN();
  b[11] = std::numeric_limits<double>::infinity();
  a[17] = -0.0;

  // Reference results on the portable path, then identical bits everywhere.
  std::vector<std::vector<double>> ref;
  for (const Path p : available_paths()) {
    R.force_simd_path(p);
    TruncScope scope(8, 12);
    std::vector<std::vector<double>> got;
    for (const OpKind k : {OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div}) {
      std::vector<double> out(kN);
      R.op2_batch(k, a.data(), b.data(), out.data(), kN);
      got.push_back(std::move(out));
    }
    for (const OpKind k : {OpKind::Neg, OpKind::Sqrt}) {
      std::vector<double> out(kN);
      R.op1_batch(k, a.data(), out.data(), kN);
      got.push_back(std::move(out));
    }
    {
      std::vector<double> out(kN);
      R.op3_batch(OpKind::Fma, a.data(), b.data(), c.data(), out.data(), kN);
      got.push_back(std::move(out));
    }
    {
      std::vector<double> out(kN);
      R.trunc_array(a.data(), out.data(), kN);
      got.push_back(std::move(out));
    }
    if (ref.empty()) {
      ref = std::move(got);
      continue;
    }
    for (std::size_t g = 0; g < ref.size(); ++g) {
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(bits_of(got[g][i]), bits_of(ref[g][i]))
            << "entry " << g << " path " << sf::simd::path_name(p) << " elem " << i;
      }
    }
  }
}

TEST_F(SimdRuntimeTest, CounterConservationAcrossPathsAndLaneWidths) {
  // ops counted == elements processed, per kind, whatever the lane width —
  // including length-0 spans (no count) and tail-only spans.
  const std::vector<std::size_t> lens = {0, 1, 3, 4, 7, 8, 9, 16, 31, 257};
  std::vector<double> buf(257, 1.5), out(257);
  for (const Path p : available_paths()) {
    R.reset_all();
    R.force_simd_path(p);
    u64 expected = 0;
    {
      TruncScope scope(8, 12);
      for (const std::size_t n : lens) {
        R.op2_batch(OpKind::Add, buf.data(), buf.data(), out.data(), n);
        R.op2_batch(OpKind::Mul, buf.data(), buf.data(), out.data(), n);
        R.op1_batch(OpKind::Sqrt, buf.data(), out.data(), n);
        R.op3_batch(OpKind::Fma, buf.data(), buf.data(), buf.data(), out.data(), n);
        expected += 4 * n;
      }
    }
    const rt::CounterSnapshot ct = R.counters();
    EXPECT_EQ(ct.trunc_flops, expected) << sf::simd::path_name(p);
    u64 per_kind = 0;
    for (const std::size_t n : lens) per_kind += n;
    EXPECT_EQ(ct.trunc_by_kind[static_cast<int>(OpKind::Add)], per_kind);
    EXPECT_EQ(ct.trunc_by_kind[static_cast<int>(OpKind::Mul)], per_kind);
    EXPECT_EQ(ct.trunc_by_kind[static_cast<int>(OpKind::Sqrt)], per_kind);
    EXPECT_EQ(ct.trunc_by_kind[static_cast<int>(OpKind::Fma)], per_kind);
    EXPECT_EQ(ct.full_flops, 0u);

    // Full-precision spans (no scope) conserve on the full_flops side.
    R.reset_counters();
    R.op2_batch(OpKind::Add, buf.data(), buf.data(), out.data(), 129);
    EXPECT_EQ(R.counters().full_flops, 129u);
    EXPECT_EQ(R.counters().trunc_flops, 0u);
  }
}

TEST_F(SimdRuntimeTest, TraceOneEventPerSpanOnEveryPath) {
  // The SIMD rewrite must not change trace cardinality: one event per span
  // with count == n, and per-element histogram updates (total == n).
  constexpr std::size_t kN = 173;  // tail on every lane width
  std::vector<double> a(kN), out(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = std::ldexp(1.0, static_cast<int>(i % 30) - 15);
  }
  for (const Path p : available_paths()) {
    R.reset_all();
    R.force_simd_path(p);
    trace::TraceOptions opts;
    opts.path = kTracePath;
    opts.sample_stride = 1;  // sample every span
    R.trace_start(opts);
    {
      TruncScope scope(8, 12);
      Region region("simd/span");
      R.op2_batch(OpKind::Mul, a.data(), a.data(), out.data(), kN);
      R.op1_batch(OpKind::Sqrt, a.data(), out.data(), kN);
      R.op2_batch(OpKind::Add, a.data(), a.data(), out.data(), 0);  // no event
    }
    const auto hists = R.trace_histograms();
    const trace::TraceStats stats = R.trace_stop();
    EXPECT_EQ(stats.events, 2u) << sf::simd::path_name(p);
    ASSERT_EQ(hists.size(), 1u);
    EXPECT_EQ(hists[0].hist.exp.total(), 2 * kN) << sf::simd::path_name(p);

    const trace::TraceData td = trace::read_rtrace(kTracePath);
    ASSERT_EQ(td.events.size(), 2u);
    for (const auto& e : td.events) {
      EXPECT_EQ(e.count, kN) << sf::simd::path_name(p);
      EXPECT_EQ(e.flags & trace::kFlagSpan, trace::kFlagSpan);
    }
    std::remove(kTracePath);
  }
}

}  // namespace
}  // namespace raptor
