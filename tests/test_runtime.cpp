// Runtime tests: truncation spec parsing, scoping, op-mode dispatch,
// counters, exclusions, allocation strategies, OpenMP thread safety,
// batch/scalar dispatch parity (DESIGN.md §8), the dispatch matrix against
// independent references, and the operand-count check.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "runtime/runtime.hpp"
#include "trunc/capi.hpp"
#include "trunc/scope.hpp"

namespace raptor::rt {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::instance().reset_all(); }
  void TearDown() override { Runtime::instance().reset_all(); }
  Runtime& R = Runtime::instance();
};

// ---------------------------------------------------------------------------
// TruncationSpec parsing
// ---------------------------------------------------------------------------

TEST(TruncationSpec, ParsesPaperExampleFlag) {
  const auto spec = TruncationSpec::parse("64_to_5_14;32_to_3_8");
  ASSERT_TRUE(spec.for64.has_value());
  EXPECT_EQ(spec.for64->exp_bits, 5);
  EXPECT_EQ(spec.for64->man_bits, 14);
  ASSERT_TRUE(spec.for32.has_value());
  EXPECT_EQ(spec.for32->exp_bits, 3);
  EXPECT_EQ(spec.for32->man_bits, 8);
  EXPECT_FALSE(spec.for16.has_value());
}

TEST(TruncationSpec, RoundTripsThroughToString) {
  const auto spec = TruncationSpec::parse("64_to_11_42");
  EXPECT_EQ(spec.to_string(), "64_to_11_42");
  EXPECT_EQ(TruncationSpec::parse(spec.to_string()), spec);
}

TEST(TruncationSpec, RejectsMalformedInput) {
  EXPECT_THROW(TruncationSpec::parse("64to_5_14"), ConfigError);
  EXPECT_THROW(TruncationSpec::parse("64_to_5"), ConfigError);
  EXPECT_THROW(TruncationSpec::parse("48_to_5_14"), ConfigError);
  EXPECT_THROW(TruncationSpec::parse("64_to_25_14"), ConfigError);   // exp too wide
  EXPECT_THROW(TruncationSpec::parse("64_to_5_63"), ConfigError);    // man too wide
  EXPECT_THROW(TruncationSpec::parse("64_to_x_14"), ConfigError);
}

TEST(TruncationSpec, EmptySpecIsEmpty) {
  EXPECT_TRUE(TruncationSpec{}.empty());
  EXPECT_TRUE(TruncationSpec::parse("").empty());
  EXPECT_FALSE(TruncationSpec::trunc64(5, 10).empty());
}

// ---------------------------------------------------------------------------
// Dispatch and scoping
// ---------------------------------------------------------------------------

TEST_F(RuntimeTest, NoScopeMeansNativeExecution) {
  const double a = 1.0, b = 3.0;
  EXPECT_DOUBLE_EQ(R.op2(OpKind::Div, a, b, 64), a / b);
  const auto c = R.counters();
  EXPECT_EQ(c.full_flops, 1u);
  EXPECT_EQ(c.trunc_flops, 0u);
}

TEST_F(RuntimeTest, ScopedTruncationQuantizesResults) {
  // 1/3 in 4-bit mantissa differs from 1/3 in double far beyond 1e-3.
  double truncated;
  {
    TruncScope scope(8, 4);
    truncated = R.op2(OpKind::Div, 1.0, 3.0, 64);
  }
  const double exact = 1.0 / 3.0;
  EXPECT_NE(truncated, exact);
  EXPECT_NEAR(truncated, exact, std::ldexp(1.0, -4));
  EXPECT_DOUBLE_EQ(truncated, sf::quantize(truncated, sf::Format{8, 4}));
  // Outside the scope: native again.
  EXPECT_DOUBLE_EQ(R.op2(OpKind::Div, 1.0, 3.0, 64), exact);
}

TEST_F(RuntimeTest, TruncationErrorShrinksWithMantissa) {
  const double exact = 1.0 / 3.0;
  double prev = HUGE_VAL;
  for (int m : {2, 6, 12, 20, 30, 44, 52}) {
    TruncScope scope(11, m);
    const double err = std::fabs(R.op2(OpKind::Div, 1.0, 3.0, 64) - exact);
    EXPECT_LE(err, prev) << m;
    prev = err;
  }
}

TEST_F(RuntimeTest, GlobalTruncateAllAppliesEverywhere) {
  R.set_truncate_all(TruncationSpec::parse("64_to_5_10"));
  const double r = R.op2(OpKind::Add, 1.0, 1e-5, 64);
  EXPECT_DOUBLE_EQ(r, 1.0);  // 1e-5 below fp16 ulp of 1.0
  EXPECT_EQ(R.counters().trunc_flops, 1u);
  R.clear_truncate_all();
  EXPECT_DOUBLE_EQ(R.op2(OpKind::Add, 1.0, 1e-5, 64), 1.0 + 1e-5);
}

TEST_F(RuntimeTest, InnermostScopeWins) {
  TruncScope outer(5, 4);
  {
    TruncScope inner(11, 52);  // fp64: no visible rounding
    EXPECT_DOUBLE_EQ(R.op2(OpKind::Div, 1.0, 3.0, 64), 1.0 / 3.0);
  }
  EXPECT_NE(R.op2(OpKind::Div, 1.0, 3.0, 64), 1.0 / 3.0);
}

TEST_F(RuntimeTest, DisabledScopeSuppressesOuterTruncation) {
  // The dynamic-truncation pattern used for AMR level cutoffs: an inner
  // scope with enabled=false turns truncation OFF even under an active one.
  TruncScope outer(5, 4);
  EXPECT_TRUE(R.truncation_active(64));
  {
    TruncScope inner(rt::TruncationSpec::trunc64(5, 4), /*enabled=*/false);
    EXPECT_FALSE(R.truncation_active(64));
    EXPECT_DOUBLE_EQ(R.op2(OpKind::Div, 1.0, 3.0, 64), 1.0 / 3.0);
  }
  EXPECT_TRUE(R.truncation_active(64));
}

TEST_F(RuntimeTest, WidthSelectsSpecSlot) {
  R.set_truncate_all(TruncationSpec::parse("32_to_5_4"));
  // 64-bit ops untouched; 32-bit ops truncated.
  EXPECT_DOUBLE_EQ(R.op2(OpKind::Div, 1.0, 3.0, 64), 1.0 / 3.0);
  EXPECT_NE(R.op2(OpKind::Div, 1.0, 3.0, 32), 1.0 / 3.0);
}

TEST_F(RuntimeTest, UnaryAndTernaryOpsDispatch) {
  TruncScope scope(11, 52);
  EXPECT_DOUBLE_EQ(R.op1(OpKind::Sqrt, 2.0, 64), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(R.op1(OpKind::Neg, 3.5, 64), -3.5);
  EXPECT_DOUBLE_EQ(R.op3(OpKind::Fma, 2.0, 3.0, 4.0, 64), 10.0);
  EXPECT_NEAR(R.op1(OpKind::Exp, 1.0, 64), M_E, 1e-15);
  EXPECT_NEAR(R.op2(OpKind::Pow, 2.0, 0.5, 64), std::sqrt(2.0), 1e-15);
}

// ---------------------------------------------------------------------------
// Region labels and exclusion (Table 2 machinery)
// ---------------------------------------------------------------------------

TEST_F(RuntimeTest, ExcludedRegionRunsAtFullPrecision) {
  R.exclude_region("hydro/recon");
  TruncScope scope(8, 4);
  {
    Region region("hydro/recon");
    EXPECT_FALSE(R.truncation_active(64));
    EXPECT_DOUBLE_EQ(R.op2(OpKind::Div, 1.0, 3.0, 64), 1.0 / 3.0);
  }
  {
    Region region("hydro/riemann");
    EXPECT_TRUE(R.truncation_active(64));
    EXPECT_NE(R.op2(OpKind::Div, 1.0, 3.0, 64), 1.0 / 3.0);
  }
}

TEST_F(RuntimeTest, NestedRegionInheritsExclusion) {
  R.exclude_region("outer");
  TruncScope scope(8, 4);
  Region a("outer");
  Region b("inner");
  EXPECT_FALSE(R.truncation_active(64));
}

TEST_F(RuntimeTest, CurrentRegionTracksInnermost) {
  EXPECT_STREQ(R.current_region(), "<toplevel>");
  Region a("alpha");
  EXPECT_STREQ(R.current_region(), "alpha");
  {
    Region b("beta");
    EXPECT_STREQ(R.current_region(), "beta");
  }
  EXPECT_STREQ(R.current_region(), "alpha");
}

TEST_F(RuntimeTest, ClearExclusionsRestoresTruncation) {
  R.exclude_region("x");
  R.clear_exclusions();
  TruncScope scope(8, 4);
  Region region("x");
  EXPECT_TRUE(R.truncation_active(64));
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

TEST_F(RuntimeTest, CountersSeparateTruncatedAndFull) {
  for (int i = 0; i < 10; ++i) R.op2(OpKind::Add, 1.0, 2.0, 64);
  {
    TruncScope scope(5, 10);
    for (int i = 0; i < 30; ++i) R.op2(OpKind::Mul, 1.5, 2.0, 64);
  }
  const auto c = R.counters();
  EXPECT_EQ(c.full_flops, 10u);
  EXPECT_EQ(c.trunc_flops, 30u);
  EXPECT_NEAR(c.trunc_fraction(), 0.75, 1e-12);
  EXPECT_EQ(c.full_by_kind[static_cast<int>(OpKind::Add)], 10u);
  EXPECT_EQ(c.trunc_by_kind[static_cast<int>(OpKind::Mul)], 30u);
}

TEST_F(RuntimeTest, MemTrafficCounters) {
  R.count_mem(64);
  {
    TruncScope scope(5, 10);
    R.count_mem(128);
  }
  const auto c = R.counters();
  EXPECT_EQ(c.full_bytes, 64u);
  EXPECT_EQ(c.trunc_bytes, 128u);
}

TEST_F(RuntimeTest, CountingCanBeDisabled) {
  R.set_counting(false);
  R.op2(OpKind::Add, 1.0, 2.0, 64);
  {
    TruncScope scope(5, 10);
    R.op2(OpKind::Add, 1.0, 2.0, 64);
  }
  const auto c = R.counters();
  EXPECT_EQ(c.total_flops(), 0u);
}

TEST_F(RuntimeTest, ResetCountersZeroes) {
  R.op2(OpKind::Add, 1.0, 2.0, 64);
  R.reset_counters();
  EXPECT_EQ(R.counters().total_flops(), 0u);
}

TEST_F(RuntimeTest, CounterMergeFoldsEveryField) {
  // Merge-completeness audit (the per-region aggregation relies on merge):
  // give every field — including the PR-3 per-OpKind histograms — a
  // distinct nonzero value and verify merge round-trips all of them.
  CounterSnapshot a;
  a.trunc_flops = 1;
  a.full_flops = 2;
  a.trunc_bytes = 3;
  a.full_bytes = 4;
  for (int i = 0; i < kNumOpKinds; ++i) {
    a.trunc_by_kind[i] = 100 + static_cast<u64>(i);
    a.full_by_kind[i] = 200 + static_cast<u64>(i);
  }
  CounterSnapshot b = a;

  CounterSnapshot m;
  m.merge(a);
  m.merge(b);
  EXPECT_EQ(m.trunc_flops, 2 * a.trunc_flops);
  EXPECT_EQ(m.full_flops, 2 * a.full_flops);
  EXPECT_EQ(m.trunc_bytes, 2 * a.trunc_bytes);
  EXPECT_EQ(m.full_bytes, 2 * a.full_bytes);
  for (int i = 0; i < kNumOpKinds; ++i) {
    EXPECT_EQ(m.trunc_by_kind[i], 2 * a.trunc_by_kind[i]) << i;
    EXPECT_EQ(m.full_by_kind[i], 2 * a.full_by_kind[i]) << i;
  }

  // RegionProfile::merge folds the counters plus its own fields.
  RegionProfile ra, rb;
  ra.counters = a;
  ra.max_deviation = 0.25;
  ra.flagged = 7;
  rb.counters = b;
  rb.max_deviation = 0.5;
  rb.flagged = 11;
  ra.merge(rb);
  EXPECT_EQ(ra.counters.trunc_flops, 2 * a.trunc_flops);
  EXPECT_EQ(ra.counters.trunc_by_kind[3], 2 * a.trunc_by_kind[3]);
  EXPECT_DOUBLE_EQ(ra.max_deviation, 0.5);
  EXPECT_EQ(ra.flagged, 18u);
}

TEST_F(RuntimeTest, CellCountersClearAndMergeEveryField) {
  // The per-thread accumulators are the same template on Cell fields:
  // merging them into a snapshot must carry every field, and clear() (what
  // reset_counters runs on a live thread) must zero every field.
  BasicCounters<Cell> cells;
  CounterSnapshot plain;
  for (int i = 0; i < kNumOpKinds; ++i) {
    const auto k = static_cast<OpKind>(i);
    cells.bump_ops(k, true, 100 + static_cast<u64>(i));
    cells.bump_ops(k, false, 200 + static_cast<u64>(i));
    plain.bump_ops(k, true, 100 + static_cast<u64>(i));
    plain.bump_ops(k, false, 200 + static_cast<u64>(i));
  }
  cells.trunc_bytes += 3;
  cells.full_bytes += 4;
  plain.trunc_bytes += 3;
  plain.full_bytes += 4;
  CounterSnapshot merged;
  merged.merge(cells);
  EXPECT_EQ(merged.trunc_flops, plain.trunc_flops);
  EXPECT_EQ(merged.full_flops, plain.full_flops);
  EXPECT_EQ(merged.trunc_bytes, 3u);
  EXPECT_EQ(merged.full_bytes, 4u);
  EXPECT_EQ(merged.trunc_by_kind, plain.trunc_by_kind);
  EXPECT_EQ(merged.full_by_kind, plain.full_by_kind);

  cells.clear();
  CounterSnapshot zero;
  zero.merge(cells);
  EXPECT_EQ(zero.total_flops(), 0u);
  EXPECT_EQ(zero.total_bytes(), 0u);
  for (int i = 0; i < kNumOpKinds; ++i) {
    EXPECT_EQ(zero.trunc_by_kind[i], 0u) << i;
    EXPECT_EQ(zero.full_by_kind[i], 0u) << i;
  }
}

TEST_F(RuntimeTest, RetiredThreadCountersSurviveInRegionProfiles) {
  // A thread's per-region contribution must fold into the merged view when
  // the thread exits (the retire path uses the merge under audit above).
  R.set_region_profiling(true);
  std::thread worker([] {
    Region region("worker");
    TruncScope scope(8, 10);
    for (int i = 0; i < 5; ++i) Runtime::instance().op2(OpKind::Mul, 1.5, 3.0, 64);
  });
  worker.join();
  const auto profs = R.region_profiles();
  bool found = false;
  for (const auto& e : profs) {
    if (e.label == "worker") {
      found = true;
      EXPECT_EQ(e.profile.counters.trunc_flops, 5u);
      EXPECT_EQ(e.profile.counters.trunc_by_kind[static_cast<int>(OpKind::Mul)], 5u);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Allocation strategies and hardware fast path
// ---------------------------------------------------------------------------

TEST_F(RuntimeTest, NaiveAndScratchProduceIdenticalResults) {
  TruncScope scope(8, 14);
  R.set_alloc_strategy(AllocStrategy::Naive);
  const double naive = R.op2(OpKind::Div, 355.0, 113.0, 64);
  R.set_alloc_strategy(AllocStrategy::Scratch);
  const double scratch = R.op2(OpKind::Div, 355.0, 113.0, 64);
  EXPECT_DOUBLE_EQ(naive, scratch);
}

TEST_F(RuntimeTest, HwFastpathMatchesEmulationForFp32) {
  TruncScope scope(8, 23);
  R.set_hw_fastpath(false);
  const double emu = R.op2(OpKind::Mul, 1.0 / 3.0, 3.14159, 64);
  R.set_hw_fastpath(true);
  const double hw = R.op2(OpKind::Mul, 1.0 / 3.0, 3.14159, 64);
  EXPECT_DOUBLE_EQ(emu, hw);
}

TEST_F(RuntimeTest, HwFastpathParityAcrossArities) {
  // Regression: op3 had no fp32 hardware fast path — hw_fastpath_ only
  // short-circuited fp64 FMA, so fp32-target FMAs silently fell into
  // BigFloat emulation while op1/op2 ran native. All three arities must
  // agree with emulation (both are correctly rounded) and the fp32 FMA must
  // match the single-rounding native std::fmaf.
  TruncScope scope(8, 23);  // fp32 target
  const double a = 1.0 / 3.0, b = 3.14159, c = -2.5;

  R.set_hw_fastpath(false);
  const double emu1 = R.op1(OpKind::Sqrt, b, 64);
  const double emu2 = R.op2(OpKind::Mul, a, b, 64);
  const double emu3 = R.op3(OpKind::Fma, a, b, c, 64);

  R.set_hw_fastpath(true);
  EXPECT_DOUBLE_EQ(R.op1(OpKind::Sqrt, b, 64), emu1);
  EXPECT_DOUBLE_EQ(R.op2(OpKind::Mul, a, b, 64), emu2);
  EXPECT_DOUBLE_EQ(R.op3(OpKind::Fma, a, b, c, 64), emu3);
  EXPECT_DOUBLE_EQ(
      R.op3(OpKind::Fma, a, b, c, 64),
      static_cast<double>(std::fmaf(static_cast<float>(a), static_cast<float>(b),
                                    static_cast<float>(c))));
  // Fused semantics: a single rounding, not mul-then-add in fp32. Pick
  // operands where the two differ: x*x - y*y with x = 1 + 2^-12 and y = 1.
  const double x = 1.0 + 0x1p-12;
  const double xx = static_cast<double>(static_cast<float>(x) * static_cast<float>(x));
  const double fused = R.op3(OpKind::Fma, x, x, -xx, 64);
  EXPECT_NE(fused, 0.0);  // the round-off a*b - round(a*b), exact under FMA
  EXPECT_DOUBLE_EQ(fused, std::fma(static_cast<float>(x), static_cast<float>(x), -xx));
}

TEST_F(RuntimeTest, Fp64FastpathFmaMatchesEmulation) {
  TruncScope scope(11, 52);  // fp64 target
  const double a = 1.0 / 3.0, b = 1.0 / 7.0, c = 1e-20;
  R.set_hw_fastpath(false);
  const double emu = R.op3(OpKind::Fma, a, b, c, 64);
  R.set_hw_fastpath(true);
  EXPECT_DOUBLE_EQ(R.op3(OpKind::Fma, a, b, c, 64), emu);
  EXPECT_DOUBLE_EQ(R.op3(OpKind::Fma, a, b, c, 64), std::fma(a, b, c));
}

// ---------------------------------------------------------------------------
// OpenMP thread safety (op-mode)
// ---------------------------------------------------------------------------

#ifdef _OPENMP
TEST_F(RuntimeTest, OpModeIsThreadSafeUnderOpenMP) {
  constexpr int kPerThread = 20000;
  double sum = 0.0;
#pragma omp parallel reduction(+ : sum)
  {
    TruncScope scope(8, 23);
    double local = 0.0;
    for (int i = 0; i < kPerThread; ++i) {
      local = Runtime::instance().op2(OpKind::Add, local, 1.0, 64);
    }
    sum += local;
  }
  int threads = 1;
#pragma omp parallel
  {
#pragma omp single
    threads = omp_get_num_threads();
  }
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(threads) * kPerThread);
  EXPECT_EQ(Runtime::instance().counters().trunc_flops,
            static_cast<u64>(threads) * kPerThread);
}
#endif

// ---------------------------------------------------------------------------
// Batched dispatch: bitwise parity with the scalar op loop (DESIGN.md §8)
// ---------------------------------------------------------------------------

namespace batchtest {

/// Mixed-magnitude operand pool: normals across the format ranges,
/// subnormals, overflow-boundary values, zeros, infinities, NaN.
std::vector<double> operand_pool(std::size_t n, u64 seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng() % 8) {
      case 0: v[i] = std::bit_cast<double>(rng()); break;  // arbitrary bits
      case 1: v[i] = 0.0; break;
      case 2: v[i] = std::ldexp(1.0 + static_cast<double>(rng() % 4096) / 4096.0,
                                static_cast<int>(rng() % 40) - 20);
              break;
      case 3: v[i] = -std::ldexp(1.0, -static_cast<int>(rng() % 160)); break;
      case 4: v[i] = HUGE_VAL; break;
      case 5: v[i] = std::nan(""); break;
      case 6: v[i] = std::ldexp(1.0, static_cast<int>(rng() % 40) + 100); break;
      default: v[i] = 1.0 / (1.0 + static_cast<double>(rng() % 1000)); break;
    }
  }
  return v;
}

struct CounterTotals {
  u64 trunc, full;
  std::array<u64, kNumOpKinds> tk, fk;
  friend bool operator==(const CounterTotals&, const CounterTotals&) = default;
};

CounterTotals totals() {
  const auto c = Runtime::instance().counters();
  return {c.trunc_flops, c.full_flops, c.trunc_by_kind, c.full_by_kind};
}

}  // namespace batchtest

TEST_F(RuntimeTest, Op2BatchMatchesScalarLoopBitwise) {
  const auto a = batchtest::operand_pool(1500, 11);
  const auto b = batchtest::operand_pool(1500, 22);
  // Formats covering every batch body: fast_round kernel (e8m12), BigFloat
  // fallback (e12m30), hw fp32 / fp64, and untruncated; Pow exercises the
  // non-arithmetic emulation fallback inside a batch.
  struct Case {
    std::optional<TruncationSpec> spec;
    bool hw;
  };
  const std::vector<Case> cases = {
      {TruncationSpec::trunc64(8, 12), false}, {TruncationSpec::trunc64(12, 30), false},
      {TruncationSpec::trunc64(8, 23), true},  {TruncationSpec::trunc64(11, 52), true},
      {TruncationSpec::trunc64(5, 10), false}, {std::nullopt, false},
  };
  for (const auto& [spec, hw] : cases) {
    for (const OpKind k : {OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div, OpKind::Pow}) {
      R.reset_all();
      R.set_hw_fastpath(hw);
      std::optional<TruncScope> sc;
      if (spec) sc.emplace(*spec);
      std::vector<double> scalar(a.size()), batch(a.size());
      R.reset_counters();
      for (std::size_t i = 0; i < a.size(); ++i) scalar[i] = R.op2(k, a[i], b[i], 64);
      const auto scalar_counts = batchtest::totals();
      R.reset_counters();
      R.op2_batch(k, a.data(), b.data(), batch.data(), a.size(), 64);
      const auto batch_counts = batchtest::totals();
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(std::bit_cast<u64>(scalar[i]), std::bit_cast<u64>(batch[i]))
            << op_name(k) << " i=" << i << " fmt "
            << (spec ? spec->to_string() : std::string("native")) << " hw=" << hw << " a=0x"
            << std::hex << std::bit_cast<u64>(a[i]) << " b=0x" << std::bit_cast<u64>(b[i]);
      }
      EXPECT_EQ(scalar_counts, batch_counts) << op_name(k);
    }
  }
}

TEST_F(RuntimeTest, Op1AndOp3BatchMatchScalarLoops) {
  const auto a = batchtest::operand_pool(1200, 33);
  const auto b = batchtest::operand_pool(1200, 44);
  const auto c = batchtest::operand_pool(1200, 55);
  for (const bool hw : {false, true}) {
    for (const auto& spec : {TruncationSpec::trunc64(8, 12), TruncationSpec::trunc64(8, 23),
                             TruncationSpec::trunc64(12, 30)}) {
      R.reset_all();
      R.set_hw_fastpath(hw);
      TruncScope sc(spec);
      for (const OpKind k : {OpKind::Neg, OpKind::Sqrt, OpKind::Exp}) {
        std::vector<double> scalar(a.size()), batch(a.size());
        for (std::size_t i = 0; i < a.size(); ++i) scalar[i] = R.op1(k, a[i], 64);
        R.op1_batch(k, a.data(), batch.data(), a.size(), 64);
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(std::bit_cast<u64>(scalar[i]), std::bit_cast<u64>(batch[i]))
              << op_name(k) << " hw=" << hw << " i=" << i << " a=0x" << std::hex
              << std::bit_cast<u64>(a[i]);
        }
      }
      std::vector<double> scalar(a.size()), batch(a.size());
      R.reset_counters();
      for (std::size_t i = 0; i < a.size(); ++i) {
        scalar[i] = R.op3(OpKind::Fma, a[i], b[i], c[i], 64);
      }
      const auto scalar_counts = batchtest::totals();
      R.reset_counters();
      R.op3_batch(OpKind::Fma, a.data(), b.data(), c.data(), batch.data(), a.size(), 64);
      EXPECT_EQ(scalar_counts, batchtest::totals());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(std::bit_cast<u64>(scalar[i]), std::bit_cast<u64>(batch[i]))
            << "fma hw=" << hw << " fmt " << spec.to_string() << " i=" << i << " a=0x"
            << std::hex << std::bit_cast<u64>(a[i]) << " b=0x" << std::bit_cast<u64>(b[i])
            << " c=0x" << std::bit_cast<u64>(c[i]);
      }
    }
  }
}

TEST_F(RuntimeTest, TruncArrayMatchesQuantizeAndDoesNotCount) {
  const auto a = batchtest::operand_pool(2000, 77);
  for (const auto& fmt : {sf::Format{8, 12}, sf::Format{12, 30}, sf::Format{5, 2}}) {
    R.reset_all();
    TruncScope sc(fmt.exp_bits, fmt.man_bits);
    std::vector<double> out(a.size());
    R.trunc_array(a.data(), out.data(), a.size(), 64);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(std::bit_cast<u64>(out[i]), std::bit_cast<u64>(sf::quantize(a[i], fmt)))
          << fmt.to_string() << " a=0x" << std::hex << std::bit_cast<u64>(a[i]);
    }
  }
  EXPECT_EQ(R.counters().total_flops(), 0u);  // conversion is not a flop
  // In-place and untruncated pass-through.
  R.reset_all();
  std::vector<double> inplace = a;
  R.trunc_array(inplace.data(), inplace.data(), inplace.size(), 64);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<u64>(inplace[i]), std::bit_cast<u64>(a[i]));
  }
}

TEST_F(RuntimeTest, BatchHonorsScopeRegionAndEpochChangesBetweenBatches) {
  const std::vector<double> a = {1.0, 1.0 / 3.0, 2.0, 1e-5};
  const std::vector<double> b = {3.0, 3.0, 7.0, 1.0};
  std::vector<double> out(a.size());
  // The effective format is resolved at batch entry, exactly like a scalar
  // op at the same point. A global-config change between batches must be
  // picked up through the epoch-invalidated cache (PR 2 machinery).
  R.set_truncate_all(TruncationSpec::trunc64(8, 4));
  R.op2_batch(OpKind::Div, a.data(), b.data(), out.data(), a.size(), 64);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<u64>(out[i]),
              std::bit_cast<u64>(sf::trunc_div(a[i], b[i], sf::Format{8, 4})));
  }
  R.set_truncate_all(TruncationSpec::trunc64(11, 30));  // epoch bump
  R.op2_batch(OpKind::Div, a.data(), b.data(), out.data(), a.size(), 64);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<u64>(out[i]),
              std::bit_cast<u64>(sf::trunc_div(a[i], b[i], sf::Format{11, 30})));
  }
  R.clear_truncate_all();
  R.op2_batch(OpKind::Div, a.data(), b.data(), out.data(), a.size(), 64);
  EXPECT_DOUBLE_EQ(out[1], (1.0 / 3.0) / 3.0);
  // Scope + excluded region around a batch behaves like around scalar ops.
  R.exclude_region("batch/excluded");
  TruncScope sc(8, 4);
  {
    Region reg("batch/excluded");
    R.op2_batch(OpKind::Div, a.data(), b.data(), out.data(), a.size(), 64);
    EXPECT_DOUBLE_EQ(out[1], (1.0 / 3.0) / 3.0);  // native: exclusion applies
  }
  R.op2_batch(OpKind::Div, a.data(), b.data(), out.data(), a.size(), 64);
  EXPECT_EQ(std::bit_cast<u64>(out[1]),
            std::bit_cast<u64>(sf::trunc_div(1.0 / 3.0, 3.0, sf::Format{8, 4})));
}

TEST_F(RuntimeTest, BatchWidthSelectsSpecSlot) {
  R.set_truncate_all(TruncationSpec::parse("32_to_5_4"));
  const std::vector<double> a = {1.0}, b = {3.0};
  double out64 = 0, out32 = 0;
  R.op2_batch(OpKind::Div, a.data(), b.data(), &out64, 1, 64);
  R.op2_batch(OpKind::Div, a.data(), b.data(), &out32, 1, 32);
  EXPECT_DOUBLE_EQ(out64, 1.0 / 3.0);
  EXPECT_NE(out32, 1.0 / 3.0);
}

TEST_F(RuntimeTest, MemModeTruncArrayBoxesLikePreC) {
  // In mem-mode trunc_array is the array _raptor_pre_c: each element gets a
  // NaN-boxed shadow entry (quantizing the handle bits would destroy it).
  R.set_mode(Mode::Mem);
  TruncScope sc(8, 10);
  const double in[3] = {1.0 / 3.0, 2.0, -1e-4};
  double out[3];
  R.trunc_array(in, out, 3, 64);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(Runtime::is_boxed(out[i])) << i;
    EXPECT_DOUBLE_EQ(R.mem_value(out[i]), sf::quantize(in[i], sf::Format{8, 10})) << i;
    EXPECT_DOUBLE_EQ(R.mem_shadow(out[i]), in[i]) << i;
    R.mem_release(out[i]);
  }
  EXPECT_EQ(R.mem_live(), 0u);
  EXPECT_EQ(R.counters().total_flops(), 0u);
}

TEST_F(RuntimeTest, MemModeBatchFallsBackToScalarSemantics) {
  R.set_mode(Mode::Mem);
  TruncScope sc(8, 10);
  const double a0 = R.mem_make(1.0 / 3.0);
  const double a1 = R.mem_make(2.0);
  const double as[2] = {a0, a1};
  const double bs[2] = {3.14159, 1e-4};
  double out[2];
  R.op2_batch(OpKind::Mul, as, bs, out, 2, 64);
  ASSERT_TRUE(Runtime::is_boxed(out[0]));
  ASSERT_TRUE(Runtime::is_boxed(out[1]));
  const double expect0 = sf::trunc_mul(sf::quantize(1.0 / 3.0, sf::Format{8, 10}), 3.14159,
                                       sf::Format{8, 10});
  EXPECT_DOUBLE_EQ(R.mem_value(out[0]), expect0);
  R.mem_release(out[0]);
  R.mem_release(out[1]);
  R.mem_release(a0);
  R.mem_release(a1);
  EXPECT_EQ(R.mem_live(), 0u);
}

// ---------------------------------------------------------------------------
// Double-rounding regression (DESIGN.md §8)
// ---------------------------------------------------------------------------

TEST_F(RuntimeTest, DoubleRoundingWitnessNeverTakesAnFp32Path) {
  // Witness pair for Format{8,12} (p = 13): a = 1, b = 2^-13 + 2^-24 (both
  // exactly representable in the format). The exact sum 1 + 2^-13 + 2^-24
  // is just above the format's rounding midpoint, so a single correct
  // rounding gives 1 + 2^-12. Computing through fp32 hardware first lands
  // exactly on fp32's tie (2^-24 = half its ulp), rounds to even at
  // 1 + 2^-13, and the second rounding then ties down to 1.0 — the classic
  // double-rounding failure of "widen narrow formats onto the fp32 path".
  const double a = 1.0;
  const double b = 0x1p-13 + 0x1p-24;
  const double single = 1.0 + 0x1p-12;
  const double via_fp32 =
      sf::quantize(static_cast<double>(static_cast<float>(a) + static_cast<float>(b)),
                   sf::Format{8, 12});
  ASSERT_EQ(via_fp32, 1.0);  // the hazard is real for this pair
  ASSERT_EQ(sf::trunc_add(a, b, sf::Format{8, 12}), single);

  TruncScope sc(8, 12);
  for (const bool hw : {false, true}) {
    R.set_hw_fastpath(hw);
    EXPECT_EQ(R.op2(OpKind::Add, a, b, 64), single) << "scalar hw=" << hw;
    double out = 0;
    R.op2_batch(OpKind::Add, &a, &b, &out, 1, 64);
    EXPECT_EQ(out, single) << "batch hw=" << hw;
  }
}

// ---------------------------------------------------------------------------
// The dispatch matrix: every kind through every entry point on every path,
// against references computed here (DESIGN.md §5, §8)
// ---------------------------------------------------------------------------

namespace matrix {

/// Every kind with its operand count.
constexpr std::pair<OpKind, int> kKinds[] = {
    {OpKind::Add, 2},  {OpKind::Sub, 2},   {OpKind::Mul, 2},  {OpKind::Div, 2},
    {OpKind::Sqrt, 1}, {OpKind::Fma, 3},   {OpKind::Neg, 1},  {OpKind::Exp, 1},
    {OpKind::Log, 1},  {OpKind::Log2, 1},  {OpKind::Log10, 1}, {OpKind::Sin, 1},
    {OpKind::Cos, 1},  {OpKind::Tan, 1},   {OpKind::Atan, 1}, {OpKind::Atan2, 2},
    {OpKind::Tanh, 1}, {OpKind::Cbrt, 1},  {OpKind::Pow, 2}};
static_assert(std::size(kKinds) == kNumOpKinds);

/// Operands for format `f`: normals, subnormals of the format and of
/// double, ±0, ±inf, NaN, and values at and next to the format's overflow
/// (double's, for formats wider than double).
std::vector<double> values(const sf::Format& f) {
  const double inf = std::numeric_limits<double>::infinity();
  const double max = f.emax() <= 1023 ? std::ldexp(2.0 - std::ldexp(1.0, -f.man_bits), f.emax())
                                      : std::numeric_limits<double>::max();
  const double min_sub = std::ldexp(1.0, std::max(f.emin_subnormal(), -1074));
  std::vector<double> v = {
      0.0,     -0.0,         inf,            -inf,      std::nan(""),
      1.0,     -2.5,         1.0 / 3.0,      0.1,       100.0,       -7.25, 1e-3,
      max,     -max,         max / 2,        std::sqrt(max) * 1.5,  // products overflow
      min_sub, -3 * min_sub, 0.75 * min_sub, 0x1p-1074, -1e-310};
  if (f.man_bits <= 50 && f.emax() <= 1023) {
    v.push_back(max + std::ldexp(1.0, f.emax() - f.man_bits - 2));  // rounds to max
    v.push_back(-(max + std::ldexp(1.0, f.emax() - f.man_bits - 1)));  // the tie: -inf
  }
  std::mt19937_64 rng(f.exp_bits * 64 + f.man_bits);
  for (int i = 0; i < 12; ++i) {
    const double m = 1.0 + static_cast<double>(rng() % 4096) / 4096.0;
    v.push_back((i % 2 == 0 ? 1.0 : -1.0) * std::ldexp(m, static_cast<int>(rng() % 41) - 20));
  }
  return v;
}

/// Operand lanes of an `arity`-operand kind over `v`: every value once per
/// position, paired with others at several strides.
std::array<std::vector<double>, 3> operands(const std::vector<double>& v, int arity) {
  std::array<std::vector<double>, 3> x;
  const std::size_t n = v.size();
  for (const std::size_t s : {0, 1, 3, 7, 12, 19}) {
    for (std::size_t i = 0; i < n; ++i) {
      x[0].push_back(v[i]);
      x[1].push_back(v[(i + s) % n]);
      x[2].push_back(v[(i + 2 * s + 1) % n]);
    }
    if (arity == 1) break;
  }
  return x;
}

/// `k` in F arithmetic: the std:: function on double or float.
template <class F>
double hw_ref(OpKind k, const double* x) {
  const F a = static_cast<F>(x[0]);
  const F b = static_cast<F>(x[1]);
  switch (k) {
    case OpKind::Add: return a + b;
    case OpKind::Sub: return a - b;
    case OpKind::Mul: return a * b;
    case OpKind::Div: return a / b;
    case OpKind::Pow: return std::pow(a, b);
    case OpKind::Atan2: return std::atan2(a, b);
    case OpKind::Fma: return std::fma(a, b, static_cast<F>(x[2]));
    case OpKind::Neg: return -a;
    case OpKind::Sqrt: return std::sqrt(a);
    case OpKind::Exp: return std::exp(a);
    case OpKind::Log: return std::log(a);
    case OpKind::Log2: return std::log2(a);
    case OpKind::Log10: return std::log10(a);
    case OpKind::Sin: return std::sin(a);
    case OpKind::Cos: return std::cos(a);
    case OpKind::Tan: return std::tan(a);
    case OpKind::Atan: return std::atan(a);
    case OpKind::Tanh: return std::tanh(a);
    default: return std::cbrt(a);
  }
}

/// `k` over the operands rounded into `f`, in sf::BigFloat.
double bf_ref(OpKind k, const double* x, const sf::Format& f) {
  using sf::BigFloat;
  const BigFloat a = BigFloat::from_double_rounded(x[0], f);
  const BigFloat b = BigFloat::from_double_rounded(x[1], f);
  BigFloat r;
  switch (k) {
    case OpKind::Add: r = BigFloat::add(a, b, f); break;
    case OpKind::Sub: r = BigFloat::sub(a, b, f); break;
    case OpKind::Mul: r = BigFloat::mul(a, b, f); break;
    case OpKind::Div: r = BigFloat::div(a, b, f); break;
    case OpKind::Pow: r = sf::bf_pow(a, b, f); break;
    case OpKind::Atan2: r = sf::bf_atan2(a, b, f); break;
    case OpKind::Fma: r = BigFloat::fma(a, b, BigFloat::from_double_rounded(x[2], f), f); break;
    case OpKind::Neg: r = a.negated(); break;
    case OpKind::Sqrt: r = BigFloat::sqrt(a, f); break;
    case OpKind::Exp: r = sf::bf_exp(a, f); break;
    case OpKind::Log: r = sf::bf_log(a, f); break;
    case OpKind::Log2: r = sf::bf_log2(a, f); break;
    case OpKind::Log10: r = sf::bf_log10(a, f); break;
    case OpKind::Sin: r = sf::bf_sin(a, f); break;
    case OpKind::Cos: r = sf::bf_cos(a, f); break;
    case OpKind::Tan: r = sf::bf_tan(a, f); break;
    case OpKind::Atan: r = sf::bf_atan(a, f); break;
    case OpKind::Tanh: r = sf::bf_tanh(a, f); break;
    default: r = sf::bf_cbrt(a, f); break;
  }
  return r.to_double();
}

/// Bitwise equal, or both NaN.
bool same(double got, double want) {
  return (std::isnan(got) && std::isnan(want)) ||
         std::bit_cast<u64>(got) == std::bit_cast<u64>(want);
}

/// One path of the dispatch: the settings that select it and its reference.
struct Path {
  const char* name;
  std::optional<sf::Format> fmt;  ///< the scope's format; none: untruncated
  bool hw = false;
  AllocStrategy alloc = AllocStrategy::Scratch;
  Mode mode = Mode::Op;
  bool simd_paths = false;  ///< batch entries once per SIMD path the CPU has
};

}  // namespace matrix

TEST_F(RuntimeTest, DispatchMatrixMatchesReferencesOnEveryPath) {
  using matrix::Path;
  const sf::Format e8m12{8, 12}, e11m30{11, 30}, e12m12{12, 12};
  const Path paths[] = {
      {"untruncated", std::nullopt},
      {"hw_fp64", sf::Format::fp64(), true},
      {"hw_fp32", sf::Format::fp32(), true},
      {"fast_e8m12", e8m12, true, AllocStrategy::Scratch, Mode::Op, true},
      {"fast_e11m30", e11m30, true, AllocStrategy::Scratch, Mode::Op, true},
      {"bigfloat_naive_e8m12", e8m12, false, AllocStrategy::Naive},
      {"bigfloat_scratch_e8m12", e8m12, false, AllocStrategy::Scratch},
      {"bigfloat_naive_e12m12", e12m12, false, AllocStrategy::Naive},
      {"bigfloat_scratch_e12m12", e12m12, false, AllocStrategy::Scratch},
      {"mem_e8m12", e8m12, false, AllocStrategy::Scratch, Mode::Mem},
  };
  std::vector<std::optional<sf::simd::Path>> simd;
  for (const auto p : {sf::simd::Path::Portable, sf::simd::Path::Avx2, sf::simd::Path::Avx512}) {
    if (sf::simd::path_supported(p)) simd.emplace_back(p);
  }
  for (const Path& path : paths) {
    const std::vector<double> vals = matrix::values(path.fmt.value_or(sf::Format::fp64()));
    for (const auto& [k, arity] : matrix::kKinds) {
      const auto x = matrix::operands(vals, arity);
      const std::size_t n = x[0].size();
      const auto reference = [&](const double* xi) {
        if (!path.fmt || (path.hw && *path.fmt == sf::Format::fp64())) {
          return matrix::hw_ref<double>(k, xi);
        }
        if (path.hw && *path.fmt == sf::Format::fp32()) return matrix::hw_ref<float>(k, xi);
        return matrix::bf_ref(k, xi, *path.fmt);
      };
      // References for the lanes, and for the lanes with operand `pos`
      // replaced by the broadcast `value`.
      const auto want_for = [&](int pos, double value) {
        std::vector<double> want(n);
        for (std::size_t i = 0; i < n; ++i) {
          double xi[3] = {x[0][i], x[1][i], x[2][i]};
          if (pos >= 0) xi[pos] = value;
          want[i] = reference(xi);
        }
        return want;
      };
      // Runs `entry` over the n elements on a fresh runtime set up for the
      // path, then checks every element against `want` and the per-OpKind
      // counts against n.
      const auto check = [&](const char* entry, const std::vector<double>& want,
                             const std::optional<sf::simd::Path>& simd_path, const auto& run) {
        R.reset_all();
        R.set_hw_fastpath(path.hw);
        R.set_alloc_strategy(path.alloc);
        R.set_mode(path.mode);
        R.force_simd_path(simd_path);
        std::vector<double> got(n);
        {
          std::optional<TruncScope> scope;
          if (path.fmt) scope.emplace(path.fmt->exp_bits, path.fmt->man_bits);
          run(got.data());
        }
        const CounterSnapshot c = R.counters();
        for (std::size_t i = 0; i < n; ++i) {
          const double v = path.mode == Mode::Mem ? R.mem_materialize(got[i]) : got[i];
          ASSERT_TRUE(matrix::same(v, want[i]))
              << path.name << " " << entry << " " << op_name(k) << " i=" << i << " got " << v
              << " want " << want[i] << " x=0x" << std::hex << std::bit_cast<u64>(x[0][i])
              << " 0x" << std::bit_cast<u64>(x[1][i]) << " 0x" << std::bit_cast<u64>(x[2][i]);
        }
        EXPECT_EQ(R.mem_live(), 0u) << path.name << " " << entry << " " << op_name(k);
        const int ki = static_cast<int>(k);
        EXPECT_EQ(c.trunc_by_kind[ki], path.fmt ? n : 0) << path.name << " " << entry;
        EXPECT_EQ(c.full_by_kind[ki], path.fmt ? 0 : n) << path.name << " " << entry;
        EXPECT_EQ(c.total_flops(), n) << path.name << " " << entry << " " << op_name(k);
      };
      const std::vector<double> want = want_for(-1, 0.0);
      check("scalar", want, std::nullopt, [&](double* out) {
        for (std::size_t i = 0; i < n; ++i) {
          out[i] = arity == 1   ? R.op1(k, x[0][i])
                   : arity == 2 ? R.op2(k, x[0][i], x[1][i])
                                : R.op3(k, x[0][i], x[1][i], x[2][i]);
        }
      });
      for (const auto& simd_path : path.simd_paths ? simd : decltype(simd){std::nullopt}) {
        check("batch", want, simd_path, [&](double* out) {
          if (arity == 1) R.op1_batch(k, x[0].data(), out, n);
          if (arity == 2) R.op2_batch(k, x[0].data(), x[1].data(), out, n);
          if (arity == 3) R.op3_batch(k, x[0].data(), x[1].data(), x[2].data(), out, n);
        });
        if (arity != 2) continue;
        // A broadcast in either position against every lane of the other:
        // 1/3, which no narrow format holds exactly.
        for (const int pos : {0, 1}) {
          const double value = 1.0 / 3.0;
          check(pos == 0 ? "broadcast_a" : "broadcast_b", want_for(pos, value), simd_path,
                [&](double* out) {
                  const Runtime::BatchArg lanes{x[1 - pos].data()}, one{nullptr, value};
                  R.op2_lanes(k, pos == 0 ? one : lanes, pos == 0 ? lanes : one, out, n);
                });
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Op kinds and operand counts
// ---------------------------------------------------------------------------

TEST(RuntimeDeath, OpKindMustMatchOperandCount) {
  // Each statement runs in a fresh process: CI runs this suite under TSan,
  // and a forked copy of a threaded process may hold locks it cannot use.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Runtime& R = Runtime::instance();
  const double a[4] = {1.0, 2.0, 3.0, 4.0};
  double out[4];
  struct Case {
    const char* name;
    std::optional<sf::Format> fmt;
    bool hw;
  };
  const Case cases[] = {
      {"untruncated", std::nullopt, false},  {"hw_fp64", sf::Format::fp64(), true},
      {"fast_hw_on", sf::Format{8, 12}, true}, {"fast_hw_off", sf::Format{8, 12}, false},
      {"bigfloat", sf::Format{12, 30}, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    R.reset_all();
    R.set_hw_fastpath(c.hw);
    std::optional<TruncScope> scope;
    if (c.fmt) scope.emplace(c.fmt->exp_bits, c.fmt->man_bits);
    EXPECT_DEATH((void)R.op1(OpKind::Add, 1.0), "operand count");
    EXPECT_DEATH((void)R.op2(OpKind::Sqrt, 4.0, 2.0), "operand count");
    EXPECT_DEATH((void)R.op3(OpKind::Add, 1.0, 2.0, 3.0), "operand count");
    EXPECT_DEATH(R.op2_batch(OpKind::Neg, a, a, out, 4), "operand count");
    EXPECT_DEATH(R.op3_batch(OpKind::Mul, a, a, a, out, 4), "operand count");
  }
  R.reset_all();
}

// ---------------------------------------------------------------------------
// C batch shims (capi)
// ---------------------------------------------------------------------------

TEST_F(RuntimeTest, CBatchShimsMatchScalarShims) {
  const auto a = batchtest::operand_pool(600, 88);
  const auto b = batchtest::operand_pool(600, 99);
  const auto c = batchtest::operand_pool(600, 111);
  // Every shim leaves the thread as it found it: no region, no truncation.
  const auto unwound = [&](const char* shim) {
    EXPECT_STREQ(R.current_region(), "<toplevel>") << shim;
    EXPECT_FALSE(R.truncation_active()) << shim;
  };
  std::vector<double> scalar(a.size()), batch(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    scalar[i] = capi::_raptor_mul_f64(a[i], b[i], 8, 12, "t.cpp:1:1");
    unwound("_raptor_mul_f64");
  }
  capi::_raptor_mul_f64_batch(a.data(), b.data(), batch.data(), a.size(), 8, 12, "t.cpp:1:1");
  unwound("_raptor_mul_f64_batch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<u64>(scalar[i]), std::bit_cast<u64>(batch[i])) << i;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    scalar[i] = capi::_raptor_fma_f64(a[i], b[i], c[i], 8, 12, "t.cpp:2:1");
    unwound("_raptor_fma_f64");
  }
  capi::_raptor_fma_f64_batch(a.data(), b.data(), c.data(), batch.data(), a.size(), 8, 12,
                              "t.cpp:2:1");
  unwound("_raptor_fma_f64_batch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<u64>(scalar[i]), std::bit_cast<u64>(batch[i])) << i;
  }
  capi::_raptor_trunc_f64_batch(a.data(), batch.data(), a.size(), 5, 7);
  unwound("_raptor_trunc_f64_batch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<u64>(batch[i]),
              std::bit_cast<u64>(sf::quantize(a[i], sf::Format{5, 7})))
        << i;
  }
  EXPECT_EQ(capi::_raptor_sqrt_f64(2.0, 8, 12, "t.cpp:3:1"),
            sf::trunc_sqrt(2.0, sf::Format{8, 12}));
  unwound("_raptor_sqrt_f64");
  const double boxed = capi::_raptor_pre_c(1.0 / 3.0, 8, 12);
  unwound("_raptor_pre_c");
  EXPECT_EQ(capi::_raptor_post_c(boxed, 8, 12), sf::quantize(1.0 / 3.0, sf::Format{8, 12}));
  EXPECT_EQ(R.mem_live(), 0u);
}

// ---------------------------------------------------------------------------
// trunc_func wrappers (paper Fig. 3 usage)
// ---------------------------------------------------------------------------

double kernel_product(double a, double b) {
  auto& R = Runtime::instance();
  return R.op2(OpKind::Mul, a, b, 64);
}

TEST_F(RuntimeTest, TruncFuncOpWrapsWholeCall) {
  auto f = trunc_func_op(kernel_product, 64, 5, 8);
  const double truncated = f(1.0 / 3.0, 1.0 / 7.0);
  const double native = kernel_product(1.0 / 3.0, 1.0 / 7.0);
  EXPECT_NE(truncated, native);
  EXPECT_DOUBLE_EQ(truncated, sf::quantize(truncated, sf::Format{5, 8}));
}

TEST_F(RuntimeTest, TruncFuncRejectsWidthsWithoutAFormatSlot) {
  // Only 64-, 32- and 16-bit operations have a format slot; any other width
  // (or an invalid format) is a configuration error, not an untruncated run.
  const auto fn = [](double x) { return Runtime::instance().op2(OpKind::Mul, x, x, 64); };
  EXPECT_THROW((void)trunc_func_op(fn, 8, 5, 8), ConfigError);
  EXPECT_THROW((void)trunc_func_op(fn, 128, 5, 8), ConfigError);
  EXPECT_THROW((void)trunc_func_mem(fn, 8, 5, 8), ConfigError);
  EXPECT_THROW((void)trunc_func_op(fn, 64, 1, 8), ConfigError);  // exponent below 2
  EXPECT_THROW((void)TruncationSpec().set(8, sf::Format{5, 8}), ConfigError);
  TruncationSpec spec;
  spec.set(32, sf::Format{5, 8}).set(16, sf::Format{4, 3});
  EXPECT_EQ(spec, TruncationSpec::parse("32_to_5_8;16_to_4_3"));
}

TEST_F(RuntimeTest, TruncFuncOpReturnsFunctionLikeObject) {
  int calls = 0;
  auto f = trunc_func_op([&calls](double x) {
    ++calls;
    return Runtime::instance().op2(OpKind::Add, x, x, 64);
  }, 64, 8, 23);
  EXPECT_DOUBLE_EQ(f(0.5), 1.0);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace raptor::rt
