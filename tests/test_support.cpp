// Unit tests for support utilities: U192 arithmetic, RNG determinism, CLI.
#include <gtest/gtest.h>

#include "support/cli.hpp"
#include "support/int128.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace raptor {
namespace {

TEST(U192, FromU128RoundTrip) {
  const u128 v = (u128{0x0123456789abcdefULL} << 64) | 0xfedcba9876543210ULL;
  const U192 x = U192::from_u128(v);
  EXPECT_EQ(x.w0, 0xfedcba9876543210ULL);
  EXPECT_EQ(x.w1, 0x0123456789abcdefULL);
  EXPECT_EQ(x.w2, 0u);
}

TEST(U192, ShiftLeftAcrossLimbs) {
  U192 x{0x8000000000000001ULL, 0, 0};
  x.shift_left(1);
  EXPECT_EQ(x.w0, 2u);
  EXPECT_EQ(x.w1, 1u);
  x.shift_left(64);
  EXPECT_EQ(x.w0, 0u);
  EXPECT_EQ(x.w1, 2u);
  EXPECT_EQ(x.w2, 1u);
}

TEST(U192, ShiftRightStickyReportsDroppedBits) {
  U192 x{0b101, 0, 0};
  EXPECT_TRUE(x.shift_right_sticky(1));
  EXPECT_EQ(x.w0, 0b10u);
  EXPECT_FALSE(x.shift_right_sticky(1));
  EXPECT_EQ(x.w0, 0b1u);
}

TEST(U192, ShiftRightStickyLargeShift) {
  U192 x{1, 0, 0x8000000000000000ULL};
  EXPECT_TRUE(x.shift_right_sticky(130));
  EXPECT_EQ(x.w0, 0x8000000000000000ULL >> 2);
  EXPECT_EQ(x.w1, 0u);
  EXPECT_EQ(x.w2, 0u);
}

TEST(U192, AddWithCarryPropagation) {
  U192 a{~u64{0}, ~u64{0}, 0};
  U192 b{1, 0, 0};
  a.add(b);
  EXPECT_EQ(a.w0, 0u);
  EXPECT_EQ(a.w1, 0u);
  EXPECT_EQ(a.w2, 1u);
}

TEST(U192, SubWithBorrowPropagation) {
  U192 a{0, 0, 1};
  U192 b{1, 0, 0};
  a.sub(b);
  EXPECT_EQ(a.w0, ~u64{0});
  EXPECT_EQ(a.w1, ~u64{0});
  EXPECT_EQ(a.w2, 0u);
}

TEST(U192, CompareOrdersLexicographically) {
  U192 a{0, 1, 0};
  U192 b{~u64{0}, 0, 0};
  EXPECT_GT(a.compare(b), 0);
  EXPECT_LT(b.compare(a), 0);
  EXPECT_EQ(a.compare(a), 0);
}

TEST(U192, ClzCountsAcrossLimbs) {
  EXPECT_EQ((U192{0, 0, 0}).clz(), 192);
  EXPECT_EQ((U192{1, 0, 0}).clz(), 191);
  EXPECT_EQ((U192{0, 1, 0}).clz(), 127);
  EXPECT_EQ((U192{0, 0, u64{1} << 63}).clz(), 0);
}

TEST(Clz128, Basics) {
  EXPECT_EQ(clz128(1), 127);
  EXPECT_EQ(clz128(u128{1} << 127), 0);
  EXPECT_EQ(clz128(u128{1} << 64), 63);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Cli, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha=1.5", "--beta=7", "--flag", "pos1"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(cli.get_int("beta", 0), 7);
  EXPECT_TRUE(cli.has("flag"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
}

TEST(Cli, FlagValueIsTruthyOne) {
  const char* argv[] = {"prog", "--verbose"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("verbose", 0), 1);
}

TEST(Cli, RejectsNonNumericValuesInsteadOfReturningZero) {
  // Regression: atoi/atof silently turned "--max-iter=abc" into 0 and
  // poisoned sweeps; strict parsing must throw with the flag's name.
  const char* argv[] = {"prog", "--max-iter=abc", "--tol=fast"};
  Cli cli(3, const_cast<char**>(argv));
  try {
    (void)cli.get_int("max-iter", 7);
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_NE(std::string(e.what()).find("--max-iter=abc"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)cli.get_double("tol", 1.0), CliError);
}

TEST(Cli, RejectsTrailingGarbageAndEmptyValues) {
  const char* argv[] = {"prog", "--n=12x", "--w=1.5e", "--empty="};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_THROW((void)cli.get_int("n", 0), CliError);
  EXPECT_THROW((void)cli.get_double("w", 0.0), CliError);
  EXPECT_THROW((void)cli.get_int("empty", 0), CliError);
  EXPECT_THROW((void)cli.get_double("empty", 0.0), CliError);
  // get() still returns the raw string for non-numeric options.
  EXPECT_EQ(cli.get("n", ""), "12x");
}

TEST(Cli, RejectsOutOfRangeNumbers) {
  const char* argv[] = {"prog", "--big=99999999999999999999", "--huge=1e999"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_THROW((void)cli.get_int("big", 0), CliError);
  EXPECT_THROW((void)cli.get_double("huge", 0.0), CliError);
}

TEST(Cli, PortsParseStrictly) {
  // Regression: atoi turned --serve=70000 into port 4464 and --serve=abc
  // into an ephemeral port.
  const char* argv[] = {"prog", "--bare", "--zero=0", "--p=8080", "--max=65535",
                        "--big=70000", "--neg=-1", "--abc=abc"};
  Cli cli(8, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_port("bare"), 0);  // bare flag: ephemeral
  EXPECT_EQ(cli.get_port("zero"), 0);
  EXPECT_EQ(cli.get_port("p"), 8080);
  EXPECT_EQ(cli.get_port("max"), 65535);
  EXPECT_EQ(cli.get_port("absent"), 0);
  for (const char* key : {"big", "neg", "abc"}) {
    try {
      (void)cli.get_port(key);
      FAIL() << "expected CliError for --" << key;
    } catch (const CliError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + key + "="), std::string::npos)
          << e.what();
    }
  }
}

TEST(Cli, AcceptsWellFormedNumbers) {
  const char* argv[] = {"prog", "--a=-42", "--b=+7", "--c=-1.25e-3", "--d=0x0", "--tiny=1e-320"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("a", 0), -42);
  EXPECT_EQ(cli.get_int("b", 0), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("c", 0.0), -1.25e-3);
  EXPECT_EQ(cli.get_int("missing", 9), 9);  // defaults pass through untouched
  // Base-10 only for ints: hex would silently mean something else per tool.
  EXPECT_THROW((void)cli.get_int("d", 0), CliError);
  // Gradual underflow is a representable value, not an error (strtod sets
  // ERANGE for subnormals; only true overflow is rejected).
  EXPECT_DOUBLE_EQ(cli.get_double("tiny", 0.0), 1e-320);
}

// -- support/timer.hpp: the clock behind per-region wall-clock profiling ----

TEST(Timer, MonotoneNonNegativeAndResets) {
  Timer t;
  const double a = t.seconds();
  EXPECT_GE(a, 0.0);  // steady_clock: reading immediately is >= 0, never negative
  // Do a little real work so the second reading strictly advances on any
  // plausible clock resolution.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1e-9;
  const double b = t.seconds();
  EXPECT_GE(b, a);  // monotone
  t.reset();
  EXPECT_LT(t.seconds(), b);  // reset restarts the epoch
}

TEST(Timer, AccumulatorSumsDisjointIntervalsAndResets) {
  TimeAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.seconds(), 0.0);
  acc.add(0.25);
  acc.add(0.5);
  EXPECT_DOUBLE_EQ(acc.seconds(), 0.75);
  acc.reset();
  EXPECT_DOUBLE_EQ(acc.seconds(), 0.0);
}

TEST(Timer, ScopedTimerAccruesOnDestructionOnly) {
  TimeAccumulator acc;
  {
    const ScopedTimer scope(acc);
    EXPECT_DOUBLE_EQ(acc.seconds(), 0.0);  // nothing accrues while open
  }
  const double once = acc.seconds();
  EXPECT_GE(once, 0.0);
  // Zero-duration scopes (construct + destruct) add a non-negative amount:
  // the total never decreases, even at the clock's resolution floor.
  for (int i = 0; i < 1000; ++i) {
    const double before = acc.seconds();
    { const ScopedTimer scope(acc); }
    EXPECT_GE(acc.seconds(), before);
  }
  EXPECT_GE(acc.seconds(), once);
}

}  // namespace
}  // namespace raptor
