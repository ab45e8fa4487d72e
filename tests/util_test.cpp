#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "util/cli.hpp"
#include "util/crc32.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace qpinn {
namespace {

// ---- crc32 -----------------------------------------------------------------

/// CRC-32 one bit at a time, straight from the reflected polynomial: the
/// oracle the table-driven crc32 must match on every length and alignment.
std::uint32_t bitwise_crc32(const unsigned char* p, std::size_t n,
                            std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return ~crc;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  for (const std::uint64_t data_seed : {3u, 1234567u}) {
    Rng rng(data_seed);
    std::vector<unsigned char> buf(216);
    for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.next_u64());
    for (std::size_t offset = 0; offset <= 8; ++offset) {
      for (std::size_t len = 0; len <= 200; ++len) {
        const unsigned char* p = buf.data() + offset;
        for (const std::uint32_t seed : {0u, 0x9E3779B9u}) {
          ASSERT_EQ(crc32(p, len, seed), bitwise_crc32(p, len, seed))
              << "data seed " << data_seed << " offset " << offset
              << " len " << len << " crc seed " << seed;
        }
      }
    }
  }
}

// ---- rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_THROW(rng.uniform(1.0, 0.0), ValueError);
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
  EXPECT_THROW(rng.normal(0.0, -1.0), ValueError);
}

TEST(Rng, UniformIntUnbiasedRange) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW(rng.uniform_int(0), ValueError);
}

TEST(Rng, PermutationIsBijective) {
  Rng rng(19);
  const auto perm = rng.permutation(100);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.next_u64() == child.next_u64());
  EXPECT_LT(same, 2);
}

// ---- table -----------------------------------------------------------------

TEST(Table, RendersAlignedAscii) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22.5"});
  const std::string text = table.to_string("Title");
  EXPECT_NE(text.find("Title"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22.5"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table table({"a", "b"});
  table.add_row({"with,comma", "with\"quote"});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, RowArityEnforced) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ValueError);
  EXPECT_THROW(Table({}), ValueError);
}

TEST(Table, NumericFormatters) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt_sci(0.000123, 2).substr(0, 4), "1.23");
}

// ---- cli --------------------------------------------------------------------

TEST(Cli, ParsesTypedOptionsAndFlags) {
  CliParser cli("prog", "test");
  cli.add_int("epochs", 100, "epochs");
  cli.add_double("lr", 1e-3, "learning rate");
  cli.add_string("name", "default", "run name");
  cli.add_flag("full", "full mode");
  const char* argv[] = {"prog", "--epochs", "250", "--lr=0.01", "--full"};
  cli.parse(5, argv);
  EXPECT_EQ(cli.get_int("epochs"), 250);
  EXPECT_DOUBLE_EQ(cli.get_double("lr"), 0.01);
  EXPECT_EQ(cli.get_string("name"), "default");
  EXPECT_TRUE(cli.get_flag("full"));
}

TEST(Cli, RejectsMalformedInput) {
  CliParser cli("prog", "test");
  cli.add_int("n", 1, "count");
  {
    const char* argv[] = {"prog", "--n", "abc"};
    EXPECT_THROW(cli.parse(3, argv), ValueError);
  }
  {
    const char* argv[] = {"prog", "--unknown", "1"};
    EXPECT_THROW(cli.parse(3, argv), ValueError);
  }
  {
    const char* argv[] = {"prog", "--n"};
    EXPECT_THROW(cli.parse(2, argv), ValueError);
  }
  {
    const char* argv[] = {"prog", "stray"};
    EXPECT_THROW(cli.parse(2, argv), ValueError);
  }
}

TEST(Cli, HelpRequested) {
  CliParser cli("prog", "test");
  cli.add_flag("x", "flag");
  const char* argv[] = {"prog", "--help"};
  cli.parse(2, argv);
  EXPECT_TRUE(cli.help_requested());
  EXPECT_NE(cli.help_text().find("--x"), std::string::npos);
}

TEST(Cli, DuplicateDeclarationRejected) {
  CliParser cli("prog", "test");
  cli.add_int("n", 1, "count");
  EXPECT_THROW(cli.add_flag("n", "dup"), ValueError);
}

// ---- env ---------------------------------------------------------------------

TEST(Env, FlagSemantics) {
  ::setenv("QPINN_TEST_FLAG", "1", 1);
  EXPECT_TRUE(env_flag("QPINN_TEST_FLAG"));
  ::setenv("QPINN_TEST_FLAG", "off", 1);
  EXPECT_FALSE(env_flag("QPINN_TEST_FLAG"));
  ::unsetenv("QPINN_TEST_FLAG");
  EXPECT_FALSE(env_flag("QPINN_TEST_FLAG"));
}

TEST(Env, IntFallback) {
  ::setenv("QPINN_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("QPINN_TEST_INT", 7), 42);
  ::setenv("QPINN_TEST_INT", "nonsense", 1);
  EXPECT_EQ(env_int("QPINN_TEST_INT", 7), 7);
  ::unsetenv("QPINN_TEST_INT");
  EXPECT_EQ(env_int("QPINN_TEST_INT", 7), 7);
}

// ---- logging -----------------------------------------------------------------

TEST(Logging, ParseLevels) {
  EXPECT_EQ(log::parse_level("debug"), log::Level::kDebug);
  EXPECT_EQ(log::parse_level("WARN"), log::Level::kWarn);
  EXPECT_EQ(log::parse_level("off"), log::Level::kOff);
  EXPECT_THROW(log::parse_level("loud"), ValueError);
}

TEST(Logging, LevelRoundTrip) {
  const log::Level before = log::level();
  log::set_level(log::Level::kError);
  EXPECT_EQ(log::level(), log::Level::kError);
  log::set_level(before);
}

// ---- error macros ---------------------------------------------------------------

TEST(Error, CheckMacroIncludesContext) {
  try {
    QPINN_CHECK(false, "the message");
    FAIL() << "expected throw";
  } catch (const ValueError& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("util_test.cpp"), std::string::npos);
  }
}

TEST(Error, HierarchyCatchable) {
  EXPECT_THROW(throw ShapeError("s"), Error);
  EXPECT_THROW(throw NumericsError("n"), Error);
  EXPECT_THROW(throw IoError("i"), Error);
  EXPECT_THROW(throw ConfigError("c"), Error);
}

}  // namespace
}  // namespace qpinn
