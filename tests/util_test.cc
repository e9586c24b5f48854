#include <cmath>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "util/histogram.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/table.h"

namespace dpstore {
namespace {

// --- Status / StatusOr ------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing key");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing key");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("x"), InvalidArgumentError("x"));
  EXPECT_FALSE(InvalidArgumentError("x") == InvalidArgumentError("y"));
  EXPECT_FALSE(InvalidArgumentError("x") == InternalError("x"));
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      InvalidArgumentError("").code(),  NotFoundError("").code(),
      OutOfRangeError("").code(),       FailedPreconditionError("").code(),
      InternalError("").code(),         ResourceExhaustedError("").code(),
      DataLossError("").code(),         UnavailableError("").code(),
      UnimplementedError("").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return InternalError("boom"); };
  auto wrapper = [&]() -> Status {
    DPSTORE_RETURN_IF_ERROR(fails());
    return OkStatus();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  auto maybe = [](bool ok) -> StatusOr<int> {
    if (!ok) return InternalError("bad");
    return 7;
  };
  auto consume = [&](bool ok) -> StatusOr<int> {
    DPSTORE_ASSIGN_OR_RETURN(int x, maybe(ok));
    return x + 1;
  };
  EXPECT_EQ(*consume(true), 8);
  EXPECT_EQ(consume(false).status().code(), StatusCode::kInternal);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(5);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> out = std::move(v).value();
  EXPECT_EQ(*out, 5);
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformIsApproximatelyUniform) {
  Rng rng(11);
  constexpr uint64_t kBuckets = 16;
  constexpr int kSamples = 160000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.Uniform(kBuckets)];
  double expected = static_cast<double>(kSamples) / kBuckets;
  for (uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], expected, 5 * std::sqrt(expected)) << "bucket " << b;
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(23);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-0.5));
  EXPECT_TRUE(rng.Bernoulli(1.5));
}

TEST(RngTest, SampleDistinctProducesDistinctInRange) {
  Rng rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    auto sample = rng.SampleDistinct(20, 100);
    std::set<uint64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 20u);
    for (uint64_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, SampleDistinctFullRange) {
  Rng rng(31);
  auto sample = rng.SampleDistinct(10, 10);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, SampleDistinctExcludingNeverContainsExcluded) {
  Rng rng(37);
  for (int trial = 0; trial < 200; ++trial) {
    uint64_t excluded = rng.Uniform(50);
    auto sample = rng.SampleDistinctExcluding(25, 50, excluded);
    std::set<uint64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 25u);
    EXPECT_EQ(unique.count(excluded), 0u);
    for (uint64_t v : sample) EXPECT_LT(v, 50u);
  }
}

TEST(RngTest, SampleDistinctIsUnbiased) {
  // Every element should appear with probability k/n.
  Rng rng(41);
  constexpr uint64_t kN = 20;
  constexpr uint64_t kK = 5;
  constexpr int kTrials = 40000;
  std::vector<int> counts(kN, 0);
  for (int t = 0; t < kTrials; ++t) {
    for (uint64_t v : rng.SampleDistinct(kK, kN)) ++counts[v];
  }
  double expected = static_cast<double>(kTrials) * kK / kN;
  for (uint64_t v = 0; v < kN; ++v) {
    EXPECT_NEAR(counts[v], expected, 6 * std::sqrt(expected)) << "value " << v;
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(43);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(47);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// --- Zipf -------------------------------------------------------------------

TEST(ZipfTest, SamplesInRange) {
  Rng rng(53);
  ZipfDistribution zipf(100, 0.99);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Sample(&rng), 100u);
}

TEST(ZipfTest, RankZeroMostPopular) {
  Rng rng(59);
  ZipfDistribution zipf(1000, 1.2);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[100]);
  EXPECT_GT(counts[10], counts[500]);
}

TEST(ZipfTest, SZeroIsUniform) {
  Rng rng(61);
  ZipfDistribution zipf(8, 0.0);
  std::vector<int> counts(8, 0);
  constexpr int kTrials = 80000;
  for (int i = 0; i < kTrials; ++i) ++counts[zipf.Sample(&rng)];
  for (int b = 0; b < 8; ++b) {
    EXPECT_NEAR(counts[b], kTrials / 8.0, 5 * std::sqrt(kTrials / 8.0));
  }
}

TEST(ZipfTest, SingleElement) {
  Rng rng(67);
  ZipfDistribution zipf(1, 0.99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(&rng), 0u);
}

TEST(ZipfTest, FrequencyRoughlyPowerLaw) {
  // For s=1, p(rank r) ~ 1/r, so counts[0]/counts[9] ~ 10.
  Rng rng(71);
  ZipfDistribution zipf(10000, 1.0);
  std::vector<int> counts(10000, 0);
  for (int i = 0; i < 500000; ++i) ++counts[zipf.Sample(&rng)];
  double ratio = static_cast<double>(counts[0]) / counts[9];
  EXPECT_NEAR(ratio, 10.0, 4.0);
}

// --- OnlineStats --------------------------------------------------------------

TEST(OnlineStatsTest, MatchesDirectComputation) {
  OnlineStats stats;
  std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0;
  for (double x : xs) {
    stats.Add(x);
    sum += x;
  }
  double mean = sum / xs.size();
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);
  EXPECT_EQ(stats.count(), 5);
  EXPECT_DOUBLE_EQ(stats.mean(), mean);
  EXPECT_NEAR(stats.variance(), var, 1e-9);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 16.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 31.0);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(OnlineStatsTest, MergeEqualsSequential) {
  Rng rng(73);
  OnlineStats merged_a;
  OnlineStats merged_b;
  OnlineStats sequential;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.UniformDouble() * 100;
    (i < 500 ? merged_a : merged_b).Add(x);
    sequential.Add(x);
  }
  merged_a.Merge(merged_b);
  EXPECT_EQ(merged_a.count(), sequential.count());
  EXPECT_NEAR(merged_a.mean(), sequential.mean(), 1e-9);
  EXPECT_NEAR(merged_a.variance(), sequential.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(merged_a.min(), sequential.min());
  EXPECT_DOUBLE_EQ(merged_a.max(), sequential.max());
}

TEST(OnlineStatsTest, MergeWithEmpty) {
  OnlineStats a;
  a.Add(3.0);
  OnlineStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

// --- Percentiles --------------------------------------------------------------

TEST(PercentilesTest, ExactQuantiles) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.Add(i);
  EXPECT_NEAR(p.Median(), 50.5, 1e-9);
  EXPECT_NEAR(p.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(p.Max(), 100.0, 1e-9);
  EXPECT_NEAR(p.P99(), 99.01, 0.5);
}

TEST(PercentilesTest, SingleSample) {
  Percentiles p;
  p.Add(7.0);
  EXPECT_DOUBLE_EQ(p.Median(), 7.0);
  EXPECT_DOUBLE_EQ(p.Max(), 7.0);
}

TEST(PercentilesTest, AddAfterQuantileResorts) {
  Percentiles p;
  p.Add(1.0);
  p.Add(3.0);
  EXPECT_DOUBLE_EQ(p.Max(), 3.0);
  p.Add(10.0);
  EXPECT_DOUBLE_EQ(p.Max(), 10.0);
}

// --- Histograms ---------------------------------------------------------------

TEST(EventHistogramTest, CountsAndProbabilities) {
  EventHistogram h;
  h.Add(1);
  h.Add(1);
  h.Add(2);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.Count(1), 2u);
  EXPECT_EQ(h.Count(2), 1u);
  EXPECT_EQ(h.Count(3), 0u);
  EXPECT_DOUBLE_EQ(h.Probability(1), 2.0 / 3.0);
  EXPECT_EQ(h.distinct(), 2u);
}

TEST(EventHistogramTest, UnionEvents) {
  EventHistogram a;
  EventHistogram b;
  a.Add(1);
  a.Add(3);
  b.Add(2);
  b.Add(3);
  auto u = EventHistogram::UnionEvents(a, b);
  EXPECT_EQ(u, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(EventHistogramTest, MergeAndClear) {
  EventHistogram a;
  EventHistogram b;
  a.Add(1, 2);
  b.Add(1, 3);
  b.Add(5);
  a.Merge(b);
  EXPECT_EQ(a.Count(1), 5u);
  EXPECT_EQ(a.Count(5), 1u);
  EXPECT_EQ(a.total(), 6u);
  a.Clear();
  EXPECT_EQ(a.total(), 0u);
  EXPECT_EQ(a.distinct(), 0u);
}

// --- TablePrinter ---------------------------------------------------------------

TEST(TablePrinterTest, PrintsAlignedTable) {
  TablePrinter t({"name", "value"});
  t.AddRow().AddCell("alpha").AddDouble(0.25, 2);
  t.AddRow().AddCell("n").AddInt(1024);
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("0.25"), std::string::npos);
  EXPECT_NE(out.find("1024"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter t({"a", "b"});
  t.AddRow().AddInt(1).AddInt(2);
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TablePrinterTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

}  // namespace
}  // namespace dpstore
