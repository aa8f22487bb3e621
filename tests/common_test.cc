#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/concurrent_queue.h"
#include "common/random.h"
#include "common/resource_governor.h"
#include "common/status.h"

namespace accordion {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad dop");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad dop");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kParseError); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = ParsePositive(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConcurrentQueueTest, FifoOrder) {
  ConcurrentQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(ConcurrentQueueTest, CloseWakesConsumersAndRejectsPush) {
  ConcurrentQueue<int> q;
  std::thread consumer([&] {
    auto v = q.Pop();
    EXPECT_FALSE(v.has_value());
  });
  SleepForMillis(20);
  q.Close();
  consumer.join();
  EXPECT_FALSE(q.Push(1));
}

TEST(ConcurrentQueueTest, DrainsAfterClose) {
  ConcurrentQueue<int> q;
  q.Push(7);
  q.Close();
  auto v = q.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(ConcurrentQueueTest, PopTimesOut) {
  ConcurrentQueue<int> q;
  Stopwatch sw;
  EXPECT_FALSE(q.Pop(/*timeout_ms=*/30).has_value());
  EXPECT_GE(sw.ElapsedMillis(), 25);
}

TEST(ConcurrentQueueTest, ManyProducersManyConsumers) {
  ConcurrentQueue<int> q;
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<int64_t> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) sum += *v;
    });
  }
  for (auto& t : threads) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  int64_t n = kPerProducer * kProducers;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ResourceGovernorTest, GrantsImmediatelyUnderBurst) {
  ResourceGovernor gov("test.cpu", /*rate=*/100.0, /*burst=*/10.0);
  int64_t grant_us = gov.ReserveMicros(1.0);  // within burst
  EXPECT_LE(grant_us, NowMicros());
}

TEST(ResourceGovernorTest, ThrottlesWhenDebtAccumulates) {
  // rate 10 units/s, burst 1: the second and third units are granted
  // ~100 ms and ~200 ms out, without the caller blocking.
  ResourceGovernor gov("test.cpu", 10.0, 1.0);
  int64_t start_us = NowMicros();
  int64_t first = gov.ReserveMicros(1.0);
  int64_t second = gov.ReserveMicros(1.0);
  int64_t third = gov.ReserveMicros(1.0);
  EXPECT_LT(NowMicros() - start_us, 50000);  // reserving never sleeps
  EXPECT_LE(first, NowMicros());
  EXPECT_GE(second - start_us, 90000);
  EXPECT_GE(third - start_us, 190000);
  EXPECT_LE(third - start_us, 250000);
}

TEST(ResourceGovernorTest, AggregateRateIsCapped) {
  // 4 threads reserving from a 20 units/s bucket: by each grant time, the
  // granted total never exceeds burst + rate * elapsed.
  const double kRate = 20.0, kBurst = 2.0, kAmount = 0.5;
  int64_t start_us = NowMicros();
  ResourceGovernor gov("test.cpu", kRate, kBurst);
  std::vector<std::vector<int64_t>> grants(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        grants[t].push_back(gov.ReserveMicros(kAmount));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<int64_t> all;
  for (const auto& g : grants) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  for (size_t k = 0; k < all.size(); ++k) {
    double granted = kAmount * static_cast<double>(k + 1);
    double elapsed_s = static_cast<double>(all[k] - start_us) * 1e-6;
    ASSERT_LE(granted, kBurst + kRate * elapsed_s + 1e-3) << "grant " << k;
  }
  // 80 units at 20/s past a burst of 2: the last grant is ~3.9 s out.
  EXPECT_GE(all.back() - start_us, 3800000);
}

TEST(ResourceGovernorTest, UtilizationRisesUnderLoad) {
  ResourceGovernor gov("test.nic", 1000.0, 100.0);
  EXPECT_LE(gov.Utilization(), 0.01);
  // A second's worth of demand in one 250 ms window reads as saturated
  // once that window closes (the live window is not counted).
  for (int i = 0; i < 20; ++i) gov.ReserveMicros(50.0);
  Stopwatch sw;
  while (gov.Utilization() < 0.5 && sw.ElapsedMillis() < 1000) {
    SleepForMillis(5);
  }
  EXPECT_GE(gov.Utilization(), 0.5);
}

TEST(ResourceGovernorTest, TotalConsumedAccumulates) {
  ResourceGovernor gov("t", 1e9, 1e9);
  gov.ReserveMicros(3);
  gov.ReserveMicros(4);
  EXPECT_DOUBLE_EQ(gov.TotalConsumed(), 7.0);
}

TEST(RandomTest, Deterministic) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RandomTest, IntBoundsInclusive) {
  Random rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, StringLengthAndAlphabet) {
  Random rng(1);
  std::string s = rng.NextString(12);
  EXPECT_EQ(s.size(), 12u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

}  // namespace
}  // namespace accordion
