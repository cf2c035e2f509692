#include "common/stopwatch.h"

#include <gtest/gtest.h>

namespace ps2 {
namespace {

TEST(StopwatchTest, MonotoneAndPositive) {
  Stopwatch sw;
  const int64_t a = sw.ElapsedNanos();
  const int64_t b = sw.ElapsedNanos();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 1.0);
}

TEST(StopwatchTest, NowMicrosMonotone) {
  const int64_t a = NowMicros();
  const int64_t b = NowMicros();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace ps2
