#include "common/units.h"

#include <gtest/gtest.h>

namespace ckpt {
namespace {

TEST(Units, SecondConversionsRoundTrip) {
  EXPECT_EQ(Seconds(1.0), kSecond);
  EXPECT_EQ(Seconds(0.001), kMillisecond);
  EXPECT_EQ(Minutes(2.0), 2 * kMinute);
  EXPECT_EQ(Hours(1.0), kHour);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToMinutes(kMinute), 1.0);
  EXPECT_DOUBLE_EQ(ToHours(kHour), 1.0);
}

TEST(Units, ByteHelpers) {
  EXPECT_EQ(MiB(1), kMiB);
  EXPECT_EQ(GiB(1), kGiB);
  EXPECT_EQ(GiB(2), 2 * kGiB);
  EXPECT_DOUBLE_EQ(ToGiB(kGiB), 1.0);
  EXPECT_DOUBLE_EQ(ToMiB(kMiB), 1.0);
}

TEST(Units, BandwidthHelpersAreDecimal) {
  EXPECT_DOUBLE_EQ(MBps(1), 1e6);
  EXPECT_DOUBLE_EQ(GBps(1), 1e9);
}

TEST(TransferTime, LinearInSize) {
  const SimDuration t1 = TransferTime(MiB(100), MBps(100));
  const SimDuration t2 = TransferTime(MiB(200), MBps(100));
  EXPECT_NEAR(static_cast<double>(t2), 2.0 * static_cast<double>(t1),
              static_cast<double>(t1) * 0.01);
}

TEST(TransferTime, HundredMegabytesAtHundredMBps) {
  // 100 * 2^20 bytes at 100 MB/s (decimal) is ~1.049 s.
  const SimDuration t = TransferTime(MiB(100), MBps(100));
  EXPECT_NEAR(ToSeconds(t), 1.048576, 0.001);
}

TEST(TransferTime, ZeroSizeIsFree) {
  EXPECT_EQ(TransferTime(0, MBps(10)), 0);
  EXPECT_EQ(TransferTime(-5, MBps(10)), 0);
}

TEST(TransferTime, NeverZeroForPositiveSize) {
  EXPECT_GT(TransferTime(1, GBps(100)), 0);
}

TEST(TransferTime, ZeroBandwidthDoesNotDivide) {
  EXPECT_GT(TransferTime(kMiB, 0.0), kDay);
}

TEST(Format, Duration) {
  EXPECT_EQ(FormatDuration(500), "500us");
  EXPECT_EQ(FormatDuration(Millis(2.5)), "2.50ms");
  EXPECT_EQ(FormatDuration(Seconds(3.25)), "3.25s");
  EXPECT_EQ(FormatDuration(Minutes(2)), "2.00min");
  EXPECT_EQ(FormatDuration(Hours(3)), "3.00h");
}

TEST(Format, Bytes) {
  EXPECT_EQ(FormatBytes(100), "100B");
  EXPECT_EQ(FormatBytes(MiB(3)), "3.0MiB");
  EXPECT_EQ(FormatBytes(GiB(5)), "5.00GiB");
}

}  // namespace
}  // namespace ckpt
