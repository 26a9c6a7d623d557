#include "obs/profiler.h"

#include <gtest/gtest.h>

#include "common/json.h"

namespace samya::obs {
namespace {

TEST(EventLoopProfilerTest, AccountsEventsMessagesAndTimers) {
  EventLoopProfiler p;
  p.AccountEvent(100);
  p.AccountEvent(200);
  p.AccountMessage(/*type=*/10, 60);
  p.AccountMessage(/*type=*/10, 40);
  p.AccountTimer(50);
  EXPECT_EQ(p.events(), 2u);
  EXPECT_EQ(p.loop_ns(), 300);
}

TEST(EventLoopProfilerTest, ToJsonAttributesAndLeavesResidue) {
  EventLoopProfiler p;
  p.AccountEvent(1000);
  p.AccountMessage(/*type=*/10, 300);  // token_request
  p.AccountMessage(/*type=*/11, 100);  // token_response
  p.AccountTimer(200);

  const JsonValue j = p.ToJson();
  EXPECT_EQ(j.GetInt("events", -1), 1);
  EXPECT_EQ(j.GetInt("loop_ns", -1), 1000);
  EXPECT_EQ(j.GetInt("timer_count", -1), 1);
  EXPECT_EQ(j.GetInt("timer_ns", -1), 200);
  // other = loop - (messages + timers) = 1000 - 600.
  EXPECT_EQ(j.GetInt("other_ns", -1), 400);

  const JsonValue* by_type = j.Find("by_type");
  ASSERT_NE(by_type, nullptr);
  ASSERT_EQ(by_type->as_array().size(), 2u);
  // Sorted by descending wall-time.
  EXPECT_EQ(by_type->as_array()[0].GetInt("type", -1), 10);
  EXPECT_EQ(by_type->as_array()[0].GetString("name", ""), "token_request");
  EXPECT_EQ(by_type->as_array()[0].GetInt("ns", -1), 300);
  EXPECT_EQ(by_type->as_array()[1].GetInt("type", -1), 11);
}

TEST(EventLoopProfilerTest, OutOfRangeTypeLandsInOverflowSlot) {
  EventLoopProfiler p;
  p.AccountMessage(/*type=*/100000, 10);
  const JsonValue j = p.ToJson();
  const JsonValue* by_type = j.Find("by_type");
  ASSERT_EQ(by_type->as_array().size(), 1u);
  EXPECT_EQ(by_type->as_array()[0].GetInt("count", -1), 1);
}

TEST(EventLoopProfilerTest, ReportNamesHandlers) {
  EventLoopProfiler p;
  p.AccountEvent(1000000);
  p.AccountMessage(10, 600000);
  p.AccountTimer(100000);
  const std::string report = p.Report();
  EXPECT_NE(report.find("token_request"), std::string::npos);
  EXPECT_NE(report.find("timer"), std::string::npos);
  EXPECT_NE(report.find("other"), std::string::npos);
}

TEST(EventLoopProfilerTest, NowNsIsMonotone) {
  const int64_t t0 = EventLoopProfiler::NowNs();
  const int64_t t1 = EventLoopProfiler::NowNs();
  EXPECT_GE(t1, t0);
}

}  // namespace
}  // namespace samya::obs
