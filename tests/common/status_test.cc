#include "common/status.h"

#include <gtest/gtest.h>

namespace samya {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("entity VM");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "entity VM");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: entity VM");
}

TEST(StatusTest, Predicates) {
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_FALSE(Status::OK().IsUnavailable());
}

TEST(StatusTest, OkIsOnePointer) {
  static_assert(sizeof(Status) == sizeof(void*));
  EXPECT_EQ(Status::OK().message(), "");
  // An OK code with a message keeps the message.
  const Status s(StatusCode::kOk, "note");
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.message(), "note");
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(Status(StatusCode::kInternal, "").ToString(), "INTERNAL");
}

TEST(StatusTest, CopyAndMoveKeepTheError) {
  const Status err = Status::Corruption("bad crc");
  Status copy = err;
  EXPECT_EQ(copy.code(), StatusCode::kCorruption);
  EXPECT_EQ(copy.message(), "bad crc");
  EXPECT_EQ(err.message(), "bad crc");  // the source is untouched
  Status assigned;
  assigned = copy;
  EXPECT_EQ(assigned.ToString(), "CORRUPTION: bad crc");
  Status moved = std::move(copy);
  EXPECT_EQ(moved.code(), StatusCode::kCorruption);
  EXPECT_EQ(moved.message(), "bad crc");
  Status move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.ToString(), "CORRUPTION: bad crc");
  assigned = Status::OK();
  EXPECT_TRUE(assigned.ok());
  EXPECT_EQ(assigned.message(), "");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::TimedOut("no quorum");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimedOut);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  SAMYA_ASSIGN_OR_RETURN(int h, Half(x));
  SAMYA_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd
  EXPECT_EQ(Quarter(6).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace samya
