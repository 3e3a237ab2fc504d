#include "util/status.h"

#include <gtest/gtest.h>

namespace ncl {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsSetCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusCodeTest, NamesAreHumanReadable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kIOError), "IOError");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnavailable), "Unavailable");
  EXPECT_EQ(StatusCodeToString(StatusCode::kResourceExhausted),
            "ResourceExhausted");
  EXPECT_EQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
            "DeadlineExceeded");
}

TEST(StatusCodeTest, PrintsItsName) {
  // gtest prints a failing EXPECT_EQ's codes through operator<<.
  EXPECT_EQ(::testing::PrintToString(StatusCode::kInvalidArgument),
            "InvalidArgument");
}

TEST(StatusCodeTest, FromStringRoundTripsEveryCode) {
  const StatusCode codes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kAlreadyExists,
      StatusCode::kOutOfRange,   StatusCode::kFailedPrecondition,
      StatusCode::kIOError,      StatusCode::kNotImplemented,
      StatusCode::kInternal,     StatusCode::kUnavailable,
      StatusCode::kResourceExhausted, StatusCode::kDeadlineExceeded,
  };
  for (StatusCode code : codes) {
    std::optional<StatusCode> parsed =
        StatusCodeFromString(StatusCodeToString(code));
    ASSERT_TRUE(parsed.has_value())
        << "no inverse for " << StatusCodeToString(code);
    EXPECT_EQ(*parsed, code);
  }
}

TEST(StatusCodeTest, FromStringRejectsUnknownNames) {
  // The wire error envelope depends on nullopt here: an unknown name from
  // a newer peer degrades to Internal instead of aliasing another code.
  EXPECT_FALSE(StatusCodeFromString("").has_value());
  EXPECT_FALSE(StatusCodeFromString("NoSuchCode").has_value());
  EXPECT_FALSE(StatusCodeFromString("ok").has_value());        // case-sensitive
  EXPECT_FALSE(StatusCodeFromString("IOError ").has_value());  // exact match
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chain(int x) {
  NCL_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(Chain(3).ok());
  EXPECT_EQ(Chain(-1).code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.ValueOr(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterOf(int x) {
  NCL_ASSIGN_OR_RETURN(int half, HalfOf(x));
  return HalfOf(half);
}

TEST(ResultTest, AssignOrReturnChains) {
  Result<int> ok = QuarterOf(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_FALSE(QuarterOf(6).ok());  // 6/2 = 3, odd
  EXPECT_FALSE(QuarterOf(3).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> moved = std::move(r).value();
  EXPECT_EQ(*moved, 7);
}

}  // namespace
}  // namespace ncl
