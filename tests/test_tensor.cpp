// Unit tests: dtype tables, Shape algebra (incl. broadcast properties),
// Tensor storage.
#include <gtest/gtest.h>

#include "support/error.hpp"
#include "tensor/dtype.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace proof {
namespace {

TEST(DType, SizesAndNames) {
  EXPECT_EQ(dtype_size(DType::kF32), 4u);
  EXPECT_EQ(dtype_size(DType::kF16), 2u);
  EXPECT_EQ(dtype_size(DType::kBF16), 2u);
  EXPECT_EQ(dtype_size(DType::kI8), 1u);
  EXPECT_EQ(dtype_size(DType::kI64), 8u);
  EXPECT_EQ(dtype_name(DType::kF16), "fp16");
  EXPECT_EQ(dtype_from_name("half"), DType::kF16);
  EXPECT_EQ(dtype_from_name("int8"), DType::kI8);
  EXPECT_THROW((void)dtype_from_name("float8"), ConfigError);
}

TEST(DType, RoundTripAllValues) {
  for (const DType d : {DType::kF32, DType::kF16, DType::kBF16, DType::kI8,
                        DType::kI32, DType::kI64, DType::kBool}) {
    EXPECT_EQ(dtype_from_name(std::string(dtype_name(d))), d);
  }
}

TEST(DType, FloatFamily) {
  EXPECT_TRUE(dtype_is_float(DType::kF32));
  EXPECT_TRUE(dtype_is_float(DType::kBF16));
  EXPECT_FALSE(dtype_is_float(DType::kI8));
  EXPECT_FALSE(dtype_is_float(DType::kI64));
}

TEST(Shape, BasicProperties) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.to_string(), "[2, 3, 4]");
}

TEST(Shape, ScalarHasNumelOne) {
  const Shape s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Shape, NegativeExtentRejected) {
  EXPECT_THROW(Shape({2, -1, 3}), Error);
}

TEST(Shape, AxisNormalizationBounds) {
  const Shape s{2, 3};
  EXPECT_EQ(s.normalize_axis(-2), 0);
  EXPECT_THROW((void)s.dim(2), Error);
  EXPECT_THROW((void)s.dim(-3), Error);
}

TEST(Shape, InsertEraseDims) {
  Shape s{2, 3};
  s.insert_dim(1, 5);
  EXPECT_EQ(s, (Shape{2, 5, 3}));
  s.insert_dim(-1, 7);  // append position via negative axis
  EXPECT_EQ(s, (Shape{2, 5, 3, 7}));
  s.erase_dim(1);
  EXPECT_EQ(s, (Shape{2, 3, 7}));
}

struct BroadcastCase {
  Shape a, b, expected;
};

class BroadcastTest : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastTest, MatchesNumpySemantics) {
  const auto& c = GetParam();
  EXPECT_TRUE(Shape::broadcastable(c.a, c.b));
  EXPECT_EQ(Shape::broadcast(c.a, c.b), c.expected);
  // Broadcast is symmetric.
  EXPECT_EQ(Shape::broadcast(c.b, c.a), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastTest,
    ::testing::Values(
        BroadcastCase{{2, 3}, {2, 3}, {2, 3}},
        BroadcastCase{{2, 3}, {3}, {2, 3}},
        BroadcastCase{{2, 1, 4}, {3, 1}, {2, 3, 4}},
        BroadcastCase{{1}, {5, 5}, {5, 5}},
        BroadcastCase{{}, {4, 2}, {4, 2}},
        BroadcastCase{{128, 1, 197, 197}, {1}, {128, 1, 197, 197}},
        BroadcastCase{{8, 49, 49}, {1, 8, 49, 49}, {1, 8, 49, 49}}));

TEST(Shape, BroadcastIncompatibleThrows) {
  EXPECT_FALSE(Shape::broadcastable(Shape{2, 3}, Shape{2, 4}));
  EXPECT_THROW((void)Shape::broadcast(Shape{2, 3}, Shape{2, 4}), Error);
}

TEST(Shape, BroadcastIdentityProperty) {
  // broadcast(s, s) == s for a variety of shapes.
  for (const Shape& s : {Shape{1}, Shape{3, 4}, Shape{2, 1, 5}, Shape{}}) {
    EXPECT_EQ(Shape::broadcast(s, s), s);
  }
}

TEST(TensorDesc, SizeBytesUsesDtype) {
  TensorDesc d;
  d.dtype = DType::kF16;
  d.shape = Shape{2, 10};
  EXPECT_EQ(d.size_bytes(), 40);
  d.dtype = DType::kF32;
  EXPECT_EQ(d.size_bytes(), 80);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{2, 2});
  EXPECT_EQ(t.numel(), 4);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.at(i), 0.0f);
  }
}

TEST(Tensor, ValueConstructorChecksCount) {
  EXPECT_THROW(Tensor(Shape{2, 2}, {1.0f, 2.0f}), Error);
}

TEST(Tensor, RandomIsDeterministicPerKey) {
  const Tensor a = Tensor::random(Shape{16}, "w1");
  const Tensor b = Tensor::random(Shape{16}, "w1");
  const Tensor c = Tensor::random(Shape{16}, "w2");
  EXPECT_EQ(a.values(), b.values());
  EXPECT_NE(a.values(), c.values());
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_GE(a.at(i), -1.0f);
    EXPECT_LT(a.at(i), 1.0f);
  }
}

TEST(Tensor, Full) {
  const Tensor t = Tensor::full(Shape{3}, 2.5f);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(t.at(i), 2.5f);
  }
}

}  // namespace
}  // namespace proof
