// Fused-vs-unfused bit-exactness: every fused op must produce exactly the
// same forward values AND the same input gradients as the op composition
// it replaces (the engine's determinism guarantees depend on it). Each op
// also gets an independent finite-difference gradcheck.
#include <gtest/gtest.h>

#include <vector>

#include "gradcheck.h"
#include "pcss/tensor/nn.h"
#include "pcss/tensor/ops.h"

namespace ops = pcss::tensor::ops;
using pcss::tensor::Rng;
using pcss::tensor::Shape;
using pcss::tensor::Tensor;
using pcss::testing::expect_gradcheck;
using pcss::testing::random_values;

namespace {

Tensor leaf(const Shape& shape, const std::vector<float>& values) {
  Tensor t = Tensor::from_data(shape, values);
  t.set_requires_grad(true);
  return t;
}

void expect_same_tensor(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.at(i), b.at(i)) << "forward mismatch at flat index " << i;
  }
}

void expect_same_grad(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.grad().size(), b.grad().size());
  for (size_t i = 0; i < a.grad().size(); ++i) {
    ASSERT_EQ(a.grad()[i], b.grad()[i]) << "grad mismatch at flat index " << i;
  }
}

/// Backward both graphs from the same loss shape (sum of squares) and
/// compare a list of (fused, unfused) leaf pairs bitwise.
void backward_and_compare(const Tensor& fused, const Tensor& unfused,
                          std::vector<std::pair<Tensor, Tensor>> leaves) {
  expect_same_tensor(fused, unfused);
  ops::sum(ops::square(fused)).backward();
  ops::sum(ops::square(unfused)).backward();
  for (auto& [f, u] : leaves) expect_same_grad(f, u);
}

TEST(FusedOps, LinearMatchesMatmulAddRowvec) {
  Rng rng(101);
  const auto xv = random_values(12, rng), wv = random_values(8, rng),
             bv = random_values(2, rng);
  Tensor x1 = leaf({3, 4}, xv), w1 = leaf({4, 2}, wv), b1 = leaf({2}, bv);
  Tensor x2 = leaf({3, 4}, xv), w2 = leaf({4, 2}, wv), b2 = leaf({2}, bv);
  Tensor fused = ops::linear(x1, w1, b1);
  Tensor unfused = ops::add_rowvec(ops::matmul(x2, w2), b2);
  backward_and_compare(fused, unfused, {{x1, x2}, {w1, w2}, {b1, b2}});

  // Bias-less variant degrades to a plain matmul.
  Tensor x3 = leaf({3, 4}, xv), w3 = leaf({4, 2}, wv);
  Tensor x4 = leaf({3, 4}, xv), w4 = leaf({4, 2}, wv);
  backward_and_compare(ops::linear(x3, w3, Tensor()), ops::matmul(x4, w4),
                       {{x3, x4}, {w3, w4}});

  Tensor wg = Tensor::from_data({4, 2}, wv);
  Tensor bg = Tensor::from_data({2}, bv);
  expect_gradcheck([&](const Tensor& x) { return ops::sum(ops::square(ops::linear(x, wg, bg))); },
                   {3, 4}, xv);
}

TEST(FusedOps, BnReluEvalMatchesComposition) {
  Rng rng(103);
  const std::int64_t n = 5, c = 3;
  const auto xv = random_values(n * c, rng);
  const std::vector<float> gv{1.2f, 0.8f, -0.5f}, betav{0.1f, -0.2f, 0.3f};
  std::vector<float> rm{0.1f, -0.3f, 0.2f}, rv{1.5f, 0.7f, 1.1f};
  Tensor x1 = leaf({n, c}, xv), g1 = leaf({c}, gv), b1 = leaf({c}, betav);
  Tensor x2 = leaf({n, c}, xv), g2 = leaf({c}, gv), b2 = leaf({c}, betav);
  Tensor fused = ops::bn_relu_eval(x1, g1, b1, rm, rv);
  std::vector<float> rm2 = rm, rv2 = rv;
  Tensor unfused = ops::relu(ops::batch_norm(x2, g2, b2, rm2, rv2, /*training=*/false));
  backward_and_compare(fused, unfused, {{x1, x2}, {g1, g2}, {b1, b2}});

  Tensor gg = Tensor::from_data({c}, gv);
  Tensor bg = Tensor::from_data({c}, betav);
  expect_gradcheck(
      [&](const Tensor& x) {
        return ops::sum(ops::square(ops::bn_relu_eval(x, gg, bg, rm, rv)));
      },
      {n, c}, random_values(n * c, rng, 0.3f, 1.5f));
}

TEST(FusedOps, EdgeFeaturesMatchesGatherRepeatSubConcat) {
  Rng rng(107);
  const std::int64_t n = 6, c = 4, k = 3;
  const std::vector<std::int64_t> idx{1, 2, 3, 0, 4, 5, 5, 1, 0,
                                      2, 3, 4, 0, 5, 2, 3, 1, 4};
  const auto hv = random_values(n * c, rng);
  Tensor h1 = leaf({n, c}, hv);
  Tensor h2 = leaf({n, c}, hv);
  Tensor fused = ops::edge_features(h1, idx, k);
  Tensor x_j = ops::gather_rows(h2, idx);
  Tensor x_i = ops::repeat_rows(h2, k);
  Tensor unfused = ops::concat_cols(x_i, ops::sub(x_j, x_i));
  backward_and_compare(fused, unfused, {{h1, h2}});

  expect_gradcheck(
      [&](const Tensor& h) { return ops::sum(ops::square(ops::edge_features(h, idx, k))); },
      {n, c}, random_values(n * c, rng));
}

TEST(FusedOps, GatherSubRowsMatchesGatherRepeatSub) {
  Rng rng(109);
  const std::int64_t n = 7, c = 3, k = 2;
  const std::vector<std::int64_t> idx_a{3, 1, 0, 6, 2, 2, 5, 4};
  const std::vector<std::int64_t> idx_b{2, 5, 0, 3};
  const auto xv = random_values(n * c, rng);
  Tensor x1 = leaf({n, c}, xv);
  Tensor x2 = leaf({n, c}, xv);
  Tensor fused = ops::gather_sub_rows(x1, idx_a, idx_b, k);
  Tensor unfused =
      ops::sub(ops::gather_rows(x2, idx_a), ops::repeat_rows(ops::gather_rows(x2, idx_b), k));
  backward_and_compare(fused, unfused, {{x1, x2}});

  expect_gradcheck(
      [&](const Tensor& x) {
        return ops::sum(ops::square(ops::gather_sub_rows(x, idx_a, idx_b, k)));
      },
      {n, c}, random_values(n * c, rng));
}

TEST(FusedOps, ConcatCols4MatchesNestedConcat) {
  Rng rng(113);
  const std::int64_t n = 5;
  const auto av = random_values(n * 3, rng), bv = random_values(n * 3, rng),
             cv = random_values(n * 3, rng), dv = random_values(n * 1, rng);
  Tensor a1 = leaf({n, 3}, av), b1 = leaf({n, 3}, bv), c1 = leaf({n, 3}, cv),
         d1 = leaf({n, 1}, dv);
  Tensor a2 = leaf({n, 3}, av), b2 = leaf({n, 3}, bv), c2 = leaf({n, 3}, cv),
         d2 = leaf({n, 1}, dv);
  Tensor fused = ops::concat_cols4(a1, b1, c1, d1);
  Tensor unfused = ops::concat_cols(ops::concat_cols(a2, b2), ops::concat_cols(c2, d2));
  backward_and_compare(fused, unfused, {{a1, a2}, {b1, b2}, {c1, c2}, {d1, d2}});

  Tensor bg = Tensor::from_data({n, 3}, bv), cg = Tensor::from_data({n, 3}, cv),
         dg = Tensor::from_data({n, 1}, dv);
  expect_gradcheck(
      [&](const Tensor& a) {
        return ops::sum(ops::square(ops::concat_cols4(a, bg, cg, dg)));
      },
      {n, 3}, random_values(n * 3, rng));
}

TEST(FusedOps, MulRowsMatchesBroadcastMatmul) {
  Rng rng(127);
  const std::int64_t n = 6, c = 4;
  const auto xv = random_values(n * c, rng), colv = random_values(n, rng);
  Tensor x1 = leaf({n, c}, xv), col1 = leaf({n, 1}, colv);
  Tensor x2 = leaf({n, c}, xv), col2 = leaf({n, 1}, colv);
  Tensor fused = ops::mul_rows(x1, col1);
  const Tensor ones_row = Tensor::full({1, c}, 1.0f);
  Tensor unfused = ops::mul(x2, ops::matmul(col2, ones_row));
  backward_and_compare(fused, unfused, {{x1, x2}, {col1, col2}});

  Tensor colg = Tensor::from_data({n, 1}, colv);
  expect_gradcheck(
      [&](const Tensor& x) { return ops::sum(ops::square(ops::mul_rows(x, colg))); },
      {n, c}, random_values(n * c, rng));
}

TEST(FusedOps, AddInplaceReusesBufferAndMatchesAdd) {
  Rng rng(131);
  const auto av = random_values(12, rng), bv = random_values(12, rng);
  Tensor base1 = leaf({3, 4}, av);
  Tensor base2 = leaf({3, 4}, av);
  Tensor other = Tensor::from_data({3, 4}, bv);

  // Uniquely-owned op output: the buffer must be reused in place.
  Tensor fresh = ops::scale(base1, 1.5f);
  const float* buffer = fresh.data();
  Tensor fused = ops::add_inplace(std::move(fresh), other);
  EXPECT_EQ(fused.data(), buffer) << "uniquely-owned buffer must be stolen";
  Tensor unfused = ops::add(ops::scale(base2, 1.5f), other);
  backward_and_compare(fused, unfused, {{base1, base2}});

  // Shared handle: falls back to the allocating add and leaves the
  // original values untouched.
  Tensor a = leaf({2, 2}, {1, 2, 3, 4});
  Tensor kept = ops::scale(a, 2.0f);
  Tensor copy = kept;  // second handle -> not uniquely owned
  Tensor out = ops::add_inplace(std::move(copy), Tensor::full({2, 2}, 1.0f));
  EXPECT_NE(out.data(), kept.data());
  EXPECT_FLOAT_EQ(kept.at(0), 2.0f) << "fallback must not mutate the shared buffer";
  EXPECT_FLOAT_EQ(out.at(0), 3.0f);
}

TEST(FusedOps, AddInplaceNeverStealsAnOutputItsBackwardReads) {
  // tanh's backward reads its own output, so add_inplace must not write
  // the sum into that buffer; gradients must match the allocating add.
  Rng rng(137);
  const auto av = random_values(10, rng), bv = random_values(10, rng);
  Tensor c1 = leaf({2, 5}, av);
  Tensor c2 = leaf({2, 5}, av);
  Tensor other = Tensor::from_data({2, 5}, bv);
  Tensor t = ops::tanh_op(c1);
  const float* tbuf = t.data();
  Tensor safe = ops::add_inplace(std::move(t), other);
  EXPECT_NE(safe.data(), tbuf) << "tanh output must survive for its backward";
  Tensor unfused = ops::add(ops::tanh_op(c2), other);
  backward_and_compare(safe, unfused, {{c1, c2}});
}

}  // namespace
