#pragma once

#include <cstdint>
#include <vector>

#include "pcss/tensor/tensor.h"

/// Differentiable operations on Tensor. Every function builds the autograd
/// graph as it runs; gradients flow when any input has requires_grad set
/// (directly or transitively).
///
/// Conventions: matrices are [rows, cols] row-major. "Segment" ops treat a
/// [N*K, C] tensor as N contiguous groups of K rows (the neighbor axis used
/// by point-cloud aggregation).
namespace pcss::tensor::ops {

// -- Elementwise (same shape) -----------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);

/// In-place add: consumes `a` (pass with std::move) and reuses its buffer
/// for the result when the node uniquely owns it; otherwise falls back to
/// the allocating add(). Autograd-safe (add's backward never reads the
/// overwritten values). Bitwise-identical to add(a, b).
Tensor add_inplace(Tensor a, const Tensor& b);

// -- Scalar broadcast ---------------------------------------------------------
Tensor scale(const Tensor& a, float s);
Tensor add_scalar(const Tensor& a, float s);
Tensor neg(const Tensor& a);

// -- Row-vector broadcast over [N, C] ----------------------------------------
Tensor add_rowvec(const Tensor& x, const Tensor& bias);

// -- Linear algebra ------------------------------------------------------------
/// [N, K] x [K, M] -> [N, M].
Tensor matmul(const Tensor& a, const Tensor& b);

/// Fused fully-connected layer: matmul(x, w) with the row-vector bias
/// added in the kernel epilogue (pass an undefined bias to skip it).
/// Bitwise-identical to add_rowvec(matmul(x, w), bias), one node instead
/// of two and no intermediate buffer.
Tensor linear(const Tensor& x, const Tensor& w, const Tensor& bias);

// -- Nonlinearities -------------------------------------------------------------
Tensor relu(const Tensor& a);
Tensor leaky_relu(const Tensor& a, float negative_slope);
Tensor tanh_op(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor square(const Tensor& a);

// -- Reductions -----------------------------------------------------------------
Tensor sum(const Tensor& a);   ///< -> [1]
Tensor mean(const Tensor& a);  ///< -> [1]
/// Row-wise sum of [N, C] -> [N, 1].
Tensor row_sum(const Tensor& a);
/// Elementwise sqrt(x + eps); eps guards the gradient at zero.
Tensor sqrt_op(const Tensor& a, float eps = 1e-12f);

// -- Structure / indexing ----------------------------------------------------
/// Rows of x selected by idx: [N, C] x idx[M] -> [M, C].
Tensor gather_rows(const Tensor& x, const std::vector<std::int64_t>& idx);

/// Inverse of gather_rows: out is [out_rows, C] with out[idx[i]] = rows[i]
/// and every row not named by idx taken from `fill` (a constant
/// [out_rows*C] buffer). Indices must be distinct and in range. Gradient
/// flows to `rows` only; the fill is constant (the defended-model adapter
/// uses it to scatter surviving-point logits back to full-cloud rows).
Tensor scatter_rows(const Tensor& rows, const std::vector<std::int64_t>& idx,
                    std::int64_t out_rows, const std::vector<float>& fill);

/// y_n = sum_k weights[n*k_per_row + k] * x[idx[n*k_per_row + k]].
/// Generalizes nearest-neighbor upsampling (k=1, w=1) and the 3-NN
/// inverse-distance interpolation of PointNet++ feature propagation.
Tensor weighted_gather_rows(const Tensor& x, const std::vector<std::int64_t>& idx,
                            const std::vector<float>& weights, std::int64_t k_per_row);

/// Each row of x repeated k times consecutively: [N, C] -> [N*k, C].
Tensor repeat_rows(const Tensor& x, std::int64_t k);

/// Column-wise concatenation: [N, C1] + [N, C2] -> [N, C1+C2].
Tensor concat_cols(const Tensor& a, const Tensor& b);

/// Four-way column concatenation in one node/pass. Bitwise-identical to
/// concat_cols(concat_cols(a, b), concat_cols(c, d)) without the two
/// intermediate copies (RandLA-Net's LocSE assembly).
Tensor concat_cols4(const Tensor& a, const Tensor& b, const Tensor& c, const Tensor& d);

/// Columns [c0, c1) of x: [N, C] -> [N, c1-c0].
Tensor slice_cols(const Tensor& x, std::int64_t c0, std::int64_t c1);

/// base with delta added into columns [col0, col0 + delta.cols()).
/// Used by the feature assembler to splice a perturbation tensor into a
/// constant feature matrix while keeping gradient flow to the delta only.
Tensor scatter_add_cols(const Tensor& base, const Tensor& delta, std::int64_t col0);

// -- Fused model-block ops -----------------------------------------------------
/// EdgeConv edge assembly in one node: for each point i and its r-th
/// neighbor j = idx[i*k+r], row (i*k+r) is [x_i | x_j - x_i]. Forward and
/// backward are bitwise-identical to the unfused
/// concat_cols(repeat_rows(h, k), sub(gather_rows(h, idx), repeat_rows(h, k)))
/// chain, built without the three intermediate [N*k, *] tensors.
Tensor edge_features(const Tensor& h, const std::vector<std::int64_t>& idx,
                     std::int64_t k);

/// Grouped relative rows: out[i*k+r] = x[idx_a[i*k+r]] - x[idx_b[i]].
/// Bitwise-identical to sub(gather_rows(x, idx_a),
/// repeat_rows(gather_rows(x, idx_b), k)) (PointNet++ grouping).
Tensor gather_sub_rows(const Tensor& x, const std::vector<std::int64_t>& idx_a,
                       const std::vector<std::int64_t>& idx_b, std::int64_t k);

/// Row-broadcast multiply: out[i, j] = x[i, j] * col[i] with col [N, 1].
/// Bitwise-identical to mul(x, matmul(col, ones_row)) (PCT's attention
/// broadcast) without materializing the broadcast matrix.
Tensor mul_rows(const Tensor& x, const Tensor& col);

// -- Segment (neighbor-group) reductions over [N*K, C] -----------------------
Tensor segment_max(const Tensor& x, std::int64_t k);   ///< -> [N, C]
Tensor segment_mean(const Tensor& x, std::int64_t k);  ///< -> [N, C]
Tensor segment_sum(const Tensor& x, std::int64_t k);   ///< -> [N, C]
/// Softmax across each group of k rows, per channel (attentive pooling).
Tensor segment_softmax(const Tensor& x, std::int64_t k);

// -- Probabilistic heads ------------------------------------------------------
Tensor log_softmax_rows(const Tensor& x);
/// Mean negative log-likelihood over rows where mask[i] != 0
/// (pass an empty mask to average over all rows).
Tensor nll_loss_masked(const Tensor& log_probs, const std::vector<int>& labels,
                       const std::vector<std::uint8_t>& mask);

// -- Paper-specific losses ----------------------------------------------------
/// Eq. 10 (targeted=true):  sum_i max(max_{j!=y} z_j - z_y, 0)
/// Eq. 11 (targeted=false): sum_i max(z_y - max_{j!=y} z_j, 0)
/// over rows with mask[i] != 0 (empty mask = all rows).
Tensor hinge_margin_loss(const Tensor& logits, const std::vector<int>& labels,
                         const std::vector<std::uint8_t>& mask, bool targeted);

/// Eq. 9: sum_i sum_{j in Nei(i)} ||x_i - x_j||_2 with fixed neighbor
/// indices. neighbor_idx has N*alpha entries (row-major per point).
Tensor smoothness_penalty(const Tensor& x, const std::vector<std::int64_t>& neighbor_idx,
                          std::int64_t alpha);

// -- Normalization / regularization --------------------------------------------
/// BatchNorm over the row axis of [N, C]. In training mode uses batch
/// statistics and updates running_mean/var in place (momentum update);
/// in eval mode uses the running statistics.
Tensor batch_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  std::vector<float>& running_mean, std::vector<float>& running_var,
                  bool training, float momentum = 0.1f, float eps = 1e-5f);

/// Fused eval-mode BatchNorm + ReLU: the running statistics reduce BN to
/// a per-channel scale+shift, applied together with the ReLU in a single
/// pass. Bitwise-identical to relu(batch_norm(x, ..., training=false)).
/// The attack inner loop always runs models in eval mode, so this is the
/// hot normalization path.
Tensor bn_relu_eval(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                    const std::vector<float>& running_mean,
                    const std::vector<float>& running_var, float eps = 1e-5f);

/// Inverted dropout; identity in eval mode.
Tensor dropout(const Tensor& x, float p, Rng& rng, bool training);

// -- Non-differentiable helpers -------------------------------------------------
/// Row-wise argmax of [N, C] (predicted class per point).
std::vector<int> argmax_rows(const Tensor& x);

}  // namespace pcss::tensor::ops
