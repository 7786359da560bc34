#include "pcss/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "pcss/obs/metrics.h"
#include "pcss/tensor/plan.h"
#include "pcss/tensor/pool.h"
#include "pcss/tensor/simd.h"

// NodeArgs is passed with designated initializers; omitted fields are
// value-initialized per the standard, so the "missing initializer"
// diagnostic is noise here.
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"

namespace pcss::tensor::ops {

namespace {

using detail::check;

/// Optional per-node backward state passed to make_node. Scalars land in
/// the TensorImpl's inline slots; buffer-carrying ops attach a ctx.
struct NodeArgs {
  std::int64_t i0 = 0;
  std::int64_t i1 = 0;
  float f0 = 0.0f;
  bool flag = false;
  bool needs_output = false;  ///< backward reads the node's own data
  std::unique_ptr<BackwardCtx> ctx;
  ForwardFn fwd = nullptr;  ///< replay rule; null marks the op uncapturable
};

/// Builds the result node, wiring parents and the backward dispatch only
/// when some input participates in autograd (predict-mode graphs carry no
/// backward state at all).
Tensor make_node(Shape shape, FloatBuffer data, std::vector<TensorImplPtr> parents,
                 BackwardFn backward_fn, NodeArgs args = {}) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  bool rg = false;
  for (const auto& p : parents) {
    if (p && p->requires_grad) rg = true;
  }
  if (rg) {
    impl->requires_grad = true;
    impl->parents = std::move(parents);
    impl->backward_fn = backward_fn;
    impl->op_i0 = args.i0;
    impl->op_i1 = args.i1;
    impl->op_f0 = args.f0;
    impl->op_flag = args.flag;
    impl->backward_reads_output = args.needs_output;
    impl->ctx = std::move(args.ctx);
    impl->forward_fn = args.fwd;
    // Creation order is a valid topological order (parents exist before
    // children by construction), so the recording is the replay schedule.
    if (plan::detail::recording()) plan::detail::record_node(impl);
  }
  return Tensor(std::move(impl));
}

/// Telemetry only (lint rule D006 keeps obs out of document and cache
/// paths): GEMM call/FLOP counters for the metrics registry. Static refs
/// amortize the registry lookup to one per process; the per-call cost is
/// two relaxed atomic adds. No clock reads here — tensor stays inside
/// the D002 chrono ban; time attribution comes from the span tracer at
/// the attack-engine layer.
void note_gemm(std::int64_t n, std::int64_t k, std::int64_t m) {
  static obs::metrics::Counter& calls = obs::metrics::counter("tensor.gemm.calls");
  static obs::metrics::Counter& flops = obs::metrics::counter("tensor.gemm.flops");
  calls.add(1);
  flops.add(static_cast<std::uint64_t>(2 * n * k * m));
}

// ---------------------------------------------------------------------------
// GEMM entry points.
//
// The register-tiled kernels live in simd_kernels.inc and are reached
// through the runtime dispatch table (scalar or AVX2; bit-identical by
// the contract in simd.h). Every output element accumulates in
// ascending-p order in a single chain, independent of register blocking
// and ISA, so results are identical for any tile size, thread count and
// dispatch path.
// ---------------------------------------------------------------------------

/// C[n,k] += A[n,m] * B^T where B is [k,m]. B is packed (transposed) into
/// a pooled [m,k] buffer once, turning the dot-product form into the same
/// vectorizable panel kernel as gemm_nn.
void gemm_a_bt(const float* __restrict a, const float* __restrict b, float* __restrict c,
               std::int64_t n, std::int64_t m, std::int64_t k) {
  FloatBuffer bt = pool::acquire(static_cast<size_t>(m * k));
  for (std::int64_t j = 0; j < k; ++j) {
    for (std::int64_t p = 0; p < m; ++p) bt[static_cast<size_t>(p * k + j)] = b[j * m + p];
  }
  note_gemm(n, m, k);
  simd::active().gemm_nn(a, bt.data(), c, n, m, k);
  pool::release(std::move(bt));
}

void check_matrix(const Tensor& t, const char* name) {
  check(t.defined() && t.rank() == 2, std::string(name) + ": expected rank-2 tensor");
}

TensorImpl* parent(TensorImpl& node, size_t i) { return node.parents[i].get(); }

// ---------------------------------------------------------------------------
// Backward rules. Each reads the node's grad plus inline/ctx state and
// accumulates into the parents; expression shapes mirror the previous
// closure implementations exactly so gradients stay bit-identical.
// ---------------------------------------------------------------------------

void add_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* pa = parent(node, 0);
  TensorImpl* pb = parent(node, 1);
  const size_t n = node.grad.size();
  if (pa->requires_grad) {
    pa->ensure_grad();
    K.acc_add(pa->grad.data(), node.grad.data(), n);
  }
  if (pb->requires_grad) {
    pb->ensure_grad();
    K.acc_add(pb->grad.data(), node.grad.data(), n);
  }
}

void sub_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* pa = parent(node, 0);
  TensorImpl* pb = parent(node, 1);
  const size_t n = node.grad.size();
  if (pa->requires_grad) {
    pa->ensure_grad();
    K.acc_add(pa->grad.data(), node.grad.data(), n);
  }
  if (pb->requires_grad) {
    pb->ensure_grad();
    K.acc_axpy(pb->grad.data(), node.grad.data(), -1.0f, n);
  }
}

void mul_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* pa = parent(node, 0);
  TensorImpl* pb = parent(node, 1);
  const size_t n = node.grad.size();
  if (pa->requires_grad) {
    pa->ensure_grad();
    K.acc_mul(pa->grad.data(), node.grad.data(), pb->data.data(), n);
  }
  if (pb->requires_grad) {
    pb->ensure_grad();
    K.acc_mul(pb->grad.data(), node.grad.data(), pa->data.data(), n);
  }
}

void scale_bw(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  if (!pa->requires_grad) return;
  pa->ensure_grad();
  simd::active().acc_axpy(pa->grad.data(), node.grad.data(), node.op_f0,
                          node.grad.size());
}

void add_scalar_bw(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  if (!pa->requires_grad) return;
  pa->ensure_grad();
  simd::active().acc_add(pa->grad.data(), node.grad.data(), node.grad.size());
}

void add_rowvec_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* px = parent(node, 0);
  TensorImpl* pb = parent(node, 1);
  const std::int64_t n = node.shape[0], c = node.shape[1];
  if (px->requires_grad) {
    px->ensure_grad();
    K.acc_add(px->grad.data(), node.grad.data(), node.grad.size());
  }
  if (pb->requires_grad) {
    pb->ensure_grad();
    K.acc_col_sum(pb->grad.data(), node.grad.data(), n, c);
  }
}

void matmul_bw(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  TensorImpl* pb = parent(node, 1);
  const std::int64_t n = pa->shape[0], k = pa->shape[1], m = pb->shape[1];
  if (pa->requires_grad) {
    pa->ensure_grad();
    // dA = dY * B^T
    gemm_a_bt(node.grad.data(), pb->data.data(), pa->grad.data(), n, m, k);
  }
  if (pb->requires_grad) {
    pb->ensure_grad();
    // dB = A^T * dY
    simd::active().gemm_at_b(pa->data.data(), node.grad.data(), pb->grad.data(), n, k, m);
  }
}

void linear_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* px = parent(node, 0);
  TensorImpl* pw = parent(node, 1);
  const std::int64_t n = px->shape[0], k = px->shape[1], m = pw->shape[1];
  if (px->requires_grad) {
    px->ensure_grad();
    gemm_a_bt(node.grad.data(), pw->data.data(), px->grad.data(), n, m, k);
  }
  if (pw->requires_grad) {
    pw->ensure_grad();
    note_gemm(n, k, m);
    K.gemm_at_b(px->data.data(), node.grad.data(), pw->grad.data(), n, k, m);
  }
  if (node.parents.size() > 2) {
    TensorImpl* pbias = parent(node, 2);
    if (pbias->requires_grad) {
      pbias->ensure_grad();
      K.acc_col_sum(pbias->grad.data(), node.grad.data(), n, m);
    }
  }
}

void relu_bw(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  if (!pa->requires_grad) return;
  pa->ensure_grad();
  simd::active().acc_relu_mask(pa->grad.data(), node.grad.data(), pa->data.data(),
                               node.grad.size());
}

void leaky_relu_bw(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  if (!pa->requires_grad) return;
  pa->ensure_grad();
  simd::active().acc_leaky_mask(pa->grad.data(), node.grad.data(), pa->data.data(),
                                node.op_f0, node.grad.size());
}

void tanh_bw(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  if (!pa->requires_grad) return;
  pa->ensure_grad();
  // node.data is the node's own output; no saved copy.
  simd::active().acc_tanh_bw(pa->grad.data(), node.grad.data(), node.data.data(),
                             node.grad.size());
}

void sigmoid_bw(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  if (!pa->requires_grad) return;
  pa->ensure_grad();
  simd::active().acc_sigmoid_bw(pa->grad.data(), node.grad.data(), node.data.data(),
                                node.grad.size());
}

void square_bw(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  if (!pa->requires_grad) return;
  pa->ensure_grad();
  simd::active().acc_square_bw(pa->grad.data(), node.grad.data(), pa->data.data(),
                               node.grad.size());
}

void sum_bw(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  if (!pa->requires_grad) return;
  pa->ensure_grad();
  simd::active().acc_scalar(pa->grad.data(), node.grad[0], pa->grad.size());
}

void row_sum_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* pa = parent(node, 0);
  if (!pa->requires_grad) return;
  pa->ensure_grad();
  const std::int64_t n = pa->shape[0], c = pa->shape[1];
  for (std::int64_t i = 0; i < n; ++i) {
    K.acc_scalar(pa->grad.data() + i * c, node.grad[i], static_cast<size_t>(c));
  }
}

void sqrt_bw(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  if (!pa->requires_grad) return;
  pa->ensure_grad();
  for (size_t i = 0; i < node.grad.size(); ++i) {
    const float y = std::max(node.data[i], 1e-8f);
    pa->grad[i] += node.grad[i] * 0.5f / y;
  }
}

void gather_rows_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* px = parent(node, 0);
  if (!px->requires_grad) return;
  px->ensure_grad();
  const std::int64_t c = node.shape[1];
  const auto& id = node.ctx->ibuf;
  for (size_t i = 0; i < id.size(); ++i) {
    float* dst = px->grad.data() + id[i] * c;
    const float* src = node.grad.data() + static_cast<std::int64_t>(i) * c;
    K.acc_add(dst, src, static_cast<size_t>(c));
  }
}

void scatter_rows_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* px = parent(node, 0);
  if (!px->requires_grad) return;
  px->ensure_grad();
  const std::int64_t c = node.shape[1];
  const auto& id = node.ctx->ibuf;
  for (size_t i = 0; i < id.size(); ++i) {
    float* dst = px->grad.data() + static_cast<std::int64_t>(i) * c;
    const float* src = node.grad.data() + id[i] * c;
    K.acc_add(dst, src, static_cast<size_t>(c));
  }
}

void weighted_gather_rows_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* px = parent(node, 0);
  if (!px->requires_grad) return;
  px->ensure_grad();
  const std::int64_t c = node.shape[1];
  const std::int64_t k_per_row = node.op_i0;
  const auto& id = node.ctx->ibuf;
  const auto& w = node.ctx->fbuf;
  const std::int64_t nout = static_cast<std::int64_t>(id.size()) / k_per_row;
  for (std::int64_t i = 0; i < nout; ++i) {
    const float* src = node.grad.data() + i * c;
    for (std::int64_t k = 0; k < k_per_row; ++k) {
      float* dst = px->grad.data() + id[static_cast<size_t>(i * k_per_row + k)] * c;
      const float wk = w[static_cast<size_t>(i * k_per_row + k)];
      K.acc_axpy(dst, src, wk, static_cast<size_t>(c));
    }
  }
}

void repeat_rows_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* px = parent(node, 0);
  if (!px->requires_grad) return;
  px->ensure_grad();
  const std::int64_t k = node.op_i0;
  const std::int64_t n = px->shape[0], c = px->shape[1];
  for (std::int64_t i = 0; i < n; ++i) {
    float* dst = px->grad.data() + i * c;
    for (std::int64_t r = 0; r < k; ++r) {
      const float* src = node.grad.data() + (i * k + r) * c;
      K.acc_add(dst, src, static_cast<size_t>(c));
    }
  }
}

void concat_cols_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* pa = parent(node, 0);
  TensorImpl* pb = parent(node, 1);
  const std::int64_t n = node.shape[0];
  const std::int64_t ca = pa->shape[1], cb = pb->shape[1];
  if (pa->requires_grad) {
    pa->ensure_grad();
    for (std::int64_t i = 0; i < n; ++i) {
      K.acc_add(pa->grad.data() + i * ca, node.grad.data() + i * (ca + cb),
                static_cast<size_t>(ca));
    }
  }
  if (pb->requires_grad) {
    pb->ensure_grad();
    for (std::int64_t i = 0; i < n; ++i) {
      K.acc_add(pb->grad.data() + i * cb, node.grad.data() + i * (ca + cb) + ca,
                static_cast<size_t>(cb));
    }
  }
}

void slice_cols_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* px = parent(node, 0);
  if (!px->requires_grad) return;
  px->ensure_grad();
  const std::int64_t c0 = node.op_i0;
  const std::int64_t n = node.shape[0], w = node.shape[1], c = px->shape[1];
  for (std::int64_t i = 0; i < n; ++i) {
    K.acc_add(px->grad.data() + i * c + c0, node.grad.data() + i * w,
              static_cast<size_t>(w));
  }
}

void scatter_add_cols_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* pbase = parent(node, 0);
  TensorImpl* pdelta = parent(node, 1);
  const std::int64_t col0 = node.op_i0;
  const std::int64_t n = node.shape[0], c = node.shape[1], d = pdelta->shape[1];
  if (pbase->requires_grad) {
    pbase->ensure_grad();
    K.acc_add(pbase->grad.data(), node.grad.data(), node.grad.size());
  }
  if (pdelta->requires_grad) {
    pdelta->ensure_grad();
    for (std::int64_t i = 0; i < n; ++i) {
      K.acc_add(pdelta->grad.data() + i * d, node.grad.data() + i * c + col0,
                static_cast<size_t>(d));
    }
  }
}

void segment_max_bw(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  if (!px->requires_grad) return;
  px->ensure_grad();
  const std::int64_t k = node.op_i0;
  const std::int64_t n = node.shape[0], c = node.shape[1];
  const auto& arg = node.ctx->ibuf;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < c; ++j) {
      const std::int64_t r = arg[static_cast<size_t>(i * c + j)];
      px->grad[(i * k + r) * c + j] += node.grad[i * c + j];
    }
  }
}

void segment_sum_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* px = parent(node, 0);
  if (!px->requires_grad) return;
  px->ensure_grad();
  const std::int64_t k = node.op_i0;
  const std::int64_t n = node.shape[0], c = node.shape[1];
  for (std::int64_t i = 0; i < n; ++i) {
    const float* src = node.grad.data() + i * c;
    for (std::int64_t r = 0; r < k; ++r) {
      K.acc_add(px->grad.data() + (i * k + r) * c, src, static_cast<size_t>(c));
    }
  }
}

void segment_softmax_bw(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  if (!px->requires_grad) return;
  px->ensure_grad();
  const std::int64_t k = node.op_i0;
  const std::int64_t n = px->shape[0] / k, c = px->shape[1];
  FloatBuffer scratch = pool::acquire(static_cast<size_t>(c));
  simd::active().acc_segment_softmax_bw(px->grad.data(), node.grad.data(),
                                        node.data.data(), scratch.data(), n, k, c);
  pool::release(std::move(scratch));
}

void log_softmax_rows_bw(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  if (!px->requires_grad) return;
  px->ensure_grad();
  const std::int64_t n = node.shape[0], c = node.shape[1];
  simd::active().acc_log_softmax_bw(px->grad.data(), node.grad.data(),
                                    node.data.data(), n, c);
}

void nll_loss_masked_bw(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  if (!px->requires_grad) return;
  px->ensure_grad();
  const std::int64_t n = px->shape[0], c = px->shape[1];
  const auto& labels = node.ctx->labels;
  const auto& mask = node.ctx->mask;
  const float g = node.grad[0] * node.op_f0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!mask.empty() && !mask[static_cast<size_t>(i)]) continue;
    px->grad[i * c + labels[static_cast<size_t>(i)]] -= g;
  }
}

void hinge_margin_loss_bw(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  if (!px->requires_grad) return;
  px->ensure_grad();
  const std::int64_t n = px->shape[0], c = px->shape[1];
  const auto& labels = node.ctx->labels;
  const auto& best_j = node.ctx->ibuf;
  const float g = node.grad[0];
  const float sy = node.op_flag ? -1.0f : 1.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t bj = best_j[static_cast<size_t>(i)];
    if (bj < 0) continue;  // hinge inactive or masked out
    px->grad[i * c + labels[static_cast<size_t>(i)]] += g * sy;
    px->grad[i * c + bj] -= g * sy;
  }
}

void smoothness_penalty_bw(TensorImpl& node) {
  TensorImpl* px_node = parent(node, 0);
  if (!px_node->requires_grad) return;
  px_node->ensure_grad();
  constexpr float kEps = 1e-8f;
  const std::int64_t alpha = node.op_i0;
  const std::int64_t n = px_node->shape[0], c = px_node->shape[1];
  const auto& idx = node.ctx->ibuf;
  const float g = node.grad[0];
  const float* px = px_node->data.data();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t k = 0; k < alpha; ++k) {
      const std::int64_t j = idx[static_cast<size_t>(i * alpha + k)];
      float d2 = 0.0f;
      for (std::int64_t t = 0; t < c; ++t) {
        const float d = px[i * c + t] - px[j * c + t];
        d2 += d * d;
      }
      const float dist = std::sqrt(std::max(d2, kEps * kEps));
      for (std::int64_t t = 0; t < c; ++t) {
        const float u = (px[i * c + t] - px[j * c + t]) / dist;
        px_node->grad[i * c + t] += g * u;
        px_node->grad[j * c + t] -= g * u;
      }
    }
  }
}

void batch_norm_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* px = parent(node, 0);
  TensorImpl* pg = parent(node, 1);
  TensorImpl* pb = parent(node, 2);
  const std::int64_t n = node.shape[0], c = node.shape[1];
  // ctx.fbuf layout: [xhat (n*c) | inv_std (c)].
  const float* xhat = node.ctx->fbuf.data();
  const float* inv_std = xhat + n * c;
  const float* gamma = pg->data.data();
  if (pg->requires_grad) {
    pg->ensure_grad();
    K.acc_col_sum_mul(pg->grad.data(), node.grad.data(), xhat, n, c);
  }
  if (pb->requires_grad) {
    pb->ensure_grad();
    K.acc_col_sum(pb->grad.data(), node.grad.data(), n, c);
  }
  if (!px->requires_grad) return;
  px->ensure_grad();
  if (!node.op_flag) {  // eval mode
    K.acc_scaled_rowvec(px->grad.data(), node.grad.data(), gamma, inv_std, n, c);
    return;
  }
  // Training mode: gradient through the batch statistics.
  const float invn = 1.0f / static_cast<float>(n);
  for (std::int64_t j = 0; j < c; ++j) {
    float sum_dy = 0.0f, sum_dy_xhat = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) {
      const float dyg = node.grad[i * c + j] * gamma[j];
      sum_dy += dyg;
      sum_dy_xhat += dyg * xhat[i * c + j];
    }
    for (std::int64_t i = 0; i < n; ++i) {
      const float dyg = node.grad[i * c + j] * gamma[j];
      px->grad[i * c + j] +=
          inv_std[j] * (dyg - invn * sum_dy - xhat[i * c + j] * invn * sum_dy_xhat);
    }
  }
}

void dropout_bw(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  if (!px->requires_grad) return;
  px->ensure_grad();
  simd::active().acc_mul(px->grad.data(), node.grad.data(), node.ctx->fbuf.data(),
                         node.grad.size());
}

// -- Fused-op backward rules -------------------------------------------------

/// Mirrors the unfused relu(bn_eval(x)) chain: relu masks first, then the
/// eval-mode affine pulls dy through gamma * inv_std in the same
/// multiplication order. ctx.fbuf layout: [mean (c) | inv_std (c)].
void bn_relu_eval_bw(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  TensorImpl* pg = parent(node, 1);
  TensorImpl* pb = parent(node, 2);
  const std::int64_t n = node.shape[0], c = node.shape[1];
  const float* mean = node.ctx->fbuf.data();
  const float* inv_std = mean + c;
  float* dgamma = nullptr;
  float* dbeta = nullptr;
  float* dx = nullptr;
  if (pg->requires_grad) {
    pg->ensure_grad();
    dgamma = pg->grad.data();
  }
  if (pb->requires_grad) {
    pb->ensure_grad();
    dbeta = pb->grad.data();
  }
  if (px->requires_grad) {
    px->ensure_grad();
    dx = px->grad.data();
  }
  simd::active().acc_bn_relu_eval_bw(dx, dgamma, dbeta, node.grad.data(),
                                     node.data.data(), px->data.data(),
                                     pg->data.data(), mean, inv_std, n, c);
}

/// Mirrors concat(x_i, x_j - x_i) built from gather/repeat/sub/concat:
/// the gather scatter runs first, then the per-center accumulation, in
/// the same order the unfused chain's reverse-topo walk produces.
void edge_features_bw(TensorImpl& node) {
  TensorImpl* ph = parent(node, 0);
  if (!ph->requires_grad) return;
  ph->ensure_grad();
  simd::active().acc_edge_features_bw(ph->grad.data(), node.grad.data(),
                                      node.ctx->ibuf.data(), ph->shape[0],
                                      node.op_i0, ph->shape[1]);
}

/// Mirrors sub(gather(x, idx_a), repeat(gather(x, idx_b), k)): the
/// repeat-then-gather path accumulates per-group sums first, then the
/// direct gather scatters, matching the unfused reverse-topo order.
void gather_sub_rows_bw(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  if (!px->requires_grad) return;
  px->ensure_grad();
  const std::int64_t k = node.op_i0;
  const std::int64_t c = node.shape[1];
  const std::int64_t nout = node.shape[0] / k;
  const auto& idx = node.ctx->ibuf;  // [idx_a (nout*k) | idx_b (nout)]
  const std::int64_t* idx_a = idx.data();
  const std::int64_t* idx_b = idx.data() + nout * k;
  const float* dy = node.grad.data();
  float* dx = px->grad.data();
  const simd::Kernels& K = simd::active();
  FloatBuffer acc = pool::acquire(static_cast<size_t>(c));
  for (std::int64_t i = 0; i < nout; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (std::int64_t r = 0; r < k; ++r) {
      K.acc_axpy(acc.data(), dy + (i * k + r) * c, -1.0f, static_cast<size_t>(c));
    }
    K.acc_add(dx + idx_b[i] * c, acc.data(), static_cast<size_t>(c));
  }
  for (std::int64_t r = 0; r < nout * k; ++r) {
    K.acc_add(dx + idx_a[r] * c, dy + r * c, static_cast<size_t>(c));
  }
  pool::release(std::move(acc));
}

/// Mirrors concat(concat(a, b), concat(c, d)): the unfused reverse-topo
/// walk splits the right pair before the left one.
void concat_cols4_bw(TensorImpl& node) {
  const std::int64_t n = node.shape[0];
  std::int64_t width[4];
  std::int64_t offset[4];
  std::int64_t total = 0;
  for (int s = 0; s < 4; ++s) {
    width[s] = parent(node, static_cast<size_t>(s))->shape[1];
    offset[s] = total;
    total += width[s];
  }
  const simd::Kernels& K = simd::active();
  for (int s : {2, 3, 0, 1}) {
    TensorImpl* p = parent(node, static_cast<size_t>(s));
    if (!p->requires_grad) continue;
    p->ensure_grad();
    for (std::int64_t i = 0; i < n; ++i) {
      K.acc_add(p->grad.data() + i * width[s], node.grad.data() + i * total + offset[s],
                static_cast<size_t>(width[s]));
    }
  }
}

/// Mirrors mul(x, matmul(col, ones_row)): dx first (the mul backward),
/// then the column gradient as an ascending-j dot per row (the matmul
/// backward's packed accumulation order).
void mul_rows_bw(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* px = parent(node, 0);
  TensorImpl* pc = parent(node, 1);
  const std::int64_t n = node.shape[0], c = node.shape[1];
  const float* col = pc->data.data();
  if (px->requires_grad) {
    px->ensure_grad();
    for (std::int64_t i = 0; i < n; ++i) {
      K.acc_axpy(px->grad.data() + i * c, node.grad.data() + i * c, col[i],
                 static_cast<size_t>(c));
    }
  }
  if (pc->requires_grad) {
    pc->ensure_grad();
    const float* xv = px->data.data();
    // Sequential ascending-j dot, NOT the 8-lane kernel: mul_rows promises
    // bitwise identity with mul(x, matmul(col, ones_row)), whose column
    // gradient runs through the GEMM chain (one mul+add per j, ascending).
    for (std::int64_t i = 0; i < n; ++i) {
      float acc = 0.0f;
      const float* src = node.grad.data() + i * c;
      const float* xr = xv + i * c;
      for (std::int64_t j = 0; j < c; ++j) acc += src[j] * xr[j];
      pc->grad[i] += acc;
    }
  }
}

// ---------------------------------------------------------------------------
// Forward replay rules (compiled step plans, see plan.h). Each rewrites the
// node's value buffer — and any value-dependent saved state such as argmax
// indices — in place from the parents' current data, using exactly the
// kernel and accumulation order of the eager builder above it, so a replayed
// forward is bit-identical to an eager one. Structural state (shapes,
// indices, masks, scalar parameters) is fixed at capture time and only read
// here; bounds were validated during capture, so replays skip the checks.
// ---------------------------------------------------------------------------

void add_fwd(TensorImpl& node) {
  simd::active().ew_add(parent(node, 0)->data.data(), parent(node, 1)->data.data(),
                        node.data.data(), node.data.size());
}

void sub_fwd(TensorImpl& node) {
  simd::active().ew_sub(parent(node, 0)->data.data(), parent(node, 1)->data.data(),
                        node.data.data(), node.data.size());
}

void mul_fwd(TensorImpl& node) {
  simd::active().ew_mul(parent(node, 0)->data.data(), parent(node, 1)->data.data(),
                        node.data.data(), node.data.size());
}

void scale_fwd(TensorImpl& node) {
  simd::active().ew_scale(parent(node, 0)->data.data(), node.op_f0, node.data.data(),
                          node.data.size());
}

void add_scalar_fwd(TensorImpl& node) {
  simd::active().ew_add_scalar(parent(node, 0)->data.data(), node.op_f0,
                               node.data.data(), node.data.size());
}

void add_rowvec_fwd(TensorImpl& node) {
  simd::active().add_rowvec(parent(node, 0)->data.data(), parent(node, 1)->data.data(),
                            node.data.data(), node.shape[0], node.shape[1]);
}

void matmul_fwd(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  TensorImpl* pb = parent(node, 1);
  const std::int64_t n = pa->shape[0], k = pa->shape[1], m = pb->shape[1];
  note_gemm(n, k, m);
  simd::active().gemm_nn_init(pa->data.data(), pb->data.data(), node.data.data(), n, k, m);
}

void linear_fwd(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  TensorImpl* px = parent(node, 0);
  TensorImpl* pw = parent(node, 1);
  const std::int64_t n = px->shape[0], k = px->shape[1], m = pw->shape[1];
  note_gemm(n, k, m);
  K.gemm_nn_init(px->data.data(), pw->data.data(), node.data.data(), n, k, m);
  if (node.parents.size() > 2) {
    K.add_rowvec(node.data.data(), parent(node, 2)->data.data(), node.data.data(), n, m);
  }
}

void relu_fwd(TensorImpl& node) {
  simd::active().ew_relu(parent(node, 0)->data.data(), node.data.data(),
                         node.data.size());
}

void leaky_relu_fwd(TensorImpl& node) {
  simd::active().ew_leaky_relu(parent(node, 0)->data.data(), node.op_f0,
                               node.data.data(), node.data.size());
}

void tanh_fwd(TensorImpl& node) {
  const float* pa = parent(node, 0)->data.data();
  for (size_t i = 0; i < node.data.size(); ++i) node.data[i] = std::tanh(pa[i]);
}

void sigmoid_fwd(TensorImpl& node) {
  const float* pa = parent(node, 0)->data.data();
  for (size_t i = 0; i < node.data.size(); ++i) {
    node.data[i] = 1.0f / (1.0f + std::exp(-pa[i]));
  }
}

void square_fwd(TensorImpl& node) {
  simd::active().ew_square(parent(node, 0)->data.data(), node.data.data(),
                           node.data.size());
}

void sum_fwd(TensorImpl& node) {
  const FloatBuffer& a = parent(node, 0)->data;
  node.data[0] = static_cast<float>(simd::active().reduce_sum_f64(a.data(), a.size()));
}

void row_sum_fwd(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  simd::active().row_sum(pa->data.data(), node.data.data(), pa->shape[0], pa->shape[1]);
}

void sqrt_fwd(TensorImpl& node) {
  const float* pa = parent(node, 0)->data.data();
  const float eps = node.op_f0;
  for (size_t i = 0; i < node.data.size(); ++i) {
    node.data[i] = std::sqrt(std::max(pa[i] + eps, 0.0f));
  }
}

void gather_rows_fwd(TensorImpl& node) {
  const float* px = parent(node, 0)->data.data();
  const std::int64_t c = node.shape[1];
  const auto& idx = node.ctx->ibuf;
  for (size_t i = 0; i < idx.size(); ++i) {
    std::copy_n(px + idx[i] * c, c, node.data.data() + static_cast<std::int64_t>(i) * c);
  }
}

void scatter_rows_fwd(TensorImpl& node) {
  // ctx.fbuf holds the fill template saved at capture time.
  std::copy(node.ctx->fbuf.begin(), node.ctx->fbuf.end(), node.data.begin());
  const float* pr = parent(node, 0)->data.data();
  const std::int64_t c = node.shape[1];
  const auto& idx = node.ctx->ibuf;
  for (size_t i = 0; i < idx.size(); ++i) {
    std::copy_n(pr + static_cast<std::int64_t>(i) * c, c, node.data.data() + idx[i] * c);
  }
}

void weighted_gather_rows_fwd(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  const float* px = parent(node, 0)->data.data();
  const std::int64_t c = node.shape[1];
  const std::int64_t k_per_row = node.op_i0;
  const auto& idx = node.ctx->ibuf;
  const auto& w = node.ctx->fbuf;
  const std::int64_t nout = static_cast<std::int64_t>(idx.size()) / k_per_row;
  std::fill(node.data.begin(), node.data.end(), 0.0f);
  for (std::int64_t i = 0; i < nout; ++i) {
    float* dst = node.data.data() + i * c;
    for (std::int64_t k = 0; k < k_per_row; ++k) {
      K.acc_axpy(dst, px + idx[static_cast<size_t>(i * k_per_row + k)] * c,
                 w[static_cast<size_t>(i * k_per_row + k)], static_cast<size_t>(c));
    }
  }
}

void repeat_rows_fwd(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  const std::int64_t k = node.op_i0;
  const std::int64_t n = px->shape[0], c = px->shape[1];
  const float* src = px->data.data();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t r = 0; r < k; ++r) {
      std::copy_n(src + i * c, c, node.data.data() + (i * k + r) * c);
    }
  }
}

void concat_cols_fwd(TensorImpl& node) {
  TensorImpl* pa = parent(node, 0);
  TensorImpl* pb = parent(node, 1);
  const std::int64_t n = node.shape[0];
  const std::int64_t ca = pa->shape[1], cb = pb->shape[1];
  for (std::int64_t i = 0; i < n; ++i) {
    std::copy_n(pa->data.data() + i * ca, ca, node.data.data() + i * (ca + cb));
    std::copy_n(pb->data.data() + i * cb, cb, node.data.data() + i * (ca + cb) + ca);
  }
}

void concat_cols4_fwd(TensorImpl& node) {
  const std::int64_t n = node.shape[0];
  const std::int64_t total = node.shape[1];
  std::int64_t offset = 0;
  for (size_t s = 0; s < 4; ++s) {
    TensorImpl* p = parent(node, s);
    const std::int64_t w = p->shape[1];
    for (std::int64_t i = 0; i < n; ++i) {
      std::copy_n(p->data.data() + i * w, w, node.data.data() + i * total + offset);
    }
    offset += w;
  }
}

void slice_cols_fwd(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  const std::int64_t c0 = node.op_i0;
  const std::int64_t n = node.shape[0], w = node.shape[1], c = px->shape[1];
  for (std::int64_t i = 0; i < n; ++i) {
    std::copy_n(px->data.data() + i * c + c0, w, node.data.data() + i * w);
  }
}

void scatter_add_cols_fwd(TensorImpl& node) {
  TensorImpl* pbase = parent(node, 0);
  TensorImpl* pdelta = parent(node, 1);
  const std::int64_t col0 = node.op_i0;
  const std::int64_t n = node.shape[0], c = node.shape[1], d = pdelta->shape[1];
  std::copy_n(pbase->data.data(), n * c, node.data.data());
  const float* pd = pdelta->data.data();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < d; ++j) node.data[i * c + col0 + j] += pd[i * d + j];
  }
}

void edge_features_fwd(TensorImpl& node) {
  TensorImpl* ph = parent(node, 0);
  simd::active().edge_features(ph->data.data(), node.ctx->ibuf.data(),
                               node.data.data(), ph->shape[0], node.op_i0,
                               ph->shape[1]);
}

void gather_sub_rows_fwd(TensorImpl& node) {
  TensorImpl* px_node = parent(node, 0);
  const std::int64_t k = node.op_i0;
  const std::int64_t c = node.shape[1];
  const std::int64_t nout = node.shape[0] / k;
  const auto& idx = node.ctx->ibuf;  // [idx_a (nout*k) | idx_b (nout)]
  const std::int64_t* idx_a = idx.data();
  const std::int64_t* idx_b = idx.data() + nout * k;
  const float* px = px_node->data.data();
  for (std::int64_t i = 0; i < nout; ++i) {
    const float* xb = px + idx_b[i] * c;
    for (std::int64_t r = 0; r < k; ++r) {
      const float* xa = px + idx_a[i * k + r] * c;
      float* row = node.data.data() + (i * k + r) * c;
      for (std::int64_t t = 0; t < c; ++t) row[t] = xa[t] - xb[t];
    }
  }
}

void mul_rows_fwd(TensorImpl& node) {
  simd::active().mul_rows(parent(node, 0)->data.data(), parent(node, 1)->data.data(),
                          node.data.data(), node.shape[0], node.shape[1]);
}

void segment_max_fwd(TensorImpl& node) {
  // Value-dependent saved state: the argmax indices backward reads are
  // rewritten alongside the values.
  const float* px = parent(node, 0)->data.data();
  const std::int64_t k = node.op_i0;
  const std::int64_t n = node.shape[0], c = node.shape[1];
  auto& arg = node.ctx->ibuf;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < c; ++j) {
      float best = px[(i * k) * c + j];
      std::int64_t best_r = 0;
      for (std::int64_t r = 1; r < k; ++r) {
        const float v = px[(i * k + r) * c + j];
        if (v > best) {
          best = v;
          best_r = r;
        }
      }
      node.data[i * c + j] = best;
      arg[static_cast<size_t>(i * c + j)] = best_r;
    }
  }
}

void segment_sum_fwd(TensorImpl& node) {
  const simd::Kernels& K = simd::active();
  const float* px = parent(node, 0)->data.data();
  const std::int64_t k = node.op_i0;
  const std::int64_t n = node.shape[0], c = node.shape[1];
  std::fill(node.data.begin(), node.data.end(), 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t r = 0; r < k; ++r) {
      K.acc_add(node.data.data() + i * c, px + (i * k + r) * c, static_cast<size_t>(c));
    }
  }
}

void segment_softmax_fwd(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  const std::int64_t k = node.op_i0;
  const std::int64_t n = px->shape[0] / k, c = px->shape[1];
  FloatBuffer scratch = pool::acquire(static_cast<size_t>(2 * c));
  simd::active().segment_softmax(px->data.data(), node.data.data(), scratch.data(), n,
                                 k, c);
  pool::release(std::move(scratch));
}

void log_softmax_rows_fwd(TensorImpl& node) {
  simd::active().log_softmax_rows(parent(node, 0)->data.data(), node.data.data(),
                                  node.shape[0], node.shape[1]);
}

void nll_loss_masked_fwd(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  const std::int64_t n = px->shape[0], c = px->shape[1];
  const auto& labels = node.ctx->labels;
  const auto& mask = node.ctx->mask;
  const float* p = px->data.data();
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!mask.empty() && !mask[static_cast<size_t>(i)]) continue;
    acc -= p[i * c + labels[static_cast<size_t>(i)]];
  }
  node.data[0] = static_cast<float>(acc * node.op_f0);
}

void hinge_margin_loss_fwd(TensorImpl& node) {
  TensorImpl* px = parent(node, 0);
  const std::int64_t n = px->shape[0], c = px->shape[1];
  const auto& labels = node.ctx->labels;
  const auto& mask = node.ctx->mask;
  auto& best_j = node.ctx->ibuf;  // value-dependent: rewritten per replay
  const bool targeted = node.op_flag;
  const float* z = px->data.data();
  double total = 0.0;
  std::fill(best_j.begin(), best_j.end(), static_cast<std::int64_t>(-1));
  for (std::int64_t i = 0; i < n; ++i) {
    if (!mask.empty() && !mask[static_cast<size_t>(i)]) continue;
    const int y = labels[static_cast<size_t>(i)];
    float best = -std::numeric_limits<float>::infinity();
    std::int64_t bj = -1;
    for (std::int64_t j = 0; j < c; ++j) {
      if (j == y) continue;
      if (z[i * c + j] > best) {
        best = z[i * c + j];
        bj = j;
      }
    }
    const float margin = targeted ? best - z[i * c + y] : z[i * c + y] - best;
    if (margin > 0.0f) {
      total += margin;
      best_j[static_cast<size_t>(i)] = bj;
    }
  }
  node.data[0] = static_cast<float>(total);
}

void smoothness_penalty_fwd(TensorImpl& node) {
  TensorImpl* px_node = parent(node, 0);
  const std::int64_t alpha = node.op_i0;
  const std::int64_t n = px_node->shape[0], c = px_node->shape[1];
  const auto& idx = node.ctx->ibuf;
  const float* px = px_node->data.data();
  double total = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t k = 0; k < alpha; ++k) {
      const std::int64_t j = idx[static_cast<size_t>(i * alpha + k)];
      double d2 = 0.0;
      for (std::int64_t t = 0; t < c; ++t) {
        const double d = px[i * c + t] - px[j * c + t];
        d2 += d * d;
      }
      total += std::sqrt(d2);
    }
  }
  node.data[0] = static_cast<float>(total);
}

void bn_relu_eval_fwd(TensorImpl& node) {
  // Eval-mode running stats are frozen; the [mean | inv_std] pair cached in
  // ctx.fbuf at capture time stays valid across replays.
  const std::int64_t c = node.shape[1];
  const float* mean = node.ctx->fbuf.data();
  const float* inv_std = mean + c;
  simd::active().bn_relu_eval(parent(node, 0)->data.data(),
                              parent(node, 1)->data.data(),
                              parent(node, 2)->data.data(), mean, inv_std,
                              node.data.data(), node.shape[0], c);
}

}  // namespace

// ---------------------------------------------------------------------------
// Elementwise / scalar ops
// ---------------------------------------------------------------------------

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* name) {
  check(a.defined() && b.defined(), std::string(name) + ": undefined input");
  check(a.shape() == b.shape(), std::string(name) + ": shape mismatch " +
                                    shape_str(a.shape()) + " vs " + shape_str(b.shape()));
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  FloatBuffer out = pool::acquire(static_cast<size_t>(a.numel()));
  simd::active().ew_add(a.data(), b.data(), out.data(), out.size());
  return make_node(a.shape(), std::move(out), {a.impl(), b.impl()}, add_bw,
                   {.fwd = add_fwd});
}

Tensor add_inplace(Tensor a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  TensorImplPtr ia = a.impl();
  a = Tensor();  // drop the caller-moved handle so uniqueness is observable
  if (plan::detail::recording() || ia.use_count() != 1 || !ia->grad.empty() ||
      ia->backward_reads_output) {
    // Shared storage (another handle or graph edge), a live gradient, or
    // a node whose own backward needs its output values: fall back to the
    // allocating op. A plan capture also forces the fallback — a stolen
    // operand buffer could not be recomputed at replay — and acc_add(a += b)
    // is bit-identical to ew_add per element, so capture changes no bytes.
    return add(Tensor(std::move(ia)), b);
  }
  FloatBuffer out = std::move(ia->data);
  simd::active().acc_add(out.data(), b.data(), out.size());
  Shape shape = ia->shape;  // before ia moves into the parents list
  return make_node(std::move(shape), std::move(out), {std::move(ia), b.impl()}, add_bw);
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  FloatBuffer out = pool::acquire(static_cast<size_t>(a.numel()));
  simd::active().ew_sub(a.data(), b.data(), out.data(), out.size());
  return make_node(a.shape(), std::move(out), {a.impl(), b.impl()}, sub_bw,
                   {.fwd = sub_fwd});
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  FloatBuffer out = pool::acquire(static_cast<size_t>(a.numel()));
  simd::active().ew_mul(a.data(), b.data(), out.data(), out.size());
  return make_node(a.shape(), std::move(out), {a.impl(), b.impl()}, mul_bw,
                   {.fwd = mul_fwd});
}

Tensor scale(const Tensor& a, float s) {
  check(a.defined(), "scale: undefined input");
  FloatBuffer out = pool::acquire(static_cast<size_t>(a.numel()));
  simd::active().ew_scale(a.data(), s, out.data(), out.size());
  return make_node(a.shape(), std::move(out), {a.impl()}, scale_bw,
                   {.f0 = s, .fwd = scale_fwd});
}

Tensor add_scalar(const Tensor& a, float s) {
  check(a.defined(), "add_scalar: undefined input");
  FloatBuffer out = pool::acquire(static_cast<size_t>(a.numel()));
  simd::active().ew_add_scalar(a.data(), s, out.data(), out.size());
  return make_node(a.shape(), std::move(out), {a.impl()}, add_scalar_bw,
                   {.f0 = s, .fwd = add_scalar_fwd});
}

Tensor neg(const Tensor& a) { return scale(a, -1.0f); }

Tensor add_rowvec(const Tensor& x, const Tensor& bias) {
  check_matrix(x, "add_rowvec");
  check(bias.defined() && bias.numel() == x.dim(1),
        "add_rowvec: bias size must equal column count");
  const std::int64_t n = x.dim(0), c = x.dim(1);
  FloatBuffer out = pool::acquire(static_cast<size_t>(n * c));
  simd::active().add_rowvec(x.data(), bias.data(), out.data(), n, c);
  return make_node(x.shape(), std::move(out), {x.impl(), bias.impl()}, add_rowvec_bw,
                   {.fwd = add_rowvec_fwd});
}

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_matrix(a, "matmul");
  check_matrix(b, "matmul");
  check(a.dim(1) == b.dim(0), "matmul: inner dimensions differ: " + shape_str(a.shape()) +
                                  " x " + shape_str(b.shape()));
  const std::int64_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  // gemm_nn_init overwrites the buffer (chains start at 0), so the
  // acquire skips the zero-fill an accumulating kernel would need.
  FloatBuffer out = pool::acquire(static_cast<size_t>(n * m));
  note_gemm(n, k, m);
  simd::active().gemm_nn_init(a.data(), b.data(), out.data(), n, k, m);
  return make_node({n, m}, std::move(out), {a.impl(), b.impl()}, matmul_bw,
                   {.fwd = matmul_fwd});
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor& bias) {
  check_matrix(x, "linear");
  check_matrix(w, "linear");
  check(x.dim(1) == w.dim(0), "linear: inner dimensions differ: " + shape_str(x.shape()) +
                                  " x " + shape_str(w.shape()));
  const std::int64_t n = x.dim(0), k = x.dim(1), m = w.dim(1);
  const simd::Kernels& K = simd::active();
  FloatBuffer out = pool::acquire(static_cast<size_t>(n * m));
  note_gemm(n, k, m);
  K.gemm_nn_init(x.data(), w.data(), out.data(), n, k, m);
  std::vector<TensorImplPtr> parents{x.impl(), w.impl()};
  if (bias.defined()) {
    check(bias.numel() == m, "linear: bias size must equal output width");
    K.add_rowvec(out.data(), bias.data(), out.data(), n, m);  // in-place epilogue
    parents.push_back(bias.impl());
  }
  return make_node({n, m}, std::move(out), std::move(parents), linear_bw,
                   {.fwd = linear_fwd});
}

// ---------------------------------------------------------------------------
// Nonlinearities
// ---------------------------------------------------------------------------

Tensor relu(const Tensor& a) {
  check(a.defined(), "relu: undefined input");
  FloatBuffer out = pool::acquire(static_cast<size_t>(a.numel()));
  simd::active().ew_relu(a.data(), out.data(), out.size());
  return make_node(a.shape(), std::move(out), {a.impl()}, relu_bw, {.fwd = relu_fwd});
}

Tensor leaky_relu(const Tensor& a, float negative_slope) {
  check(a.defined(), "leaky_relu: undefined input");
  FloatBuffer out = pool::acquire(static_cast<size_t>(a.numel()));
  simd::active().ew_leaky_relu(a.data(), negative_slope, out.data(), out.size());
  return make_node(a.shape(), std::move(out), {a.impl()}, leaky_relu_bw,
                   {.f0 = negative_slope, .fwd = leaky_relu_fwd});
}

Tensor tanh_op(const Tensor& a) {
  check(a.defined(), "tanh: undefined input");
  FloatBuffer out = pool::acquire(static_cast<size_t>(a.numel()));
  const float* pa = a.data();
  for (size_t i = 0; i < out.size(); ++i) out[i] = std::tanh(pa[i]);
  return make_node(a.shape(), std::move(out), {a.impl()}, tanh_bw,
                   {.needs_output = true, .fwd = tanh_fwd});
}

Tensor sigmoid(const Tensor& a) {
  check(a.defined(), "sigmoid: undefined input");
  FloatBuffer out = pool::acquire(static_cast<size_t>(a.numel()));
  const float* pa = a.data();
  for (size_t i = 0; i < out.size(); ++i) out[i] = 1.0f / (1.0f + std::exp(-pa[i]));
  return make_node(a.shape(), std::move(out), {a.impl()}, sigmoid_bw,
                   {.needs_output = true, .fwd = sigmoid_fwd});
}

Tensor square(const Tensor& a) {
  check(a.defined(), "square: undefined input");
  FloatBuffer out = pool::acquire(static_cast<size_t>(a.numel()));
  simd::active().ew_square(a.data(), out.data(), out.size());
  return make_node(a.shape(), std::move(out), {a.impl()}, square_bw,
                   {.fwd = square_fwd});
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

Tensor sum(const Tensor& a) {
  check(a.defined(), "sum: undefined input");
  // 8-lane double accumulation: deterministic across dispatch paths and
  // still (near-)double precision like the previous sequential chain.
  const double acc =
      simd::active().reduce_sum_f64(a.data(), static_cast<size_t>(a.numel()));
  FloatBuffer out = pool::acquire(1);
  out[0] = static_cast<float>(acc);
  return make_node({1}, std::move(out), {a.impl()}, sum_bw, {.fwd = sum_fwd});
}

Tensor mean(const Tensor& a) {
  check(a.defined() && a.numel() > 0, "mean: undefined or empty input");
  return scale(sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor row_sum(const Tensor& a) {
  check_matrix(a, "row_sum");
  const std::int64_t n = a.dim(0), c = a.dim(1);
  FloatBuffer out = pool::acquire(static_cast<size_t>(n));
  simd::active().row_sum(a.data(), out.data(), n, c);
  return make_node({n, 1}, std::move(out), {a.impl()}, row_sum_bw,
                   {.fwd = row_sum_fwd});
}

Tensor sqrt_op(const Tensor& a, float eps) {
  check(a.defined(), "sqrt_op: undefined input");
  FloatBuffer out = pool::acquire(static_cast<size_t>(a.numel()));
  const float* pa = a.data();
  for (size_t i = 0; i < out.size(); ++i) out[i] = std::sqrt(std::max(pa[i] + eps, 0.0f));
  return make_node(a.shape(), std::move(out), {a.impl()}, sqrt_bw,
                   {.f0 = eps, .needs_output = true, .fwd = sqrt_fwd});
}

// ---------------------------------------------------------------------------
// Structure / indexing
// ---------------------------------------------------------------------------

Tensor gather_rows(const Tensor& x, const std::vector<std::int64_t>& idx) {
  check_matrix(x, "gather_rows");
  const std::int64_t n = x.dim(0), c = x.dim(1);
  const std::int64_t m = static_cast<std::int64_t>(idx.size());
  FloatBuffer out = pool::acquire(static_cast<size_t>(m * c));
  const float* px = x.data();
  for (std::int64_t i = 0; i < m; ++i) {
    if (idx[i] < 0 || idx[i] >= n) tensor_fail("gather_rows: index out of range");
    std::copy_n(px + idx[i] * c, c, out.data() + i * c);
  }
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf = idx;
  return make_node({m, c}, std::move(out), {x.impl()}, gather_rows_bw,
                   {.ctx = std::move(ctx), .fwd = gather_rows_fwd});
}

Tensor scatter_rows(const Tensor& rows, const std::vector<std::int64_t>& idx,
                    std::int64_t out_rows, const std::vector<float>& fill) {
  check_matrix(rows, "scatter_rows");
  const std::int64_t m = rows.dim(0), c = rows.dim(1);
  check(static_cast<std::int64_t>(idx.size()) == m, "scatter_rows: idx/rows size mismatch");
  check(static_cast<std::int64_t>(fill.size()) == out_rows * c,
        "scatter_rows: fill size must be out_rows * cols");
  FloatBuffer out = pool::acquire(static_cast<size_t>(out_rows * c));
  std::copy(fill.begin(), fill.end(), out.begin());
  const float* pr = rows.data();
  std::vector<std::uint8_t> seen(static_cast<size_t>(out_rows), 0);
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int64_t row = idx[static_cast<size_t>(i)];
    if (row < 0 || row >= out_rows) tensor_fail("scatter_rows: index out of range");
    // Duplicates would be last-write-wins forward but double-read in
    // backward — wrong gradients with no error — so the documented
    // distinct-index contract is enforced.
    if (seen[static_cast<size_t>(row)]) tensor_fail("scatter_rows: duplicate index");
    seen[static_cast<size_t>(row)] = 1;
    std::copy_n(pr + i * c, c, out.data() + row * c);
  }
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf = idx;
  // The fill template is part of the op's fixed state: replays restore it
  // before scattering, so it is saved alongside the indices.
  ctx->fbuf = pool::acquire(fill.size());
  std::copy(fill.begin(), fill.end(), ctx->fbuf.begin());
  return make_node({out_rows, c}, std::move(out), {rows.impl()}, scatter_rows_bw,
                   {.ctx = std::move(ctx), .fwd = scatter_rows_fwd});
}

Tensor weighted_gather_rows(const Tensor& x, const std::vector<std::int64_t>& idx,
                            const std::vector<float>& weights, std::int64_t k_per_row) {
  check_matrix(x, "weighted_gather_rows");
  check(idx.size() == weights.size(), "weighted_gather_rows: idx/weights size mismatch");
  check(k_per_row > 0 && idx.size() % static_cast<size_t>(k_per_row) == 0,
        "weighted_gather_rows: idx size must be a multiple of k_per_row");
  const std::int64_t nsrc = x.dim(0), c = x.dim(1);
  const std::int64_t nout = static_cast<std::int64_t>(idx.size()) / k_per_row;
  const simd::Kernels& K = simd::active();
  FloatBuffer out = pool::acquire_zeroed(static_cast<size_t>(nout * c));
  const float* px = x.data();
  for (std::int64_t i = 0; i < nout; ++i) {
    float* dst = out.data() + i * c;
    for (std::int64_t k = 0; k < k_per_row; ++k) {
      const std::int64_t src_row = idx[i * k_per_row + k];
      if (src_row < 0 || src_row >= nsrc) {
        tensor_fail("weighted_gather_rows: index out of range");
      }
      K.acc_axpy(dst, px + src_row * c, weights[i * k_per_row + k],
                 static_cast<size_t>(c));
    }
  }
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf = idx;
  ctx->fbuf = pool::acquire(weights.size());
  std::copy(weights.begin(), weights.end(), ctx->fbuf.begin());
  return make_node({nout, c}, std::move(out), {x.impl()}, weighted_gather_rows_bw,
                   {.i0 = k_per_row, .ctx = std::move(ctx),
                    .fwd = weighted_gather_rows_fwd});
}

Tensor repeat_rows(const Tensor& x, std::int64_t k) {
  check_matrix(x, "repeat_rows");
  check(k > 0, "repeat_rows: k must be positive");
  const std::int64_t n = x.dim(0), c = x.dim(1);
  FloatBuffer out = pool::acquire(static_cast<size_t>(n * k * c));
  const float* px = x.data();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t r = 0; r < k; ++r) {
      std::copy_n(px + i * c, c, out.data() + (i * k + r) * c);
    }
  }
  return make_node({n * k, c}, std::move(out), {x.impl()}, repeat_rows_bw,
                   {.i0 = k, .fwd = repeat_rows_fwd});
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  check_matrix(a, "concat_cols");
  check_matrix(b, "concat_cols");
  check(a.dim(0) == b.dim(0), "concat_cols: row counts differ");
  const std::int64_t n = a.dim(0), ca = a.dim(1), cb = b.dim(1);
  FloatBuffer out = pool::acquire(static_cast<size_t>(n * (ca + cb)));
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < n; ++i) {
    std::copy_n(pa + i * ca, ca, out.data() + i * (ca + cb));
    std::copy_n(pb + i * cb, cb, out.data() + i * (ca + cb) + ca);
  }
  return make_node({n, ca + cb}, std::move(out), {a.impl(), b.impl()}, concat_cols_bw,
                   {.fwd = concat_cols_fwd});
}

Tensor concat_cols4(const Tensor& a, const Tensor& b, const Tensor& c, const Tensor& d) {
  const Tensor* parts[4] = {&a, &b, &c, &d};
  std::int64_t total = 0;
  for (const Tensor* t : parts) {
    check_matrix(*t, "concat_cols4");
    check(t->dim(0) == a.dim(0), "concat_cols4: row counts differ");
    total += t->dim(1);
  }
  const std::int64_t n = a.dim(0);
  FloatBuffer out = pool::acquire(static_cast<size_t>(n * total));
  std::int64_t offset = 0;
  for (const Tensor* t : parts) {
    const std::int64_t w = t->dim(1);
    const float* src = t->data();
    for (std::int64_t i = 0; i < n; ++i) {
      std::copy_n(src + i * w, w, out.data() + i * total + offset);
    }
    offset += w;
  }
  return make_node({n, total}, std::move(out),
                   {a.impl(), b.impl(), c.impl(), d.impl()}, concat_cols4_bw,
                   {.fwd = concat_cols4_fwd});
}

Tensor slice_cols(const Tensor& x, std::int64_t c0, std::int64_t c1) {
  check_matrix(x, "slice_cols");
  check(0 <= c0 && c0 < c1 && c1 <= x.dim(1), "slice_cols: bad column range");
  const std::int64_t n = x.dim(0), c = x.dim(1), w = c1 - c0;
  FloatBuffer out = pool::acquire(static_cast<size_t>(n * w));
  const float* px = x.data();
  for (std::int64_t i = 0; i < n; ++i) std::copy_n(px + i * c + c0, w, out.data() + i * w);
  return make_node({n, w}, std::move(out), {x.impl()}, slice_cols_bw,
                   {.i0 = c0, .fwd = slice_cols_fwd});
}

Tensor scatter_add_cols(const Tensor& base, const Tensor& delta, std::int64_t col0) {
  check_matrix(base, "scatter_add_cols");
  check_matrix(delta, "scatter_add_cols");
  check(base.dim(0) == delta.dim(0), "scatter_add_cols: row counts differ");
  check(col0 >= 0 && col0 + delta.dim(1) <= base.dim(1),
        "scatter_add_cols: delta columns exceed base");
  const std::int64_t n = base.dim(0), c = base.dim(1), d = delta.dim(1);
  FloatBuffer out = pool::acquire(static_cast<size_t>(n * c));
  std::copy_n(base.data(), n * c, out.data());
  const float* pd = delta.data();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < d; ++j) out[i * c + col0 + j] += pd[i * d + j];
  }
  return make_node(base.shape(), std::move(out), {base.impl(), delta.impl()},
                   scatter_add_cols_bw, {.i0 = col0, .fwd = scatter_add_cols_fwd});
}

// ---------------------------------------------------------------------------
// Fused model-block ops
// ---------------------------------------------------------------------------

Tensor edge_features(const Tensor& h, const std::vector<std::int64_t>& idx,
                     std::int64_t k) {
  check_matrix(h, "edge_features");
  const std::int64_t n = h.dim(0), c = h.dim(1);
  check(k > 0 && static_cast<std::int64_t>(idx.size()) == n * k,
        "edge_features: idx must have N*k entries");
  for (const std::int64_t j : idx) {
    if (j < 0 || j >= n) tensor_fail("edge_features: index out of range");
  }
  FloatBuffer out = pool::acquire(static_cast<size_t>(n * k * 2 * c));
  simd::active().edge_features(h.data(), idx.data(), out.data(), n, k, c);
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf = idx;
  return make_node({n * k, 2 * c}, std::move(out), {h.impl()}, edge_features_bw,
                   {.i0 = k, .ctx = std::move(ctx), .fwd = edge_features_fwd});
}

Tensor gather_sub_rows(const Tensor& x, const std::vector<std::int64_t>& idx_a,
                       const std::vector<std::int64_t>& idx_b, std::int64_t k) {
  check_matrix(x, "gather_sub_rows");
  check(k > 0 && idx_a.size() == idx_b.size() * static_cast<size_t>(k),
        "gather_sub_rows: idx_a must have k entries per idx_b entry");
  const std::int64_t n = x.dim(0), c = x.dim(1);
  const std::int64_t nout = static_cast<std::int64_t>(idx_b.size());
  FloatBuffer out = pool::acquire(static_cast<size_t>(nout * k * c));
  const float* px = x.data();
  for (std::int64_t i = 0; i < nout; ++i) {
    if (idx_b[static_cast<size_t>(i)] < 0 || idx_b[static_cast<size_t>(i)] >= n) {
      tensor_fail("gather_sub_rows: center index out of range");
    }
    const float* xb = px + idx_b[static_cast<size_t>(i)] * c;
    for (std::int64_t r = 0; r < k; ++r) {
      const std::int64_t a = idx_a[static_cast<size_t>(i * k + r)];
      if (a < 0 || a >= n) tensor_fail("gather_sub_rows: neighbor index out of range");
      const float* xa = px + a * c;
      float* row = out.data() + (i * k + r) * c;
      for (std::int64_t t = 0; t < c; ++t) row[t] = xa[t] - xb[t];
    }
  }
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf.reserve(idx_a.size() + idx_b.size());
  ctx->ibuf.insert(ctx->ibuf.end(), idx_a.begin(), idx_a.end());
  ctx->ibuf.insert(ctx->ibuf.end(), idx_b.begin(), idx_b.end());
  return make_node({nout * k, c}, std::move(out), {x.impl()}, gather_sub_rows_bw,
                   {.i0 = k, .ctx = std::move(ctx), .fwd = gather_sub_rows_fwd});
}

Tensor mul_rows(const Tensor& x, const Tensor& col) {
  check_matrix(x, "mul_rows");
  check(col.defined() && col.rank() == 2 && col.dim(1) == 1 && col.dim(0) == x.dim(0),
        "mul_rows: col must be [N, 1] with matching rows");
  const std::int64_t n = x.dim(0), c = x.dim(1);
  FloatBuffer out = pool::acquire(static_cast<size_t>(n * c));
  simd::active().mul_rows(x.data(), col.data(), out.data(), n, c);
  return make_node(x.shape(), std::move(out), {x.impl(), col.impl()}, mul_rows_bw,
                   {.fwd = mul_rows_fwd});
}

// ---------------------------------------------------------------------------
// Segment (neighbor-group) reductions
// ---------------------------------------------------------------------------

namespace {

void check_segments(const Tensor& x, std::int64_t k, const char* name) {
  check_matrix(x, name);
  check(k > 0 && x.dim(0) % k == 0,
        std::string(name) + ": row count must be a multiple of k");
}

}  // namespace

Tensor segment_max(const Tensor& x, std::int64_t k) {
  check_segments(x, k, "segment_max");
  const std::int64_t n = x.dim(0) / k, c = x.dim(1);
  FloatBuffer out = pool::acquire(static_cast<size_t>(n * c));
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf.resize(static_cast<size_t>(n * c));
  const float* px = x.data();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < c; ++j) {
      float best = px[(i * k) * c + j];
      std::int64_t best_r = 0;
      for (std::int64_t r = 1; r < k; ++r) {
        const float v = px[(i * k + r) * c + j];
        if (v > best) {
          best = v;
          best_r = r;
        }
      }
      out[i * c + j] = best;
      ctx->ibuf[static_cast<size_t>(i * c + j)] = best_r;
    }
  }
  return make_node({n, c}, std::move(out), {x.impl()}, segment_max_bw,
                   {.i0 = k, .ctx = std::move(ctx), .fwd = segment_max_fwd});
}

Tensor segment_sum(const Tensor& x, std::int64_t k) {
  check_segments(x, k, "segment_sum");
  const std::int64_t n = x.dim(0) / k, c = x.dim(1);
  const simd::Kernels& K = simd::active();
  FloatBuffer out = pool::acquire_zeroed(static_cast<size_t>(n * c));
  const float* px = x.data();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t r = 0; r < k; ++r) {
      K.acc_add(out.data() + i * c, px + (i * k + r) * c, static_cast<size_t>(c));
    }
  }
  return make_node({n, c}, std::move(out), {x.impl()}, segment_sum_bw,
                   {.i0 = k, .fwd = segment_sum_fwd});
}

Tensor segment_mean(const Tensor& x, std::int64_t k) {
  return scale(segment_sum(x, k), 1.0f / static_cast<float>(k));
}

Tensor segment_softmax(const Tensor& x, std::int64_t k) {
  check_segments(x, k, "segment_softmax");
  const std::int64_t n = x.dim(0) / k, c = x.dim(1);
  FloatBuffer out = pool::acquire(static_cast<size_t>(x.numel()));
  FloatBuffer scratch = pool::acquire(static_cast<size_t>(2 * c));
  simd::active().segment_softmax(x.data(), out.data(), scratch.data(), n, k, c);
  pool::release(std::move(scratch));
  return make_node(x.shape(), std::move(out), {x.impl()}, segment_softmax_bw,
                   {.i0 = k, .needs_output = true, .fwd = segment_softmax_fwd});
}

// ---------------------------------------------------------------------------
// Probabilistic heads and losses
// ---------------------------------------------------------------------------

Tensor log_softmax_rows(const Tensor& x) {
  check_matrix(x, "log_softmax_rows");
  const std::int64_t n = x.dim(0), c = x.dim(1);
  FloatBuffer out = pool::acquire(static_cast<size_t>(n * c));
  simd::active().log_softmax_rows(x.data(), out.data(), n, c);
  return make_node(x.shape(), std::move(out), {x.impl()}, log_softmax_rows_bw,
                   {.needs_output = true, .fwd = log_softmax_rows_fwd});
}

Tensor nll_loss_masked(const Tensor& log_probs, const std::vector<int>& labels,
                       const std::vector<std::uint8_t>& mask) {
  check_matrix(log_probs, "nll_loss_masked");
  const std::int64_t n = log_probs.dim(0), c = log_probs.dim(1);
  check(static_cast<std::int64_t>(labels.size()) == n, "nll_loss_masked: labels size");
  check(mask.empty() || static_cast<std::int64_t>(mask.size()) == n,
        "nll_loss_masked: mask size");
  double acc = 0.0;
  std::int64_t count = 0;
  const float* p = log_probs.data();
  for (std::int64_t i = 0; i < n; ++i) {
    if (!mask.empty() && !mask[i]) continue;
    check(labels[i] >= 0 && labels[i] < c, "nll_loss_masked: label out of range");
    acc -= p[i * c + labels[i]];
    ++count;
  }
  check(count > 0, "nll_loss_masked: empty selection");
  const float inv = 1.0f / static_cast<float>(count);
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->labels = labels;
  ctx->mask = mask;
  FloatBuffer out = pool::acquire(1);
  out[0] = static_cast<float>(acc * inv);
  return make_node({1}, std::move(out), {log_probs.impl()}, nll_loss_masked_bw,
                   {.f0 = inv, .ctx = std::move(ctx), .fwd = nll_loss_masked_fwd});
}

Tensor hinge_margin_loss(const Tensor& logits, const std::vector<int>& labels,
                         const std::vector<std::uint8_t>& mask, bool targeted) {
  check_matrix(logits, "hinge_margin_loss");
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  check(static_cast<std::int64_t>(labels.size()) == n, "hinge_margin_loss: labels size");
  check(mask.empty() || static_cast<std::int64_t>(mask.size()) == n,
        "hinge_margin_loss: mask size");
  check(c >= 2, "hinge_margin_loss: needs at least 2 classes");
  const float* z = logits.data();
  double total = 0.0;
  // For each active row, remember the competing argmax (j != y) and whether
  // the hinge is active, for the backward pass.
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf.assign(static_cast<size_t>(n), -1);
  ctx->labels = labels;
  ctx->mask = mask;  // replays recompute the active set from the fixed mask
  for (std::int64_t i = 0; i < n; ++i) {
    if (!mask.empty() && !mask[i]) continue;
    const int y = labels[i];
    check(y >= 0 && y < c, "hinge_margin_loss: label out of range");
    float best = -std::numeric_limits<float>::infinity();
    std::int64_t bj = -1;
    for (std::int64_t j = 0; j < c; ++j) {
      if (j == y) continue;
      if (z[i * c + j] > best) {
        best = z[i * c + j];
        bj = j;
      }
    }
    const float margin = targeted ? best - z[i * c + y] : z[i * c + y] - best;
    if (margin > 0.0f) {
      total += margin;
      ctx->ibuf[static_cast<size_t>(i)] = bj;
    }
  }
  FloatBuffer out = pool::acquire(1);
  out[0] = static_cast<float>(total);
  return make_node({1}, std::move(out), {logits.impl()}, hinge_margin_loss_bw,
                   {.flag = targeted, .ctx = std::move(ctx),
                    .fwd = hinge_margin_loss_fwd});
}

Tensor smoothness_penalty(const Tensor& x, const std::vector<std::int64_t>& neighbor_idx,
                          std::int64_t alpha) {
  check_matrix(x, "smoothness_penalty");
  const std::int64_t n = x.dim(0), c = x.dim(1);
  check(alpha > 0 && static_cast<std::int64_t>(neighbor_idx.size()) == n * alpha,
        "smoothness_penalty: neighbor_idx must have N*alpha entries");
  const float* px = x.data();
  double total = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t k = 0; k < alpha; ++k) {
      const std::int64_t j = neighbor_idx[i * alpha + k];
      check(j >= 0 && j < n, "smoothness_penalty: neighbor index out of range");
      double d2 = 0.0;
      for (std::int64_t t = 0; t < c; ++t) {
        const double d = px[i * c + t] - px[j * c + t];
        d2 += d * d;
      }
      total += std::sqrt(d2);
    }
  }
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->ibuf = neighbor_idx;
  FloatBuffer out = pool::acquire(1);
  out[0] = static_cast<float>(total);
  return make_node({1}, std::move(out), {x.impl()}, smoothness_penalty_bw,
                   {.i0 = alpha, .ctx = std::move(ctx), .fwd = smoothness_penalty_fwd});
}

// ---------------------------------------------------------------------------
// Normalization / regularization
// ---------------------------------------------------------------------------

Tensor batch_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  std::vector<float>& running_mean, std::vector<float>& running_var,
                  bool training, float momentum, float eps) {
  check_matrix(x, "batch_norm");
  const std::int64_t n = x.dim(0), c = x.dim(1);
  check(gamma.numel() == c && beta.numel() == c, "batch_norm: affine parameter size");
  check(static_cast<std::int64_t>(running_mean.size()) == c &&
            static_cast<std::int64_t>(running_var.size()) == c,
        "batch_norm: running stats size");
  const float* px = x.data();
  std::vector<float> mean_v(static_cast<size_t>(c)), inv_std(static_cast<size_t>(c));
  if (training) {
    for (std::int64_t j = 0; j < c; ++j) {
      double m = 0.0;
      for (std::int64_t i = 0; i < n; ++i) m += px[i * c + j];
      m /= static_cast<double>(n);
      double var = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        const double d = px[i * c + j] - m;
        var += d * d;
      }
      var /= static_cast<double>(n);
      mean_v[j] = static_cast<float>(m);
      inv_std[j] = 1.0f / std::sqrt(static_cast<float>(var) + eps);
      running_mean[j] = (1.0f - momentum) * running_mean[j] + momentum * static_cast<float>(m);
      running_var[j] = (1.0f - momentum) * running_var[j] + momentum * static_cast<float>(var);
    }
  } else {
    for (std::int64_t j = 0; j < c; ++j) {
      mean_v[j] = running_mean[j];
      inv_std[j] = 1.0f / std::sqrt(running_var[j] + eps);
    }
  }
  FloatBuffer out = pool::acquire(static_cast<size_t>(n * c));
  // ctx.fbuf layout: [xhat (n*c) | inv_std (c)].
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->fbuf = pool::acquire(static_cast<size_t>(n * c + c));
  float* xhat = ctx->fbuf.data();
  simd::active().bn_affine(px, gamma.data(), beta.data(), mean_v.data(),
                           inv_std.data(), out.data(), xhat, n, c);
  std::copy_n(inv_std.data(), c, xhat + n * c);
  return make_node(x.shape(), std::move(out), {x.impl(), gamma.impl(), beta.impl()},
                   batch_norm_bw, {.flag = training, .ctx = std::move(ctx)});
}

Tensor bn_relu_eval(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                    const std::vector<float>& running_mean,
                    const std::vector<float>& running_var, float eps) {
  check_matrix(x, "bn_relu_eval");
  const std::int64_t n = x.dim(0), c = x.dim(1);
  check(gamma.numel() == c && beta.numel() == c, "bn_relu_eval: affine parameter size");
  check(static_cast<std::int64_t>(running_mean.size()) == c &&
            static_cast<std::int64_t>(running_var.size()) == c,
        "bn_relu_eval: running stats size");
  // ctx.fbuf layout: [mean (c) | inv_std (c)].
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->fbuf = pool::acquire(static_cast<size_t>(2 * c));
  float* mean = ctx->fbuf.data();
  float* inv_std = mean + c;
  for (std::int64_t j = 0; j < c; ++j) {
    mean[j] = running_mean[j];
    inv_std[j] = 1.0f / std::sqrt(running_var[j] + eps);
  }
  FloatBuffer out = pool::acquire(static_cast<size_t>(n * c));
  // Same expression shapes as the unfused bn -> relu chain, so the fused
  // output is bit-identical to relu(batch_norm(x, ..., eval)).
  simd::active().bn_relu_eval(x.data(), gamma.data(), beta.data(), mean, inv_std,
                              out.data(), n, c);
  return make_node(x.shape(), std::move(out), {x.impl(), gamma.impl(), beta.impl()},
                   bn_relu_eval_bw,
                   {.needs_output = true, .ctx = std::move(ctx), .fwd = bn_relu_eval_fwd});
}

Tensor dropout(const Tensor& x, float p, Rng& rng, bool training) {
  check(x.defined(), "dropout: undefined input");
  check(p >= 0.0f && p < 1.0f, "dropout: p must be in [0, 1)");
  if (!training || p == 0.0f) {
    // Identity: return the input handle itself. Gradients flow to x
    // unchanged, and the attack hot path (always eval mode) skips a full
    // copy plus a graph node per forward.
    return x;
  }
  const float keep = 1.0f - p;
  auto ctx = std::make_unique<BackwardCtx>();
  ctx->fbuf = pool::acquire(static_cast<size_t>(x.numel()));
  FloatBuffer out = pool::acquire(static_cast<size_t>(x.numel()));
  const float* px = x.data();
  for (size_t i = 0; i < out.size(); ++i) {
    const float m = rng.uniform() < p ? 0.0f : 1.0f / keep;
    ctx->fbuf[i] = m;
    out[i] = px[i] * m;
  }
  return make_node(x.shape(), std::move(out), {x.impl()}, dropout_bw,
                   {.ctx = std::move(ctx)});
}

// ---------------------------------------------------------------------------
// Non-differentiable helpers
// ---------------------------------------------------------------------------

std::vector<int> argmax_rows(const Tensor& x) {
  check_matrix(x, "argmax_rows");
  const std::int64_t n = x.dim(0), c = x.dim(1);
  std::vector<int> out(static_cast<size_t>(n));
  const float* px = x.data();
  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < c; ++j) {
      if (px[i * c + j] > px[i * c + best]) best = j;
    }
    out[i] = static_cast<int>(best);
  }
  return out;
}

}  // namespace pcss::tensor::ops
