#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pcss/tensor/tensor.h"

namespace pcss::tensor::plan {

// ---------------------------------------------------------------------------
// Compiled step plans: capture-once / replay-many execution for loops that
// run the *same* autograd graph every iteration (the attack inner loop).
//
// Capture: a PlanBuilder turns on thread-local recording; one ordinary eager
// step then runs — every gradient-carrying node that ops.cpp materializes is
// appended to a flat op list in creation order (a valid topological order by
// construction), and Tensor::backward() records each backward rule as it
// fires, together with the parent gradients that rule allocates, and keeps
// the graph instead of releasing it. finish() freezes the result into a
// CompiledPlan.
//
// The arena: a plan does not copy values into new storage — it *pins* the
// step's pooled value buffers, saved contexts and leaf/root gradients by
// retaining every graph node. Interior gradients (nodes with a backward rule
// other than the root) are not pinned per node: eager backward releases each
// one as soon as its own rule has fired, and the plan serves them from its
// own gradient slots, assigned at capture so that slots are shared by
// gradients whose lifetimes do not overlap (their total is about the largest
// set that is live at once). Buffer addresses, saved-index contexts and the
// resolved per-op function pointers are all fixed at capture time, and the
// plan layer itself never acquires from the buffer pool (lint rule D008).
// Ops that a replay runs may still acquire scratch of their own: gemm_a_bt
// packs its transposed operand into a pooled buffer on every call.
//
// Replay:
//   replay_forward()  — run each recorded node's ForwardFn in capture order,
//                       rewriting node.data (and value-dependent saved state
//                       such as segment-max argmaxes) in place from the
//                       parents' current data.
//   replay_backward() — zero the pinned leaf/root gradients, seed the scalar
//                       root with 1, and fire the captured backward schedule:
//                       before each rule, hand a zeroed slot to every
//                       interior gradient that rule writes first; after it,
//                       take the rule's own gradient back into its slot.
//                       Accumulation order is the capture step's eager order,
//                       so replayed gradients are bit-identical to eager mode.
//
// Capturability: every recorded node must carry a ForwardFn. Ops whose
// forward has step-varying side effects outside the graph (training-mode
// batch norm's running statistics, training-mode dropout's fresh RNG mask)
// deliberately have none, so finish() fails and the caller stays eager.
// Graphs whose *shape* changes between steps (host-side kNN over perturbed
// positions, L0 masks shrinking) must not be replayed either — callers key
// re-capture off an explicit invalidation epoch (Projection::plan_epoch).
// ---------------------------------------------------------------------------

/// Size/shape summary of a captured plan, for tooling (pcss_run stats).
struct PlanStats {
  std::size_t forward_ops = 0;   ///< recorded nodes replayed per step
  std::size_t backward_ops = 0;  ///< backward rules fired per step
  std::size_t grad_buffers = 0;  ///< gradient buffers zeroed per step
  std::size_t grad_slots = 0;    ///< plan-owned interior-gradient slots
  std::size_t nodes = 0;         ///< retained graph nodes (incl. constants)
  std::size_t arena_floats = 0;  ///< pinned value, gradient, context and slot floats
};

/// One captured step: flat forward/backward schedules over pinned graph
/// nodes. Replay-only; build one with PlanBuilder. Movable, not copyable
/// (the plan owns the retained graph).
class CompiledPlan {
 public:
  CompiledPlan() = default;
  CompiledPlan(CompiledPlan&&) = default;
  CompiledPlan& operator=(CompiledPlan&&) = default;
  CompiledPlan(const CompiledPlan&) = delete;
  CompiledPlan& operator=(const CompiledPlan&) = delete;

  bool valid() const { return root_ != nullptr; }
  /// Drops the plan and its retained graph (buffers return to the pool as
  /// the node refcounts unwind).
  void reset();

  /// Recomputes every recorded node's value in capture order. The caller
  /// must have refreshed any persistent leaf values first (the plan reads
  /// leaves, it never writes them).
  void replay_forward() const;

  /// Zeroes the pinned gradients, seeds the root, fires the captured
  /// backward schedule with interior gradients served from the plan's
  /// slots. Call after replay_forward(). Like eager backward, it leaves
  /// interior gradients empty and leaf gradients filled.
  void replay_backward() const;

  PlanStats stats() const;

 private:
  friend class PlanBuilder;

  /// One forward schedule entry: the op's resolved function pointer plus
  /// the node it executes on (whose pinned buffers are the operands).
  struct Step {
    void (*fn)(TensorImpl&) = nullptr;
    TensorImpl* node = nullptr;
  };

  /// An interior gradient taking its slot before the rule that writes it
  /// first.
  struct Bind {
    TensorImpl* node = nullptr;
    std::size_t slot = 0;
  };

  /// One backward schedule entry: binds_[bind_begin, bind_end) take their
  /// slots, the rule fires, then the node's own gradient returns to slot
  /// `release` (kNoSlot for the root, whose gradient is pinned).
  struct BackwardStep {
    void (*fn)(TensorImpl&) = nullptr;
    TensorImpl* node = nullptr;
    std::size_t bind_begin = 0;
    std::size_t bind_end = 0;
    std::size_t release = 0;
  };
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  std::vector<Step> forward_;           ///< capture order (topological)
  std::vector<BackwardStep> backward_;  ///< the order the capture's rules fired
  std::vector<Bind> binds_;             ///< slot hand-outs, in schedule order
  std::vector<FloatBuffer*> zeroed_;    ///< pinned leaf and root grads
  /// Interior-gradient storage. A replay moves each slot into its node's
  /// grad and back, so the buffers are mutated by a const replay exactly
  /// like the pinned node buffers are.
  mutable std::vector<FloatBuffer> slots_;
  TensorImpl* root_ = nullptr;          ///< scalar loss node
  std::vector<TensorImplPtr> keep_;     ///< pins every graph node (the arena)
};

/// Records the next eager step on this thread into a CompiledPlan. Scoped:
/// construction turns recording on, finish()/abort()/destruction turn it
/// off. One builder per thread at a time; capture and replay of the
/// resulting plan may happen on different threads (but not concurrently).
class PlanBuilder {
 public:
  PlanBuilder();
  ~PlanBuilder();
  PlanBuilder(const PlanBuilder&) = delete;
  PlanBuilder& operator=(const PlanBuilder&) = delete;

  /// Freezes the recorded step into `out`. Returns false — leaving `out`
  /// untouched — when the step was not capturable: no backward() ran, a
  /// recorded op carries no ForwardFn (training-mode batch norm or
  /// dropout), or an interior gradient already held values when backward()
  /// started. The builder is spent either way.
  bool finish(CompiledPlan& out);

  /// Stops recording and discards everything recorded so far.
  void abort();

 private:
  bool active_ = false;
};

namespace detail {

/// True while the current thread is inside an active PlanBuilder. ops.cpp
/// checks this in make_node (to record) and in the in-place fast paths
/// (which must fall back to their allocating forms during capture: a
/// stolen operand buffer could not be replayed).
bool recording() noexcept;

/// Appends a freshly built gradient-carrying node to the recording
/// thread's op list. Called by make_node only when recording() is true.
void record_node(const TensorImplPtr& node);

/// Fires `node`'s backward rule on a recording thread and notes which
/// parent gradients the rule allocated (empty before, filled after): those
/// gradients live from this step to their own node's step. Called by
/// Tensor::backward() in place of `node.backward_fn(node)` while
/// recording().
void capture_step(TensorImpl& node);

/// Hook at the end of Tensor::backward(): when this thread is recording,
/// keeps the graph rooted at `root` (whose post-order walk is `order`) for
/// the plan and returns true — the caller must then *skip* releasing the
/// graph, since the plan pins it. Returns false when not recording.
bool capture_backward(const TensorImplPtr& root,
                      const std::vector<TensorImplPtr>& order);

}  // namespace detail

}  // namespace pcss::tensor::plan
