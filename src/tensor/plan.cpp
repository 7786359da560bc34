#include "pcss/tensor/plan.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

// The plan layer never acquires from the buffer pool (lint rule D008): every
// value buffer a replay touches was pinned at capture time, and interior
// gradients come from the plan's own slots. Scratch that the replayed ops
// acquire themselves (gemm_a_bt's packed transpose) is outside this TU.

namespace pcss::tensor::plan {

namespace {

/// Per-thread capture state. One PlanBuilder owns this at a time; the
/// recording flag is what make_node and the in-place fast paths poll.
struct Recorder {
  /// A gradient that a backward rule allocated: `node`'s grad was first
  /// written by the rule fired at index `step`.
  struct FirstWrite {
    std::size_t step = 0;
    TensorImpl* node = nullptr;
  };

  bool active = false;
  bool backward_captured = false;
  std::vector<TensorImplPtr> recorded;  ///< rg nodes, creation order
  TensorImplPtr root;                   ///< scalar backward root
  std::vector<TensorImplPtr> order;     ///< backward's post-order walk
  std::vector<TensorImpl*> fired;       ///< nodes whose rule fired, in order
  std::vector<FirstWrite> first_writes;  ///< in step order
  std::vector<TensorImpl*> unwritten;   ///< capture_step scratch

  void clear() {
    active = false;
    backward_captured = false;
    recorded.clear();
    root.reset();
    order.clear();
    fired.clear();
    first_writes.clear();
  }
};

thread_local Recorder tl_recorder;

}  // namespace

namespace {

/// The free slot to give an n-float gradient: the smallest one that holds
/// n, else the largest one (to be grown), else end() (open a new slot).
std::vector<std::size_t>::iterator best_free_slot(std::vector<std::size_t>& free_slots,
                                                  const std::vector<std::size_t>& capacity,
                                                  std::size_t n) {
  auto best = free_slots.end();
  for (auto it = free_slots.begin(); it != free_slots.end(); ++it) {
    if (best == free_slots.end()) {
      best = it;
      continue;
    }
    const bool fits = capacity[*it] >= n;
    const bool best_fits = capacity[*best] >= n;
    if (fits != best_fits) {
      if (fits) best = it;
    } else if (fits ? capacity[*it] < capacity[*best] : capacity[*it] > capacity[*best]) {
      best = it;
    }
  }
  return best;
}

}  // namespace

namespace detail {

bool recording() noexcept { return tl_recorder.active; }

void record_node(const TensorImplPtr& node) { tl_recorder.recorded.push_back(node); }

void capture_step(TensorImpl& node) {
  Recorder& rec = tl_recorder;
  rec.unwritten.clear();
  for (const TensorImplPtr& parent : node.parents) {
    if (parent && parent->grad.empty() &&
        std::find(rec.unwritten.begin(), rec.unwritten.end(), parent.get()) ==
            rec.unwritten.end()) {
      rec.unwritten.push_back(parent.get());
    }
  }
  node.backward_fn(node);
  for (TensorImpl* parent : rec.unwritten) {
    if (!parent->grad.empty()) rec.first_writes.push_back({rec.fired.size(), parent});
  }
  rec.fired.push_back(&node);
}

bool capture_backward(const TensorImplPtr& root,
                      const std::vector<TensorImplPtr>& order) {
  Recorder& rec = tl_recorder;
  if (!rec.active) return false;
  rec.root = root;
  rec.order = order;
  rec.backward_captured = true;
  return true;  // the plan pins the graph; the caller must not release it
}

}  // namespace detail

// ---------------------------------------------------------------------------
// CompiledPlan
// ---------------------------------------------------------------------------

void CompiledPlan::reset() {
  forward_.clear();
  backward_.clear();
  binds_.clear();
  zeroed_.clear();
  slots_.clear();
  root_ = nullptr;
  keep_.clear();  // unpins the graph; buffers return to the pool as nodes die
}

void CompiledPlan::replay_forward() const {
  for (const Step& step : forward_) step.fn(*step.node);
}

void CompiledPlan::replay_backward() const {
  // Same starting state as eager: the leaf and root gradients backward will
  // touch are zero-filled (eager gets this from lazily pool-zeroed fresh
  // buffers; the plan reuses the pinned ones), then the scalar root seeds
  // the walk.
  for (FloatBuffer* grad : zeroed_) std::fill(grad->begin(), grad->end(), 0.0f);
  root_->grad[0] = 1.0f;
  for (const BackwardStep& step : backward_) {
    // An interior gradient lives from the rule that writes it first to its
    // own rule, as in eager backward. The slot's capacity covers every
    // gradient assigned to it, so assign() never reallocates.
    for (std::size_t b = step.bind_begin; b < step.bind_end; ++b) {
      TensorImpl& node = *binds_[b].node;
      node.grad.swap(slots_[binds_[b].slot]);
      node.grad.assign(static_cast<std::size_t>(node.numel()), 0.0f);
    }
    step.fn(*step.node);
    if (step.release != kNoSlot) step.node->grad.swap(slots_[step.release]);
  }
}

PlanStats CompiledPlan::stats() const {
  PlanStats s;
  s.forward_ops = forward_.size();
  s.backward_ops = backward_.size();
  s.grad_buffers = zeroed_.size() + binds_.size();
  s.grad_slots = slots_.size();
  s.nodes = keep_.size();
  for (const TensorImplPtr& node : keep_) {
    s.arena_floats += node->data.size() + node->grad.size();
    if (node->ctx) s.arena_floats += node->ctx->fbuf.size();
  }
  for (const FloatBuffer& slot : slots_) s.arena_floats += slot.capacity();
  return s;
}

// ---------------------------------------------------------------------------
// PlanBuilder
// ---------------------------------------------------------------------------

PlanBuilder::PlanBuilder() {
  if (tl_recorder.active) {
    tensor_fail("PlanBuilder: a capture is already active on this thread");
  }
  tl_recorder.clear();
  tl_recorder.active = true;
  active_ = true;
}

PlanBuilder::~PlanBuilder() {
  if (active_) abort();
}

void PlanBuilder::abort() {
  tl_recorder.clear();
  active_ = false;
}

bool PlanBuilder::finish(CompiledPlan& out) {
  Recorder& rec = tl_recorder;
  rec.active = false;
  active_ = false;
  const bool capturable =
      rec.backward_captured && rec.root != nullptr && rec.root->numel() == 1 &&
      std::all_of(rec.recorded.begin(), rec.recorded.end(),
                  [](const TensorImplPtr& n) { return n->forward_fn != nullptr; });
  if (!capturable) {
    // Not a replayable step (no backward ran, or an op without a ForwardFn
    // — training-mode batch norm / dropout). Dropping the recorder state
    // lets the step's graph unwind exactly as an eager step would.
    rec.clear();
    return false;
  }

  CompiledPlan plan;
  plan.forward_.reserve(rec.recorded.size());
  for (const TensorImplPtr& node : rec.recorded) {
    plan.forward_.push_back({node->forward_fn, node.get()});
  }
  // The backward schedule is the rules the capture fired, in order. Every
  // interior gradient gets a slot, which it occupies from the step that
  // writes it first through its own node's step; a slot is free again once
  // its occupant's step has fired. Best-fit reuse keeps the slots' total
  // near the largest set of gradients live at once.
  std::unordered_map<const TensorImpl*, std::size_t> slot_of;
  std::vector<std::size_t> capacity;
  std::vector<std::size_t> free_slots;
  std::size_t next_write = 0;
  for (std::size_t i = 0; i < rec.fired.size(); ++i) {
    CompiledPlan::BackwardStep step;
    step.fn = rec.fired[i]->backward_fn;
    step.node = rec.fired[i];
    step.bind_begin = plan.binds_.size();
    for (; next_write < rec.first_writes.size() && rec.first_writes[next_write].step == i;
         ++next_write) {
      TensorImpl* node = rec.first_writes[next_write].node;
      if (node->backward_fn == nullptr) continue;  // a leaf: its grad is pinned
      const auto n = static_cast<std::size_t>(node->numel());
      const auto best = best_free_slot(free_slots, capacity, n);
      std::size_t slot = capacity.size();
      if (best != free_slots.end()) {
        slot = *best;
        free_slots.erase(best);
      } else {
        capacity.push_back(0);
      }
      capacity[slot] = std::max(capacity[slot], n);
      slot_of[node] = slot;
      plan.binds_.push_back({node, slot});
    }
    step.bind_end = plan.binds_.size();
    step.release = CompiledPlan::kNoSlot;
    if (step.node != rec.root.get()) {
      const auto it = slot_of.find(step.node);
      if (it == slot_of.end()) {
        // The interior gradient existed before backward started, so no
        // rule of this step allocated it: not a replayable step.
        rec.clear();
        return false;
      }
      step.release = it->second;
      free_slots.push_back(it->second);
    }
    plan.backward_.push_back(step);
  }
  plan.slots_.resize(capacity.size());
  for (std::size_t slot = 0; slot < capacity.size(); ++slot) {
    plan.slots_[slot].reserve(capacity[slot]);
  }
  // Eager backward released every interior gradient, so the gradients
  // still held are the pinned ones: leaves and the root.
  for (const TensorImplPtr& node : rec.order) {
    if (!node->grad.empty()) plan.zeroed_.push_back(&node->grad);
  }
  plan.root_ = rec.root.get();

  // Pin every node either schedule can touch: the backward order (which
  // includes leaves and constants) plus any recorded node that is not
  // reachable from the root.
  plan.keep_ = rec.order;
  std::unordered_set<TensorImpl*> kept;
  kept.reserve(plan.keep_.size());
  for (const TensorImplPtr& node : plan.keep_) kept.insert(node.get());
  for (const TensorImplPtr& node : rec.recorded) {
    if (kept.insert(node.get()).second) plan.keep_.push_back(node);
  }

  rec.clear();
  out = std::move(plan);
  return true;
}

}  // namespace pcss::tensor::plan
