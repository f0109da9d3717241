// Internal pieces shared by the two Van Ginneken DP kernels
// (core/vanginneken.cpp holds the reference kernel and the common driver
// fold; core/vanginneken_fast.cpp holds the default fast kernel). Not part
// of the public API — include core/vanginneken.hpp instead.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <deque>
#include <vector>

#include "core/plan.hpp"
#include "core/soa.hpp"
#include "core/vanginneken.hpp"
#include "lib/buffer.hpp"
#include "rct/tree.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace nbuf::core::detail {

// Accumulates wall time into `*sink` on destruction; no-op when `sink` is
// null (stats collection off), so the default path never reads the clock.
// The clock reads feed VgStats phase timers only — stats output, never a
// DP decision (docs/quality.md "wallclock-in-core" policy).
class PhaseTimer {
 public:
  explicit PhaseTimer(double* sink) : sink_(sink) {
    if (sink_) start_ = std::chrono::steady_clock::now();  // nbuf-lint: allow(wallclock-in-core)
  }
  ~PhaseTimer() {
    if (sink_)
      *sink_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)  // nbuf-lint: allow(wallclock-in-core)
                    .count();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

struct VgCand {
  double load = 0.0;         // C — downstream capacitance
  double slack = 0.0;        // q — timing slack
  double current = 0.0;      // I — downstream coupling current
  double noise_slack = 0.0;  // NS
  double dhat = 0.0;         // max wire Elmore delay from here to any leaf
                             // of the current stage (for slew checks)
  const PlanCell* plan = nullptr;
};

using CandList = std::vector<VgCand>;

// Candidate lists of one node: [phase][buffer count]. phase 0 = signal at
// this node must be in the source's polarity, phase 1 = inverted.
struct NodeLists {
  std::array<std::vector<CandList>, 2> by_phase;

  // Candidate count across all buckets (trace-span tags).
  [[nodiscard]] std::size_t total_size() const noexcept {
    std::size_t n = 0;
    for (const auto& phase_lists : by_phase)
      for (const CandList& list : phase_lists) n += list.size();
    return n;
  }
};

// Content comparison of two solution DAGs, three-way (-1/0/+1). Pointer
// equality short-circuits shared structure (candidates in one list mostly
// share deep prefixes); otherwise cells compare by kind, payload, then
// predecessors. Used only to break exact (load, slack) ties in cand_less,
// so the traversal almost never runs and never runs deep.
inline int plan_compare(const PlanCell* a, const PlanCell* b) {
  if (a == b) return 0;  // same arena cell: identical content
  if (a == nullptr) return -1;
  if (b == nullptr) return 1;
  if (a->kind != b->kind) return a->kind < b->kind ? -1 : 1;
  switch (a->kind) {
    case PlanCell::Kind::Buffer: {
      const PlannedBuffer& pa = a->placement;
      const PlannedBuffer& pb = b->placement;
      if (pa.node != pb.node) return pa.node < pb.node ? -1 : 1;
      if (pa.dist_above != pb.dist_above)
        return pa.dist_above < pb.dist_above ? -1 : 1;
      if (pa.type != pb.type) return pa.type < pb.type ? -1 : 1;
      break;
    }
    case PlanCell::Kind::Wire: {
      if (a->wire.node != b->wire.node)
        return a->wire.node < b->wire.node ? -1 : 1;
      if (a->wire.width != b->wire.width)
        return a->wire.width < b->wire.width ? -1 : 1;
      break;
    }
    case PlanCell::Kind::Merge: {
      const int right = plan_compare(a->b, b->b);
      if (right != 0) return right;
      break;
    }
  }
  return plan_compare(a->a, b->a);
}

// The prune order of both kernels: load ascending, slack descending on
// ties. The remaining fields make the order TOTAL: exact (load, slack)
// ties genuinely occur (uniform 500 µm segmentation gives symmetric
// placements bit-identical keys), and with only a partial order each
// kernel's unstable sort could keep a different survivor of the tied run —
// breaking Fast-vs-Reference bit-identity of the reported plans. Ties
// prefer the more robust candidate (higher noise slack, lower coupling
// current, lower stage delay) and fall back to plan content, which two
// distinct candidates cannot share.
inline bool cand_less(const VgCand& a, const VgCand& b) {
  if (a.load != b.load) return a.load < b.load;
  if (a.slack != b.slack) return a.slack > b.slack;
  if (a.noise_slack != b.noise_slack) return a.noise_slack > b.noise_slack;
  if (a.current != b.current) return a.current < b.current;
  if (a.dhat != b.dhat) return a.dhat < b.dhat;
  return plan_compare(a.plan, b.plan) < 0;
}

// cand_less over SoA lanes (fast kernel): the same total order, reading one
// field lane at a time; plan ties resolve by content through the arena's
// cells, exactly as the AoS form. The two-span form compares element i of
// span `a` with element j of span `b` (the in-place tail merge reads the
// buffered tail and the prefix from different storage).
inline bool soa_cand_less(const CandSpan& a, std::size_t i, const CandSpan& b,
                          std::size_t j, const PlanArena& arena) {
  if (a.load[i] != b.load[j]) return a.load[i] < b.load[j];
  if (a.slack[i] != b.slack[j]) return a.slack[i] > b.slack[j];
  if (a.noise_slack[i] != b.noise_slack[j])
    return a.noise_slack[i] > b.noise_slack[j];
  if (a.current[i] != b.current[j]) return a.current[i] < b.current[j];
  if (a.dhat[i] != b.dhat[j]) return a.dhat[i] < b.dhat[j];
  return plan_compare(arena.cell(a.plan[i]), arena.cell(b.plan[j])) < 0;
}

inline bool soa_cand_less(const CandSpan& s, std::size_t i, std::size_t j,
                          const PlanArena& arena) {
  return soa_cand_less(s, i, s, j, arena);
}

// True when a would-be candidate (load, slack) is dominated by a pruned
// staircase view: some view entry has load <= `load` and slack >= `slack`.
// Such a candidate is removed as inferior by the very next prune no matter
// what else reaches that bucket (its dominator — or whatever pruned the
// dominator — keeps the running best slack at or above `slack` when the
// scan arrives), so both kernels skip materializing it and book it as
// generated-then-pruned directly. A staircase has strictly increasing
// loads AND slacks, so the only possible dominator is the last entry with
// load <= `load`; one binary search decides. Only valid under
// VgOptions::prune_candidates — without dominance pruning nothing may be
// dropped.
[[nodiscard]] inline bool dominated_by_staircase(const VgCand* view,
                                                 std::size_t n, double load,
                                                 double slack) {
  std::size_t lo = 0, hi = n;  // lower_bound: first entry with load > `load`
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (view[mid].load <= load) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo > 0 && view[lo - 1].slack >= slack;
}

// Lane form of the same dominance test, for the fast kernel's SoA lists:
// the staircase view is the first `n` entries of the load and slack lanes.
[[nodiscard]] inline bool dominated_by_staircase(const double* loads,
                                                 const double* slacks,
                                                 std::size_t n, double load,
                                                 double slack) {
  std::size_t lo = 0, hi = n;  // lower_bound: first entry with load > `load`
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (loads[mid] <= load) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo > 0 && slacks[lo - 1] >= slack;
}

// Cross-count inferiority (the paper's I1 >= I2 ∧ NS1 <= NS2 rule lifted
// into the count dimension): candidate d, of the same polarity and a lower
// count bucket, is at least as good as c on all five DP fields. Every later
// DP step (wire, merge, buffer, driver fold) is monotone in each field under
// IEEE rounding, so whatever c completes to, d completes to a solution with
// fewer buffers and at least the same slack and noise/slew headroom, so c
// is never needed for the chosen answer or a per_count frontier row (a
// proof for DelayOpt; under noise or slew limits Step 7's (load, slack)
// pruning is blind to the other fields, so there it is checked by
// tests/test_golden_answers — docs/ALGORITHMS.md). Exact compares, no
// tolerance.
[[nodiscard]] inline bool dominates(const VgCand& d, const VgCand& c) {
  return d.load <= c.load && d.slack >= c.slack && d.current <= c.current &&
         d.noise_slack >= c.noise_slack && d.dhat <= c.dhat;
}

// Lane form: element i of span d against element j of span c.
[[nodiscard]] inline bool dominates(const CandSpan& d, std::size_t i,
                                    const CandSpan& c, std::size_t j) {
  return d.load[i] <= c.load[j] && d.slack[i] >= c.slack[j] &&
         d.current[i] <= c.current[j] &&
         d.noise_slack[i] >= c.noise_slack[j] && d.dhat[i] <= c.dhat[j];
}

// Full structural verification of one post-prune candidate list — the
// checks that used to live only in tests/test_vg_kernel, promoted into the
// library so every build at contract level 2 (and every caller that sets
// VgOptions::check_invariants) re-proves them after each DP step:
//   * sorted by cand_less — (load asc, slack desc) — the invariant both
//     Algorithm 2's pruning and the fast kernel's sort-free scans rest on;
//   * a strict Pareto staircase (loads AND slacks strictly ascend) when
//     dominance pruning is on;
//   * no dead candidate (noise slack < 0) when noise constraints are on.
// O(n) per call; throws std::logic_error (NBUF_ASSERT) on violation.
void verify_cand_list(const CandList& list, const VgOptions& opt);

// The same verification over an SoA view (fast kernel): sorted by
// soa_cand_less, strict Pareto staircase under dominance pruning, no dead
// candidate under noise constraints. The arena resolves plan ties.
void verify_cand_list(const CandSpan& view, const VgOptions& opt,
                      const PlanArena& arena);

// Node-level sibling of verify_cand_list, run by the fast kernel after the
// cross-count sweep of each buffer site: no candidate of bucket k is
// dominated by any candidate of a bucket j < k of the same polarity.
// The plain all-pairs scan, independent of the kernel's staircase-range
// search; throws std::logic_error (NBUF_ASSERT) on violation.
void verify_cross_count(const std::vector<SoAList>& buckets);

// True when the kernels should call verify_cand_list after each step:
// requested explicitly, or the build carries full structural checks
// (NBUF_CONTRACTS=2 — the default for Debug and sanitizer builds).
inline bool verify_lists_enabled(const VgOptions& opt) {
  return NBUF_STRUCTURAL_CHECKS != 0 || opt.check_invariants;
}

// Buffer-type walk order of the best-predecessor structure: type positions
// sorted by output resistance descending (ties keep id order). Built once
// per DP run; BestPredecessors::select must be queried in this order so
// each candidate's feasible types form a suffix of the walk and group
// activation only ever grows.
struct TypeOrder {
  std::vector<lib::BufferId> ids;  // position -> library id

  [[nodiscard]] static TypeOrder make(const lib::BufferLibrary& lib);
};

// Best-predecessor selection of the multi-type insertion step. For buffer
// type t with output resistance R the best predecessor in a bucket
// maximizes q = s − D_t − R·C over the bucket's candidates, first index
// wins exact ties — the reference kernel's naive scan. prepare() hoists
// everything about that scan that is bit-exactly precomputable: with
// noise/slew constraints on, each candidate's feasible types form a SUFFIX
// of the R-descending walk order (both thresholds are products monotone in
// R under IEEE rounding), so one binary search per candidate finds its
// first feasible position and a counting sort groups candidates by it.
// Candidates feasible for no type are dropped outright (killed()).
// select_all() then answers EVERY type's query in one candidate-major
// pass: each candidate's lanes are read once and update one accumulator
// per type in its feasible suffix — no per-candidate predicate ever runs
// again, no per-type re-walk of the staircase, and the accumulator update
// is branch-light (the running best changes only O(log m) times per type
// on typical staircases).
//
// An earlier version of this structure also kept, per group, the upper
// convex hull of the (load, slack) points and answered queries by a
// monotone pointer walk — O(m + b) per bucket instead of the scan's
// O(b·m). In exact arithmetic the argmax always lies on that hull and the
// walk's first-of-plateau stop reproduces the scan's first-wins tie-break.
// Under IEEE rounding it does not: two predecessors' q values can round to
// the SAME bits while only one of them sits on the hull (or while the
// pointer already passed the earlier one), and the scan then keeps a
// candidate the walk cannot see — a real plan divergence found by the
// tests/test_soa_kernel.cpp differential fuzz (DelayOpt, 64-type library:
// bit-equal q, different predecessor, different final plan). The walk was
// therefore retired: select_all() evaluates the reference's exact q
// expression for every feasible (candidate, type) pair and keeps, per
// type, the minimum index among bit-equal maxima. That is the reference's
// first-wins result restated order-independently — so the candidate-major
// visit order (groups back to back, indices interleaving across groups)
// cannot change any choice — and it costs the same O(b·m) element visits
// as the reference scan, just arranged so each candidate's lanes are
// loaded once instead of once per type.
class BestPredecessors {
 public:
  // Builds the structure over the candidates of `view` (an SoA lane view,
  // SoAList::span), which must form a pruned Pareto staircase in cand_less
  // order. The view's lanes must stay valid until the next prepare().
  void prepare(const CandSpan& view, const VgOptions& opt,
               const lib::BufferLibrary& lib, const TypeOrder& order);

  struct Choice {
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t idx = kNone;  // best predecessor's index into the prepared
                              // view; kNone if none is feasible
    double q = 0.0;           // its resulting slack for this type
  };
  // Fills `out[pos]` with the candidate the naive scan would pick for the
  // type at walk position `pos`, for every position at once (one
  // candidate-major pass; out is sized to the walk length).
  void select_all(const lib::BufferLibrary& lib, const TypeOrder& order,
                  std::vector<Choice>& out);

  // Candidates of the last prepare() that can never be any type's best
  // predecessor: infeasible (noise/slew) for every type in the library.
  [[nodiscard]] std::size_t killed() const noexcept { return killed_; }

 private:
  struct Group {
    std::size_t first_type = 0;  // t_min shared by the group's candidates
    std::size_t begin = 0;       // [begin, end) into sorted_
    std::size_t end = 0;
  };

  CandSpan view_;               // lanes of the last prepare()
  std::vector<Group> groups_;   // ascending first_type
  std::size_t killed_ = 0;
  std::vector<std::size_t> tmin_;    // scratch: per-candidate first type
  std::vector<std::size_t> counts_;  // scratch: counting-sort offsets
  std::vector<std::size_t> sorted_;  // candidates grouped by tmin, index
                                     // ascending within each group
  std::vector<double> res_;          // per-walk-pos output resistance
  std::vector<double> delay_;        // per-walk-pos intrinsic delay
  std::vector<double> best_q_;       // select_all accumulators
  std::vector<std::size_t> best_i_;  // (running q max / its min index)
};

// Per-node memo of the reference DP: lists[v] caches the NodeLists that
// process(v) returned (post insert_buffers — the exact value a cold run
// computes), valid[v] says whether the cache may be served. Because the DP
// state of a subtree is a pure function of that subtree, serving a cached
// list is bit-identical to recomputing it as long as the subtree is
// untouched — the foundation of core::IncrementalContext.
//
// regions[v] owns every plan cell made while computing v: its buffer and
// merge cells and the sizing cells of its child wires. Only the lists of v
// and its ancestors point into it, and invalidation always covers whole
// root-ward spines, so process(v) clears the region before it recomputes v.
// The cache thus holds exactly the cells of one cold run on the current
// tree. A deque: growing it never moves a region (and so never a cell).
struct SubtreeCache {
  std::vector<NodeLists> lists;  // by node id
  std::vector<char> valid;       // by node id
  std::deque<PlanArena> regions;  // by node id
  // Per-run tallies (reset by ReferenceDp::run): subtrees served from the
  // cache vs recomputed. Deterministic — a pure function of the dirty set.
  std::size_t reused = 0;
  std::size_t recomputed = 0;

  void ensure_size(std::size_t n) {
    if (lists.size() < n) lists.resize(n);
    if (valid.size() < n) valid.resize(n, 0);
    if (regions.size() < n) regions.resize(n);
  }
  void invalidate(rct::NodeId v) {
    if (v.value() < valid.size()) valid[v.value()] = 0;
  }
  void invalidate_all() { std::fill(valid.begin(), valid.end(), 0); }
  // Plan cells the cache holds, over all regions.
  [[nodiscard]] std::size_t cell_count() const noexcept {
    std::size_t n = 0;
    for (const PlanArena& r : regions) n += r.cell_count();
    return n;
  }
};

// The reference (seed) DP, promoted out of vanginneken.cpp's anonymous
// namespace so it can run in two modes:
//   * one-shot (cache == nullptr, own arena) — the VgKernel::Reference
//     oracle path of core::optimize, exactly the historic VgRun;
//   * memoized (external cache, cells in its per-node regions) —
//     core::IncrementalContext re-runs it after perturbations and only the
//     invalidated spine recomputes.
// Results are bit-identical between the modes (and to the fast kernel,
// per the PR2/PR6 contract): cached lists hold the same candidate values a
// cold run would build, cand_less ties resolve by plan CONTENT (not
// pointer), and finalize() reads only the source lists.
class ReferenceDp {
 public:
  ReferenceDp(const rct::RoutingTree& tree, const lib::BufferLibrary& lib,
              const VgOptions& opt, PlanArena& arena)
      : tree_(tree), lib_(lib), opt_(opt), arena_(&arena) {
    stats_.lib_types = lib_.size();
  }
  ReferenceDp(const rct::RoutingTree& tree, const lib::BufferLibrary& lib,
              const VgOptions& opt, SubtreeCache& cache)
      : tree_(tree), lib_(lib), opt_(opt), cache_(&cache) {
    stats_.lib_types = lib_.size();
  }

  VgResult run();

 private:
  NodeLists process(rct::NodeId v);
  NodeLists compute(rct::NodeId v);
  void prune(CandList& list);
  void extend_wire(NodeLists& lists, rct::NodeId child);
  void insert_buffers(NodeLists& lists, rct::NodeId v);
  void prune_cross_count(std::vector<CandList>& buckets);
  NodeLists merge(const NodeLists& l, const NodeLists& r);
  void note_created(std::size_t n) { stats_.candidates_generated += n; }
  [[nodiscard]] double* timed(double util::VgStats::*field) {
    return opt_.collect_stats ? &(stats_.*field) : nullptr;
  }

  const rct::RoutingTree& tree_;
  const lib::BufferLibrary& lib_;
  const VgOptions& opt_;
  PlanArena* arena_ = nullptr;  // memoized: the region of the node in work
  SubtreeCache* cache_ = nullptr;
  util::VgStats stats_;
};

// Driver fold (Fig. 10 Steps 2-4) and objective selection, shared verbatim
// by both kernels so a kernel difference can only come from the DP itself.
VgResult finalize(const NodeLists& at_source, const rct::RoutingTree& tree,
                  const VgOptions& opt, const util::VgStats& stats);

// Entry point of the fast kernel (vanginneken_fast.cpp); preconditions are
// checked by core::optimize.
VgResult run_fast_kernel(const rct::RoutingTree& tree,
                         const lib::BufferLibrary& lib, const VgOptions& opt);

}  // namespace nbuf::core::detail
