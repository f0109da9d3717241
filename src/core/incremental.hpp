// Incremental re-optimization: the state a long-lived optimization service
// keeps per net so a perturbed tree re-answers in far less than a cold run.
//
// The Van Ginneken DP is bottom-up: the candidate lists of a node are a
// pure function of its subtree (tests/test_vg_kernel proves both kernels
// agree on them bit-for-bit). So after one full run we can memoize every
// node's post-insertion NodeLists (detail::SubtreeCache) and, when a
// perturbation touches node v, invalidate only v's root spine: the next
// run recomputes the dirty spine and serves every clean sibling subtree
// from the cache. The answer is bit-identical to a cold run on the
// perturbed tree by construction — cached lists hold exactly the values a
// cold run would rebuild, and candidate-order ties resolve by plan CONTENT
// (detail::cand_less), never by arena pointer.
//
// This is the first-class home of the machinery that used to live inside
// tests/test_incremental's 120-case differential harness; the harness now
// drives this API (and src/serve's PERTURB opcode is a thin wrapper over
// it). Perturbation is the shared edit vocabulary: the harness generates
// random edits with random_perturbation(), applies them through
// IncrementalContext::apply(), and cross-checks against a cold
// core::optimize on the same tree.
//
// Memory: every plan cell lives in the cache's region of the node whose DP
// step made it, and a region is cleared when its node recomputes. So the
// context holds exactly the cells of one cold run on the current tree,
// however many edits it has seen; Stats::plan_cells reports that count.
#pragma once

#include <cstddef>

#include "core/vanginneken.hpp"
#include "core/vg_kernel.hpp"
#include "lib/buffer.hpp"
#include "rct/tree.hpp"
#include "util/rng.hpp"

namespace nbuf::core {

// One tree edit, the vocabulary of iterative physical design this library
// serves: a router rescales a wire (detour / sink move), retunes a sink
// (cell swap), splits a wire (new buffer site), tightens every noise
// margin (spec change), or rescales all coupling currents (aggressor-slope
// change). The first three are local — their DP impact is one root spine;
// the last two are global and legitimately invalidate everything.
struct Perturbation {
  enum class Kind {
    WireScale,       // parent wire of `node`: R/C/I scaled by the factors
    SinkSet,         // sink `sink` replaced by `sink_info`
    WireSplit,       // parent wire of `node` split `fraction` up its length
    TightenMargins,  // every sink: noise_margin -= delta
    ScaleCoupling,   // every wire: coupling_current *= factor
  };
  Kind kind = Kind::WireScale;
  rct::NodeId node;          // WireScale / WireSplit target (non-source)
  rct::SinkId sink;          // SinkSet target
  double res_factor = 1.0;   // WireScale
  double cap_factor = 1.0;   // WireScale
  double cur_factor = 1.0;   // WireScale
  double fraction = 0.5;     // WireSplit: dist_above = fraction * length
  rct::SinkInfo sink_info;   // SinkSet replacement (node field ignored)
  double delta = 0.0;        // TightenMargins (volt)
  double factor = 1.0;       // ScaleCoupling
};

// Applies `p` to `tree` directly (no dirty tracking — for harnesses that
// re-analyze from scratch). Returns the new node for WireSplit, an invalid
// id otherwise.
rct::NodeId apply_perturbation(rct::RoutingTree& tree, const Perturbation& p);

// A random local edit (WireScale / SinkSet / WireSplit with the 120-case
// harness's historic distributions): rescale factors in [0.4, 2.5], sink
// cap x[0.5, 2.0] with a fresh margin in [0.3, 1.2] V, splits at
// [0.25, 0.75] of wires longer than 1 µm (shorter wires degrade to a
// WireScale so every draw yields a usable edit).
[[nodiscard]] Perturbation random_perturbation(util::Rng& rng,
                                               const rct::RoutingTree& tree);

class IncrementalContext {
 public:
  // `tree` must be binary with buffer sites already created (callers run
  // tree.binarize() + seg::segment first — the service does this once per
  // LOAD, which is the point). The DP always runs the reference engine
  // (the only memoizable one); `opt.kernel` is ignored.
  IncrementalContext(rct::RoutingTree tree, const lib::BufferLibrary& lib,
                     VgOptions opt);

  [[nodiscard]] const rct::RoutingTree& tree() const noexcept {
    return tree_;
  }
  [[nodiscard]] const lib::BufferLibrary& library() const noexcept {
    return lib_;
  }
  [[nodiscard]] const VgOptions& options() const noexcept { return opt_; }

  // --- perturbations: mutate the held tree and mark the dirty spine ------
  void scale_wire(rct::NodeId v, double res_factor, double cap_factor,
                  double cur_factor);
  void set_sink(rct::SinkId s, rct::SinkInfo info);
  rct::NodeId split_wire(rct::NodeId v, double dist_above);
  void tighten_margins(double delta);
  void scale_coupling(double factor);
  // Dispatch on p.kind; returns the new node for WireSplit.
  rct::NodeId apply(const Perturbation& p);

  // Drops every cached subtree, so the next optimize() is a full cold run
  // on the current tree (the service's cold-vs-incremental A/B lever).
  void invalidate_all();

  // Runs the DP, recomputing only invalidated subtrees (the first call is
  // always a full run). The returned reference stays valid until the next
  // optimize() call.
  const VgResult& optimize();

  // Last optimize() result; null before the first run.
  [[nodiscard]] const VgResult* result() const noexcept {
    return have_result_ ? &result_ : nullptr;
  }

  struct Stats {
    std::size_t runs = 0;             // optimize() calls
    std::size_t last_reused = 0;      // subtrees served from cache last run
    std::size_t last_recomputed = 0;  // subtrees recomputed last run
    std::size_t plan_cells = 0;       // plan cells the cache holds
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  void dirty_up(rct::NodeId v);

  rct::RoutingTree tree_;
  lib::BufferLibrary lib_;  // copy: the context outlives caller reloads
  VgOptions opt_;
  detail::SubtreeCache cache_;
  VgResult result_;
  bool have_result_ = false;
  Stats stats_;
};

// Solution-content equality of two VgResults: chosen plan, slacks, and the
// full per-count table. DP-effort statistics are deliberately excluded —
// an incremental run legitimately generates/prunes fewer candidates than
// the cold run it must otherwise match bit-for-bit.
[[nodiscard]] bool same_solution(const VgResult& a, const VgResult& b);

}  // namespace nbuf::core
