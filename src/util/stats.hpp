// Small descriptive-statistics helpers used by the workload generator and
// the experiment harnesses, plus the VgStats counter block shared by the
// Van Ginneken DP (core/vanginneken) and the batch engine (batch/batch).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace nbuf::util {

// Counters describing one Van Ginneken-style DP run (Li & Shi's lens on DP
// efficiency: how many candidates exist and how many pruning kills). The
// counters are exact and schedule-independent; the per-phase wall times are
// measured only when core::VgOptions::collect_stats is set (steady_clock
// reads are not free on the hot path) and are, of course, not reproducible.
// Defined here, below core, so batch aggregation and CLI reporting need no
// dependency on the optimizer itself.
struct VgStats {
  std::size_t candidates_generated = 0;  // every candidate materialized
  std::size_t pruned_inferior = 0;       // (load, slack)-dominated (Step 7)
  std::size_t pruned_infeasible = 0;     // dead: noise slack went negative
  std::size_t pruned_cross_count = 0;    // five-field-dominated by a lower
                                         // count bucket (buffer sites)
  std::size_t merged = 0;                // produced by two-child merges
  std::size_t peak_list_size = 0;        // largest single candidate list
  // Kernel-path counters (fast kernel, PR 2). The fast kernel keeps every
  // candidate list sorted by (load asc, slack desc) across wire extension,
  // merge and buffer insertion, so pruning is normally one linear scan;
  // these record how often the sort actually had to run.
  std::size_t prune_calls = 0;          // prune passes over a list
  std::size_t prune_sorts = 0;          // passes that had to std::sort
  std::size_t prune_sorts_skipped = 0;  // served by the sorted fast path
  std::size_t offset_flushes = 0;       // lazy wire offsets materialized
  std::size_t snapshot_cands_avoided = 0;  // candidates NOT deep-copied at
                                           // buffer insertion (read views)
  std::size_t pool_reuses = 0;  // candidate-list (SoA lane) blocks recycled
  // Best-predecessor counters (fast kernel, PR 6). With b buffer types the
  // naive insertion step re-evaluates noise/slew feasibility for every
  // candidate once per type; the fast kernel binary-searches each
  // candidate's first feasible type once per bucket and answers all b
  // queries with predicate-free scans of the already-feasible groups.
  // These record how many buckets were prepared and how many candidates
  // were infeasible for every type (never scanned at all).
  std::size_t bp_prune_calls = 0;        // best-predecessor preparations
  std::size_t bp_candidates_killed = 0;  // infeasible for every type
  std::size_t lib_types = 0;             // buffer-library size seen (max)
  // SoA-layout counters (fast kernel, PR 10). Candidate lists live in
  // structure-of-arrays lane blocks (core/soa.hpp) whose hot loops run as
  // lane sweeps (core/soa_sweeps.hpp); these describe how that layout
  // behaved. Both are pure functions of the input net and the options —
  // identical at any thread count.
  std::size_t soa_flush_elems = 0;      // candidates updated by wire
                                        // flushes (width = /offset_flushes)
  std::size_t soa_prunes_no_move = 0;   // prunes that killed nothing and
                                        // skipped compaction entirely

  // Per-phase wall time (seconds); zero unless timing was requested.
  double wire_seconds = 0.0;    // extend-candidates-through-wire phase
  double buffer_seconds = 0.0;  // buffer-insertion phase
  double merge_seconds = 0.0;   // two-child merge phase

  // Aggregation: counters and times add, the peak takes the max.
  VgStats& operator+=(const VgStats& o) {
    candidates_generated += o.candidates_generated;
    pruned_inferior += o.pruned_inferior;
    pruned_infeasible += o.pruned_infeasible;
    pruned_cross_count += o.pruned_cross_count;
    merged += o.merged;
    peak_list_size = peak_list_size < o.peak_list_size ? o.peak_list_size
                                                       : peak_list_size;
    prune_calls += o.prune_calls;
    prune_sorts += o.prune_sorts;
    prune_sorts_skipped += o.prune_sorts_skipped;
    offset_flushes += o.offset_flushes;
    snapshot_cands_avoided += o.snapshot_cands_avoided;
    pool_reuses += o.pool_reuses;
    bp_prune_calls += o.bp_prune_calls;
    bp_candidates_killed += o.bp_candidates_killed;
    lib_types = lib_types < o.lib_types ? o.lib_types : lib_types;
    soa_flush_elems += o.soa_flush_elems;
    soa_prunes_no_move += o.soa_prunes_no_move;
    wire_seconds += o.wire_seconds;
    buffer_seconds += o.buffer_seconds;
    merge_seconds += o.merge_seconds;
    return *this;
  }

  // Equality of the deterministic part only (wall times never reproduce).
  // Covers the kernel-path counters too: they are pure functions of the
  // input net and the options, so batch runs must reproduce them at any
  // thread count.
  [[nodiscard]] bool same_counters(const VgStats& o) const {
    return candidates_generated == o.candidates_generated &&
           pruned_inferior == o.pruned_inferior &&
           pruned_infeasible == o.pruned_infeasible &&
           pruned_cross_count == o.pruned_cross_count && merged == o.merged &&
           peak_list_size == o.peak_list_size &&
           prune_calls == o.prune_calls && prune_sorts == o.prune_sorts &&
           prune_sorts_skipped == o.prune_sorts_skipped &&
           offset_flushes == o.offset_flushes &&
           snapshot_cands_avoided == o.snapshot_cands_avoided &&
           pool_reuses == o.pool_reuses &&
           bp_prune_calls == o.bp_prune_calls &&
           bp_candidates_killed == o.bp_candidates_killed &&
           lib_types == o.lib_types &&
           soa_flush_elems == o.soa_flush_elems &&
           soa_prunes_no_move == o.soa_prunes_no_move;
  }
};

// One-line human-readable rendering of the counters (times appended only
// when any phase was timed).
[[nodiscard]] std::string format(const VgStats& s);

struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
};

// Descriptive summary of a sample; empty input yields a zeroed Summary.
[[nodiscard]] Summary summarize(const std::vector<double>& xs);

// p in [0, 1]; linear interpolation between order statistics.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

// Bucketed histogram keyed by integer value (e.g. sink counts, buffer
// counts). Returns value -> occurrence count.
[[nodiscard]] std::map<int, std::size_t> histogram(const std::vector<int>& xs);

}  // namespace nbuf::util
