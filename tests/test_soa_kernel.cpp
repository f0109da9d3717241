// SoA lockdown suite.
//
// The fast kernel's candidate storage is structure-of-arrays
// (core/soa.hpp) and its hot loops are the lane sweeps of
// core/soa_sweeps.hpp. Two contracts pin that layout down:
//
//  * Differential: the SoA fast kernel must stay bit-identical to the
//    reference (seed) kernel — same slack bits, placements, per_count
//    table, legacy DP counters — across 204 generated nets x random
//    libraries of size {1, 8, 64} x inverting fractions {0, 0.5} x the
//    full six-variant option cycle. Every fast run keeps check_invariants
//    on, so the sweep doubles as the property corpus for the (load asc,
//    slack desc) staircase invariant over every SoA block.
//  * Tail loops: a fixed corpus (tests/data/soa/, lengths 0-5 and 7-9)
//    driven straight through each sweep of core/soa_sweeps.hpp and
//    compared lane-by-lane (bitwise) with an in-test naive version of the
//    same operation, so an off-by-one at a list end or an empty list shows
//    up as a one-element bit difference.
//
// Everything is seeded; there is no run-to-run variation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random_library.hpp"
#include "common/test_nets.hpp"
#include "common/vg_compare.hpp"
#include "core/soa.hpp"
#include "core/soa_sweeps.hpp"
#include "core/vanginneken.hpp"
#include "core/vg_kernel.hpp"
#include "lib/wire.hpp"
#include "netgen/netgen.hpp"
#include "seg/segment.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;
namespace soa = core::detail::soa;
using test::expect_identical;

core::VgResult run_kernel(const rct::RoutingTree& segmented,
                          const lib::BufferLibrary& library,
                          core::VgOptions opt, core::VgKernel kernel) {
  opt.kernel = kernel;
  return core::optimize(segmented, library, opt);
}

// The test_vg_kernel option cycle, parameterized on the library size so
// the buffer-cost variant stays valid for every fuzzed library. Invariant
// checking stays on everywhere: the fast kernel re-verifies every SoA
// block after each DP step.
core::VgOptions variant(std::size_t which, std::size_t lib_size) {
  core::VgOptions opt;
  opt.check_invariants = true;
  switch (which % 6) {
    case 0:  // BuffOpt shape: noise-constrained, best slack
      break;
    case 1:  // DelayOpt baseline
      opt.noise_constraints = false;
      break;
    case 2:  // Problem 3 objective
      opt.objective = core::VgObjective::MinBuffersMeetingConstraints;
      break;
    case 3:  // simultaneous wire sizing (the sorting fork path)
      opt.wire_widths = lib::default_wire_widths();
      break;
    case 4:  // Lillis buffer costs: bucket index = total cost
      opt.buffer_costs.assign(lib_size, 1);
      for (std::size_t i = 0; i < opt.buffer_costs.size(); i += 2)
        opt.buffer_costs[i] = 2;
      break;
    case 5:  // slew-limited, delay-only
      opt.noise_constraints = false;
      opt.max_slew = 150.0 * ps;
  }
  return opt;
}

// The fuzzed library axis of this suite: {1, 8, 64} x {all-buffer,
// half-inverting}, seeded per combo.
struct LibCombo {
  std::size_t size;
  double fraction;
};
constexpr LibCombo kCombos[] = {{1, 0.0},  {1, 0.5},  {8, 0.0},
                                {8, 0.5},  {64, 0.0}, {64, 0.5}};

lib::BufferLibrary combo_library(std::size_t idx) {
  return test::random_library(0x50A0 + 977 * idx, kCombos[idx].size,
                              kCombos[idx].fraction);
}

std::vector<netgen::GeneratedNet> fuzz_nets() {
  netgen::TestbenchOptions gen;
  gen.net_count = 204;
  gen.seed = 52807;
  return netgen::generate_testbench(lib::default_library(), gen);
}

// ---------------------------------------------------------------------------
// Corpus plumbing for the tail-loop sweeps.

core::SoAList load_corpus(std::size_t len) {
  const std::string path =
      std::string(NBUF_SOA_DATA_DIR) + "/len" + std::to_string(len) + ".txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  core::SoAList list;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    double load = 0.0, slack = 0.0, current = 0.0, ns = 0.0, dhat = 0.0;
    if (!(row >> load)) continue;  // blank or '#' comment line
    row >> slack >> current >> ns >> dhat;
    list.push_back(load, slack, current, ns, dhat, core::kNullPlan);
  }
  EXPECT_EQ(list.size(), len) << path;
  return list;
}

core::SoAList copy_list(const core::SoAList& src) {
  core::SoAList dst;
  for (std::size_t i = 0; i < src.size(); ++i)
    dst.push_back(src.load()[i], src.slack()[i], src.current()[i],
                  src.noise_slack()[i], src.dhat()[i], src.plan()[i]);
  return dst;
}

// Lane-by-lane bitwise equality over the first n elements of both lists.
// An empty list's lanes are null, which memcmp must never see.
void expect_lanes_identical(const core::SoAList& a, const core::SoAList& b) {
  ASSERT_EQ(a.size(), b.size());
  const std::size_t n = a.size();
  if (n == 0) return;
  EXPECT_EQ(std::memcmp(a.load(), b.load(), n * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(a.slack(), b.slack(), n * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(a.current(), b.current(), n * sizeof(double)), 0);
  EXPECT_EQ(
      std::memcmp(a.noise_slack(), b.noise_slack(), n * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(a.dhat(), b.dhat(), n * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(a.plan(), b.plan(), n * sizeof(core::PlanRef)), 0);
}

// ---------------------------------------------------------------------------

TEST(SoAKernel, DifferentialFuzzAgainstReferenceAcrossLibraries) {
  const auto nets = fuzz_nets();
  ASSERT_EQ(nets.size(), 204u);

  util::VgStats fast_total;
  for (std::size_t combo = 0; combo < std::size(kCombos); ++combo) {
    const lib::BufferLibrary library = combo_library(combo);
    SCOPED_TRACE("library b=" + std::to_string(kCombos[combo].size) +
                 " inverting=" + std::to_string(library.inverting_count()));
    for (std::size_t i = 0; i < nets.size(); ++i) {
      SCOPED_TRACE(nets[i].name + " variant " + std::to_string(i % 6));
      rct::RoutingTree segmented = nets[i].tree;
      seg::segment(segmented, {500.0});
      const core::VgOptions opt = variant(i, kCombos[combo].size);
      const auto fast =
          run_kernel(segmented, library, opt, core::VgKernel::Fast);
      const auto ref =
          run_kernel(segmented, library, opt, core::VgKernel::Reference);
      expect_identical(fast, ref);
      fast_total += fast.stats;
    }
  }

  // The sweep must genuinely have exercised the SoA machinery: lazy wire
  // flushes over lanes, recycled lane blocks, and converged lists where
  // the fused prune moved nothing.
  EXPECT_GT(fast_total.soa_flush_elems, 0u);
  EXPECT_GT(fast_total.pool_reuses, 0u);
  EXPECT_GT(fast_total.soa_prunes_no_move, 0u);
  EXPECT_GT(fast_total.pruned_cross_count, 0u);
}

TEST(SoAKernel, TailLoopCorpusSweepsMatchNaiveSemantics) {
  const std::size_t lengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9};
  for (const std::size_t len : lengths) {
    SCOPED_TRACE("corpus len=" + std::to_string(len));
    const core::SoAList base = load_corpus(len);
    const std::size_t n = base.size();

    {  // apply_wire: the reference kernel's per-candidate expressions.
      const double res = 0.03, cap = 17.5, coupling = 0.004;
      core::SoAList swept = copy_list(base);
      soa::apply_wire(swept, res, cap, coupling);
      core::SoAList naive;
      for (std::size_t i = 0; i < n; ++i) {
        const double wire_delay = res * (cap / 2.0 + base.load()[i]);
        naive.push_back(base.load()[i] + cap, base.slack()[i] - wire_delay,
                        base.current()[i] + coupling,
                        base.noise_slack()[i] -
                            res * (coupling / 2.0 + base.current()[i]),
                        base.dhat()[i] + wire_delay, base.plan()[i]);
      }
      expect_lanes_identical(swept, naive);
    }

    {  // prune_sweep against an in-test naive filter over the original
       // list: drop NS < 0, then drop slacks not beating the running best.
      core::SoAList swept = copy_list(base);
      const auto r = soa::prune_sweep(swept, /*noise=*/true, /*pareto=*/true);
      core::SoAList naive;
      double best = -std::numeric_limits<double>::infinity();
      std::size_t dead = 0, inferior = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (base.noise_slack()[i] < 0.0) {
          ++dead;
          continue;
        }
        if (base.slack()[i] <= best) {
          ++inferior;
          continue;
        }
        best = base.slack()[i];
        naive.push_back(base.load()[i], base.slack()[i], base.current()[i],
                        base.noise_slack()[i], base.dhat()[i],
                        base.plan()[i]);
      }
      EXPECT_EQ(r.dead, dead);
      EXPECT_EQ(r.inferior, inferior);
      EXPECT_EQ(r.moved, naive.size() != n);
      expect_lanes_identical(swept, naive);
    }

    {  // emit_pairs + merge_fill: a self-merge emits at least the list
       // itself, and every filled row is the sum/min/min/max of its pair.
      const core::CandSpan span = base.span();
      std::vector<std::uint32_t> ia, jb;
      const std::size_t m = soa::emit_pairs(span, span, ia, jb);
      core::SoAList merged;
      soa::merge_fill(span, span, ia.data(), jb.data(), m, merged);
      ASSERT_EQ(merged.size(), m);
      EXPECT_GE(m, n);
      for (std::size_t o = 0; o < m; ++o) {
        const std::uint32_t i = ia[o], j = jb[o];
        EXPECT_EQ(merged.load()[o], span.load[i] + span.load[j]);
        EXPECT_EQ(merged.slack()[o], std::min(span.slack[i], span.slack[j]));
        EXPECT_EQ(merged.current()[o], span.current[i] + span.current[j]);
        EXPECT_EQ(merged.noise_slack()[o],
                  std::min(span.noise_slack[i], span.noise_slack[j]));
        EXPECT_EQ(merged.dhat()[o], std::max(span.dhat[i], span.dhat[j]));
      }
    }

    {  // gather: one permutation (reversal) through all six lanes.
      std::vector<std::uint32_t> perm(n);
      core::SoAList naive;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = n - 1 - i;
        perm[i] = static_cast<std::uint32_t>(j);
        naive.push_back(base.load()[j], base.slack()[j], base.current()[j],
                        base.noise_slack()[j], base.dhat()[j],
                        base.plan()[j]);
      }
      core::SoAList gathered;
      soa::gather(base, perm.data(), n, gathered);
      expect_lanes_identical(gathered, naive);
    }
  }
}

TEST(SoAKernel, SoAListAlignmentGrowthAndPoolReuse) {
  core::SoAList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.capacity(), 0u);

  // Push through several growth doublings; contents must survive each
  // relocation exactly and every lane must stay 64-byte aligned.
  for (std::size_t i = 0; i < 100; ++i)
    list.push_back(1.0 + 0.125 * static_cast<double>(i),
                   -3.5 * static_cast<double>(i), 0.001 * static_cast<double>(i),
                   0.5 - 0.0625 * static_cast<double>(i),
                   7.0 + static_cast<double>(i),
                   static_cast<core::PlanRef>(i));
  ASSERT_EQ(list.size(), 100u);
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % core::SoAList::kAlign == 0;
  };
  EXPECT_TRUE(aligned(list.load()));
  EXPECT_TRUE(aligned(list.slack()));
  EXPECT_TRUE(aligned(list.current()));
  EXPECT_TRUE(aligned(list.noise_slack()));
  EXPECT_TRUE(aligned(list.dhat()));
  EXPECT_TRUE(aligned(list.plan()));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(list.load()[i], 1.0 + 0.125 * static_cast<double>(i));
    EXPECT_EQ(list.slack()[i], -3.5 * static_cast<double>(i));
    EXPECT_EQ(list.plan()[i], static_cast<core::PlanRef>(i));
  }

  // Prefix views share the lane pointers.
  const core::CandSpan prefix = list.span(10);
  EXPECT_EQ(prefix.n, 10u);
  EXPECT_EQ(prefix.load, list.load());
  EXPECT_EQ(prefix.plan, list.plan());

  // Pool round trip: a released block comes back cleared but with its
  // capacity (and its allocation) intact; an empty pool hands out
  // capacity-0 lists and never counts a reuse.
  core::SoAPool pool;
  core::SoAList fresh = pool.acquire();
  EXPECT_EQ(fresh.capacity(), 0u);
  EXPECT_EQ(pool.reuses(), 0u);
  pool.release(std::move(fresh));  // capacity 0: dropped, not pooled

  const std::size_t cap = list.capacity();
  pool.release(std::move(list));
  core::SoAList back = pool.acquire();
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(back.size(), 0u);
  EXPECT_EQ(back.capacity(), cap);
}

TEST(SoAKernel, CorruptedSoAViewIsCaughtByStructuralChecks) {
  // The SoA overload of detail::verify_cand_list — what the fast kernel
  // runs over every block after each DP step (contract level 2 or
  // check_invariants) — must name each corruption, mirroring the AoS
  // corruption cases of test_vg_kernel.
  core::VgOptions opt;  // noise constraints and pruning default on
  core::PlanArena arena;

  core::SoAList good;
  good.push_back(1.0, 2.0, 0.0, 0.5, 0.0, core::kNullPlan);
  good.push_back(2.0, 3.0, 0.0, 0.6, 0.0, core::kNullPlan);
  EXPECT_NO_THROW(core::detail::verify_cand_list(good.span(), opt, arena));

  // Lost (load asc, slack desc) sort order.
  core::SoAList unsorted;
  unsorted.push_back(2.0, 3.0, 0.0, 0.6, 0.0, core::kNullPlan);
  unsorted.push_back(1.0, 2.0, 0.0, 0.5, 0.0, core::kNullPlan);
  EXPECT_THROW(core::detail::verify_cand_list(unsorted.span(), opt, arena),
               std::logic_error);

  // Sorted, but a dominated survivor: load rises while slack falls, so the
  // strict Pareto staircase is broken...
  core::SoAList dominated = copy_list(good);
  dominated.slack()[1] = 1.0;
  EXPECT_THROW(core::detail::verify_cand_list(dominated.span(), opt, arena),
               std::logic_error);
  // ...unless dominance pruning was disabled (ablation mode).
  core::VgOptions unpruned = opt;
  unpruned.prune_candidates = false;
  EXPECT_NO_THROW(
      core::detail::verify_cand_list(dominated.span(), unpruned, arena));

  // A dead candidate (negative noise slack) under noise constraints.
  core::SoAList dead = copy_list(good);
  dead.noise_slack()[1] = -0.1;
  EXPECT_THROW(core::detail::verify_cand_list(dead.span(), opt, arena),
               std::logic_error);
  // ...which is legal in DelayOpt mode (noise ignored).
  core::VgOptions delayopt = opt;
  delayopt.noise_constraints = false;
  EXPECT_NO_THROW(
      core::detail::verify_cand_list(dead.span(), delayopt, arena));
}

TEST(SoAKernel, CrossCountDominatedSurvivorIsCaughtByNodeCheck) {
  // detail::verify_cross_count — the node-level check the fast kernel runs
  // after each buffer site's cross-count sweep (contract level 2 or
  // check_invariants) — must flag a bucket-2 candidate that a bucket-0
  // candidate beats on all five fields, and nothing else.
  const auto node = [](double load, double slack, double current, double ns,
                       double dhat, bool swap) {
    std::vector<core::SoAList> buckets(3);
    buckets[swap ? 2 : 0].push_back(1.0, 2.0, 0.1, 0.5, 1.0,
                                    core::kNullPlan);
    buckets[swap ? 0 : 2].push_back(load, slack, current, ns, dhat,
                                    core::kNullPlan);
    return buckets;
  };
  using core::detail::verify_cross_count;
  // Worse on all five fields, and an exact five-field tie (the rule's
  // compares are non-strict): both must have been pruned.
  EXPECT_THROW(verify_cross_count(node(2.0, 1.0, 0.2, 0.4, 2.0, false)),
               std::logic_error);
  EXPECT_THROW(verify_cross_count(node(1.0, 2.0, 0.1, 0.5, 1.0, false)),
               std::logic_error);
  // Better on any single field is a legal survivor.
  EXPECT_NO_THROW(verify_cross_count(node(0.5, 1.0, 0.2, 0.4, 2.0, false)));
  EXPECT_NO_THROW(verify_cross_count(node(2.0, 3.0, 0.2, 0.4, 2.0, false)));
  EXPECT_NO_THROW(verify_cross_count(node(2.0, 1.0, 0.0, 0.4, 2.0, false)));
  EXPECT_NO_THROW(verify_cross_count(node(2.0, 1.0, 0.2, 0.6, 2.0, false)));
  EXPECT_NO_THROW(verify_cross_count(node(2.0, 1.0, 0.2, 0.4, 0.5, false)));
  // Only a lower count dominates: the same pair with the buckets swapped.
  EXPECT_NO_THROW(verify_cross_count(node(2.0, 1.0, 0.2, 0.4, 2.0, true)));
}

TEST(SoAKernel, SoACountersAreDeterministicAndFastKernelOnly) {
  // One deep chain: lots of lazy-offset flushes. The SoA counters are a
  // pure function of the input, so a second run reproduces them exactly.
  const lib::BufferLibrary library = lib::default_library();
  rct::RoutingTree segmented = test::long_two_pin(12000.0);
  seg::segment(segmented, {500.0});
  core::VgOptions opt;

  const auto first = run_kernel(segmented, library, opt, core::VgKernel::Fast);
  const auto again = run_kernel(segmented, library, opt, core::VgKernel::Fast);
  EXPECT_GT(first.stats.soa_flush_elems, 0u);
  EXPECT_TRUE(first.stats.same_counters(again.stats));

  // The reference kernel has no SoA machinery; its counters stay zero.
  const auto ref =
      run_kernel(segmented, library, opt, core::VgKernel::Reference);
  EXPECT_EQ(ref.stats.soa_flush_elems, 0u);
  EXPECT_EQ(ref.stats.soa_prunes_no_move, 0u);
  EXPECT_EQ(ref.stats.pool_reuses, 0u);
}

}  // namespace
