// Randomized-library differential fuzz (PR 6).
//
// The multi-type kernel work (grouped best-predecessor insertion, polarity
// phases, dominated-at-birth skip) must not depend on WHICH library it
// runs against. This suite fuzzes the library axis the way test_vg_kernel
// fuzzes the net axis:
//
//  * Differential: >= 200 generated nets, each optimized under every
//    (library size, inverting fraction) in {1, 3, 8, 17, 64} x {0, 0.5}
//    with seeded random libraries (tests/common/random_library.hpp) and
//    the full option-variant cycle. Fast and Reference kernels must be
//    bit-identical on every pair — same slack bits, placements, per_count
//    table, and legacy DP counters.
//  * Schedule independence: the same fuzz workload through BatchEngine at
//    1 and at 4 threads must reproduce every per-net result and counter
//    exactly. This test is the reason the suite runs in the TSan lane.
//
// Everything here is seeded; there is no run-to-run variation.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "batch/batch.hpp"
#include "common/random_library.hpp"
#include "common/test_nets.hpp"
#include "common/vg_compare.hpp"
#include "core/vanginneken.hpp"
#include "lib/buffer.hpp"
#include "lib/wire.hpp"
#include "netgen/netgen.hpp"
#include "seg/segment.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;
using test::expect_identical;

core::VgResult run_kernel(const rct::RoutingTree& segmented,
                          const lib::BufferLibrary& library,
                          core::VgOptions opt, core::VgKernel kernel) {
  opt.kernel = kernel;
  return core::optimize(segmented, library, opt);
}

// The test_vg_kernel option cycle, parameterized on the library size so
// the buffer-cost variant stays valid for every fuzzed library.
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
      break;
  }
  return opt;
}

TEST(LibraryKernel, DifferentialFuzzAcrossLibrarySizesAndPolarities) {
  // The nets are generated once (against the default library — the
  // workload shape does not depend on the library under test) and reused
  // for every fuzzed library, so a failure names a reproducible
  // (net, library) pair.
  netgen::TestbenchOptions gen;
  gen.net_count = 204;
  gen.seed = 61403;
  const auto nets = netgen::generate_testbench(lib::default_library(), gen);
  ASSERT_EQ(nets.size(), 204u);

  const std::size_t sizes[] = {1, 3, 8, 17, 64};
  const double fractions[] = {0.0, 0.5};
  std::size_t combo = 0;
  bool any_inverting_used = false;
  for (const std::size_t b : sizes) {
    for (const double frac : fractions) {
      const lib::BufferLibrary library =
          test::random_library(0xF022 + 977 * combo, b, frac);
      ++combo;
      SCOPED_TRACE("library b=" + std::to_string(b) +
                   " inverting=" + std::to_string(library.inverting_count()));
      ASSERT_EQ(library.size(), b);
      if (frac == 0.0) {
        ASSERT_EQ(library.inverting_count(), 0u);
      }

      util::VgStats fast_total;
      for (std::size_t i = 0; i < nets.size(); ++i) {
        SCOPED_TRACE(nets[i].name + " variant " + std::to_string(i % 6));
        rct::RoutingTree segmented = nets[i].tree;
        seg::segment(segmented, {500.0});
        const core::VgOptions opt = variant(i, b);
        const auto fast =
            run_kernel(segmented, library, opt, core::VgKernel::Fast);
        const auto ref =
            run_kernel(segmented, library, opt, core::VgKernel::Reference);
        expect_identical(fast, ref);
        fast_total += fast.stats;
        for (const auto& [node, type] : fast.buffers.entries())
          any_inverting_used =
              any_inverting_used || library.at(type).inverting;
      }

      // The fast kernel must actually have gone through the
      // best-predecessor path, and report the library it saw.
      EXPECT_EQ(fast_total.lib_types, b);
      EXPECT_GT(fast_total.bp_prune_calls, 0u);
    }
  }
  // The half-inverting libraries must genuinely exercise the polarity
  // phases: somewhere in the sweep a chosen solution uses inverters (in
  // pairs — sinks demand positive phase). Not required of every single
  // library (a small one may never find an inverter pair profitable).
  EXPECT_TRUE(any_inverting_used);
}

TEST(LibraryKernel, SingleTypeRandomLibraryMatchesAcrossKernels) {
  // b=1 degenerates the best-predecessor walk to a single query; make sure
  // the degenerate path is hit head-on with a chain-heavy net, not only
  // inside the sweep above.
  const lib::BufferLibrary library = test::random_library(0xB001, 1, 0.0);
  const auto net = test::long_two_pin(14000.0);
  rct::RoutingTree segmented = net;
  seg::segment(segmented, {500.0});
  for (std::size_t v = 0; v < 6; ++v) {
    SCOPED_TRACE("variant " + std::to_string(v));
    const core::VgOptions opt = variant(v, 1);
    const auto fast =
        run_kernel(segmented, library, opt, core::VgKernel::Fast);
    const auto ref =
        run_kernel(segmented, library, opt, core::VgKernel::Reference);
    expect_identical(fast, ref);
  }
}

TEST(LibraryKernel, PerCountIsTheFrontierOfTheUnprunedDp) {
  // per_count is the (count, slack) Pareto frontier: slack strictly rises
  // with count, and — because pruning (within and across count buckets)
  // only ever drops candidates something at most as costly beats — the
  // frontier equals that of the unpruned DP in count, slack bits and plan.
  // Small trees keep the unpruned lists tractable; random libraries bring
  // inverting types, and odd nets add Lillis buffer costs. Delay-only: the
  // paper's noise extension keeps (load, slack) pruning, which is
  // noise-blind, so under noise constraints pruning is a heuristic there.
  netgen::TestbenchOptions gen;
  gen.net_count = 24;
  gen.seed = 0xF40;
  gen.max_span = 5000.0;
  std::size_t pruned_total = 0;
  std::size_t multi_row = 0;
  for (const double frac : {0.0, 0.5}) {
    const lib::BufferLibrary library =
        test::random_library(0xF40 + (frac > 0.0 ? 1 : 0), 5, frac);
    SCOPED_TRACE("inverting=" + std::to_string(library.inverting_count()));
    const auto nets = netgen::generate_testbench(library, gen);
    for (std::size_t i = 0; i < nets.size(); ++i) {
      SCOPED_TRACE(nets[i].name);
      rct::RoutingTree segmented = nets[i].tree;
      seg::segment(segmented, {500.0});
      core::VgOptions opt;
      opt.noise_constraints = false;
      opt.max_buffers = 8;
      if (i % 2 == 1) opt.buffer_costs = {1, 2, 1, 3, 2};
      core::VgOptions unpruned_opt = opt;
      unpruned_opt.prune_candidates = false;
      const auto pruned = core::optimize(segmented, library, opt);
      const auto unpruned = core::optimize(segmented, library, unpruned_opt);
      pruned_total += pruned.stats.pruned_cross_count;
      EXPECT_EQ(unpruned.stats.pruned_cross_count, 0u);
      ASSERT_EQ(pruned.per_count.size(), unpruned.per_count.size());
      if (pruned.per_count.size() > 1) ++multi_row;
      for (std::size_t r = 0; r < pruned.per_count.size(); ++r) {
        const core::CountBest& p = pruned.per_count[r];
        const core::CountBest& u = unpruned.per_count[r];
        if (r > 0) {
          EXPECT_GT(p.count, pruned.per_count[r - 1].count);
          EXPECT_GT(p.slack, pruned.per_count[r - 1].slack);
        }
        EXPECT_EQ(p.count, u.count);
        EXPECT_EQ(p.slack, u.slack);  // exact: bit-identity
        ASSERT_EQ(p.plan.size(), u.plan.size());
        for (std::size_t j = 0; j < p.plan.size(); ++j) {
          EXPECT_EQ(p.plan[j].node, u.plan[j].node);
          EXPECT_EQ(p.plan[j].type, u.plan[j].type);
        }
      }
    }
  }
  EXPECT_GT(pruned_total, 0u);  // the rule genuinely fired
  EXPECT_GT(multi_row, 10u);    // and the frontiers have rows to compare
}

TEST(LibraryKernel, BatchScheduleIndependentOnRandomLibrary) {
  // The TSan-lane teeth: the same fuzzed 17-type half-inverting library
  // through the batch engine at 1 and at 4 threads. Results and the
  // aggregated deterministic counters must reproduce exactly (the engine
  // writes results[i] by input index; nothing may depend on schedule).
  netgen::TestbenchOptions gen;
  gen.net_count = 96;
  gen.seed = 4403;
  const auto nets =
      batch::from_generated(netgen::generate_testbench(lib::default_library(), gen));
  const lib::BufferLibrary library = test::random_library(0xA11CE, 17, 0.5);

  batch::BatchOptions serial;
  serial.threads = 1;
  batch::BatchOptions pooled;
  pooled.threads = 4;
  const batch::BatchResult a = batch::BatchEngine(serial).run(nets, library);
  const batch::BatchResult b = batch::BatchEngine(pooled).run(nets, library);

  ASSERT_EQ(a.results.size(), nets.size());
  ASSERT_EQ(b.results.size(), nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    SCOPED_TRACE(nets[i].name);
    expect_identical(a.results[i].vg, b.results[i].vg);
  }
  EXPECT_EQ(a.summary.feasible, b.summary.feasible);
  EXPECT_EQ(a.summary.buffers_inserted, b.summary.buffers_inserted);
  EXPECT_EQ(a.summary.timing_met, b.summary.timing_met);
  EXPECT_TRUE(a.summary.stats.same_counters(b.summary.stats));
  EXPECT_EQ(a.summary.stats.lib_types, 17u);
}

TEST(LibraryKernel, BestPredecessorCountersSplitByKernel) {
  // bp_prune_calls / bp_candidates_killed are fast-kernel path counters
  // (the reference kernel has no grouped structure); lib_types is shared.
  const lib::BufferLibrary library = test::random_library(0x5EED, 17, 0.5);
  const auto net = test::long_two_pin(12000.0);
  rct::RoutingTree segmented = net;
  seg::segment(segmented, {500.0});
  core::VgOptions opt;

  const auto fast =
      run_kernel(segmented, library, opt, core::VgKernel::Fast);
  EXPECT_EQ(fast.stats.lib_types, 17u);
  EXPECT_GT(fast.stats.bp_prune_calls, 0u);

  const auto ref =
      run_kernel(segmented, library, opt, core::VgKernel::Reference);
  EXPECT_EQ(ref.stats.lib_types, 17u);
  EXPECT_EQ(ref.stats.bp_prune_calls, 0u);
  EXPECT_EQ(ref.stats.bp_candidates_killed, 0u);
}

}  // namespace
