// Bit-identity comparison of two VgResults, shared by the kernel
// differential suites (test_vg_kernel on the paper library,
// test_library_kernel on randomized multi-type libraries).
//
// Every deterministic field must agree EXACTLY — slack bits, buffer
// placements, wire widths, the whole per_count table, and the legacy DP
// counters (both kernels make the same pruning decisions on the same
// candidates). Only wall times may differ.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/vanginneken.hpp"
#include "rct/assignment.hpp"

namespace nbuf::test {

inline std::vector<std::pair<std::uint32_t, std::uint32_t>> sorted_entries(
    const rct::BufferAssignment& a) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const auto& [node, type] : a.entries())
    out.emplace_back(node.value(), type.value());
  std::sort(out.begin(), out.end());
  return out;
}

inline void expect_identical(const core::VgResult& fast,
                             const core::VgResult& ref) {
  EXPECT_EQ(fast.feasible, ref.feasible);
  EXPECT_EQ(fast.timing_met, ref.timing_met);
  EXPECT_EQ(fast.slack, ref.slack);  // exact: bit-identity, no tolerance
  EXPECT_EQ(fast.buffer_count, ref.buffer_count);
  EXPECT_EQ(sorted_entries(fast.buffers), sorted_entries(ref.buffers));

  ASSERT_EQ(fast.wire_widths.size(), ref.wire_widths.size());
  for (std::size_t i = 0; i < fast.wire_widths.size(); ++i) {
    EXPECT_EQ(fast.wire_widths[i].node, ref.wire_widths[i].node);
    EXPECT_EQ(fast.wire_widths[i].width, ref.wire_widths[i].width);
  }

  ASSERT_EQ(fast.per_count.size(), ref.per_count.size());
  for (std::size_t i = 0; i < fast.per_count.size(); ++i) {
    SCOPED_TRACE("per_count[" + std::to_string(i) + "]");
    const core::CountBest& f = fast.per_count[i];
    const core::CountBest& r = ref.per_count[i];
    EXPECT_EQ(f.count, r.count);
    EXPECT_EQ(f.slack, r.slack);
    EXPECT_EQ(f.noise_slack, r.noise_slack);
    EXPECT_EQ(f.noise_ok, r.noise_ok);
    ASSERT_EQ(f.plan.size(), r.plan.size());
    for (std::size_t j = 0; j < f.plan.size(); ++j) {
      EXPECT_EQ(f.plan[j].node, r.plan[j].node);
      EXPECT_EQ(f.plan[j].dist_above, r.plan[j].dist_above);
      EXPECT_EQ(f.plan[j].type, r.plan[j].type);
    }
    ASSERT_EQ(f.wires.size(), r.wires.size());
    for (std::size_t j = 0; j < f.wires.size(); ++j) {
      EXPECT_EQ(f.wires[j].node, r.wires[j].node);
      EXPECT_EQ(f.wires[j].width, r.wires[j].width);
    }
  }

  // The legacy DP counters are part of the contract too.
  EXPECT_EQ(fast.stats.candidates_generated, ref.stats.candidates_generated);
  EXPECT_EQ(fast.stats.pruned_inferior, ref.stats.pruned_inferior);
  EXPECT_EQ(fast.stats.pruned_infeasible, ref.stats.pruned_infeasible);
  EXPECT_EQ(fast.stats.pruned_cross_count, ref.stats.pruned_cross_count);
  EXPECT_EQ(fast.stats.merged, ref.stats.merged);
  EXPECT_EQ(fast.stats.peak_list_size, ref.stats.peak_list_size);
}

}  // namespace nbuf::test
