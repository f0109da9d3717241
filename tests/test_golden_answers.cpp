// Golden-answer regression suite.
//
// tests/data/golden/ holds the answers core::optimize returned for two net
// sets under six option modes, recorded before cross-count dominance
// pruning existed: feasible, timing_met, buffer count, slack bits, the
// buffer plan and the wire plan. Pruning may shrink the DP state and
// change its counters and the per_count table, but never the answer; this
// suite asserts the default kernel still reproduces every recorded answer
// bit for bit.
//
//  * vg_kernel.txt — the 204-net differential set of test_vg_kernel
//    (netgen seed 77031);
//  * section_v.txt — the Section-V 500-net testbench (netgen defaults, the
//    workload of `nbuf_cli batch --netgen 500`).
//
// netgen derives each sink's required arrival time from a DelayOpt run, so
// a change that moves DelayOpt answers also moves these inputs; either way
// the recorded lines stop matching.
//
// One line per (net, mode):
//   <net> <mode> f<feasible> t<timing_met> k<count> s<slack as %a>
//   b<node>:<type>,... w<node>:<width>,...
// Setting NBUF_GOLDEN_WRITE=1 rewrites the files from the current build
// instead of comparing; do that only for a change meant to move answers.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/vg_compare.hpp"
#include "core/vanginneken.hpp"
#include "lib/wire.hpp"
#include "netgen/netgen.hpp"
#include "seg/segment.hpp"
#include "util/units.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;

const lib::BufferLibrary kLib = lib::default_library();

struct Mode {
  const char* name;
  core::VgOptions opt;
};

std::vector<Mode> modes() {
  std::vector<Mode> out;
  core::VgOptions buffopt;  // noise-constrained, best slack
  out.push_back({"buffopt", buffopt});
  core::VgOptions delayopt;
  delayopt.noise_constraints = false;
  out.push_back({"delayopt", delayopt});
  core::VgOptions slew;
  slew.max_slew = 150.0 * ps;
  out.push_back({"slew", slew});
  core::VgOptions costs;  // Lillis costs: bucket index = total cost
  costs.buffer_costs.assign(kLib.size(), 1);
  for (std::size_t i = 0; i < costs.buffer_costs.size(); i += 2)
    costs.buffer_costs[i] = 2;
  out.push_back({"costs", costs});
  core::VgOptions minbuf;  // Problem 3: fewest buffers meeting timing
  minbuf.objective = core::VgObjective::MinBuffersMeetingConstraints;
  out.push_back({"minbuf", minbuf});
  core::VgOptions sizing;
  sizing.wire_widths = lib::default_wire_widths();
  out.push_back({"sizing", sizing});
  return out;
}

std::string answer_line(const std::string& net, const char* mode,
                        const core::VgResult& r) {
  char head[160];
  std::snprintf(head, sizeof head, "%s %s f%d t%d k%zu s%a b", net.c_str(),
                mode, r.feasible ? 1 : 0, r.timing_met ? 1 : 0,
                r.buffer_count, r.slack);
  std::string line = head;
  bool first = true;
  for (const auto& [node, type] : test::sorted_entries(r.buffers)) {
    if (!first) line += ',';
    line += std::to_string(node) + ':' + std::to_string(type);
    first = false;
  }
  line += " w";
  first = true;
  for (const core::PlannedWire& w : r.wire_widths) {
    if (!first) line += ',';
    line += std::to_string(w.node.value()) + ':' + std::to_string(w.width);
    first = false;
  }
  return line;
}

std::vector<std::string> answers(const netgen::TestbenchOptions& gen) {
  std::vector<std::string> out;
  const auto nets = netgen::generate_testbench(kLib, gen);
  EXPECT_EQ(nets.size(), gen.net_count);
  for (const Mode& m : modes()) {
    for (const netgen::GeneratedNet& n : nets) {
      rct::RoutingTree segmented = n.tree;
      seg::segment(segmented, {500.0});
      out.push_back(answer_line(n.name, m.name,
                                core::optimize(segmented, kLib, m.opt)));
    }
  }
  return out;
}

void check_golden(const std::string& file,
                  const netgen::TestbenchOptions& gen) {
  const std::string path = std::string(NBUF_GOLDEN_DIR) + "/" + file;
  const std::vector<std::string> got = answers(gen);
  const char* write = std::getenv("NBUF_GOLDEN_WRITE");
  if (write != nullptr && std::string(write) == "1") {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const std::string& line : got) out << line << '\n';
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) want.push_back(line);
  ASSERT_EQ(got.size(), want.size()) << path;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) continue;
    if (++mismatches <= 10)
      ADD_FAILURE() << "line " << i + 1 << "\n  want: " << want[i]
                    << "\n  got:  " << got[i];
  }
  EXPECT_EQ(mismatches, 0u) << path;
}

TEST(GoldenAnswers, VgKernelDifferentialNetSet) {
  netgen::TestbenchOptions gen;
  gen.net_count = 204;
  gen.seed = 77031;
  check_golden("vg_kernel.txt", gen);
}

TEST(GoldenAnswers, SectionVTestbench) {
  check_golden("section_v.txt", netgen::TestbenchOptions{});
}

}  // namespace
