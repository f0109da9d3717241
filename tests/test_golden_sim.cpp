// Golden-simulation regression suite.
//
// tests/data/golden/golden_sim.txt holds the peak and the half-peak pulse
// width the golden transient simulator reported for every stage leaf of
// two workloads, at the configured timestep and at half of it (the dt/2
// pass of the convergence check):
//
//  * sv — the Section-V 500-net testbench after BuffOpt (netgen defaults,
//    the workload of `nbuf_cli signoff --netgen 500`);
//  * ub — the unbuffered stages of a seeded 120-net netgen set, whose
//    long, weakly driven stages have the longest settling horizons.
//
// The simulator may change how far it marches, never what it reports:
// this suite asserts every recorded number is reproduced bit for bit.
//
// One line per (set, net, leaf):
//   <set> <net> <node> <s|b> dt p<peak %a> w<width %a> dt/2 p<...> w<...>
// Setting NBUF_GOLDEN_WRITE=1 rewrites the file from the current build
// instead of comparing; do that only for a change meant to move answers.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/tool.hpp"
#include "netgen/netgen.hpp"
#include "sim/golden.hpp"

namespace {

using namespace nbuf;

const lib::BufferLibrary kLib = lib::default_library();

void append_leaves(std::vector<std::string>& out, const char* set,
                   const std::string& net, const sim::GoldenReport& coarse,
                   const sim::GoldenReport& fine) {
  ASSERT_EQ(coarse.leaves.size(), fine.leaves.size()) << net;
  for (std::size_t i = 0; i < coarse.leaves.size(); ++i) {
    const sim::GoldenLeaf& c = coarse.leaves[i];
    const sim::GoldenLeaf& f = fine.leaves[i];
    ASSERT_EQ(c.node, f.node) << net;
    char line[256];
    std::snprintf(line, sizeof line, "%s %s %u %c dt p%a w%a dt/2 p%a w%a",
                  set, net.c_str(), c.node.value(),
                  c.is_buffer_input ? 'b' : 's', c.peak, c.width, f.peak,
                  f.width);
    out.emplace_back(line);
  }
}

// Golden reports of `tree` under `buffers` at dt and at dt/2.
void record(std::vector<std::string>& out, const char* set,
            const std::string& net, const rct::RoutingTree& tree,
            const rct::BufferAssignment& buffers) {
  sim::GoldenOptions opt = sim::golden_options_from(lib::default_technology());
  const sim::GoldenReport coarse = sim::golden_analyze(tree, buffers, kLib, opt);
  opt.steps_per_rise *= 2.0;
  const sim::GoldenReport fine = sim::golden_analyze(tree, buffers, kLib, opt);
  append_leaves(out, set, net, coarse, fine);
}

std::vector<std::string> golden_lines() {
  std::vector<std::string> out;
  core::ToolOptions tool;  // what the batch engine runs for BuffOpt
  tool.vg.max_buffers = 24;
  for (const netgen::GeneratedNet& n :
       netgen::generate_testbench(kLib, netgen::TestbenchOptions{})) {
    const core::ToolResult r = core::run_buffopt(n.tree, kLib, tool);
    if (!r.vg.feasible) continue;  // signoff verifies feasible results only
    record(out, "sv", n.name, r.tree, r.vg.buffers);
  }
  netgen::TestbenchOptions unbuffered;
  unbuffered.net_count = 120;
  unbuffered.seed = 4242;
  for (const netgen::GeneratedNet& n :
       netgen::generate_testbench(kLib, unbuffered))
    record(out, "ub", n.name, n.tree, rct::BufferAssignment{});
  return out;
}

TEST(GoldenSim, LeafPeaksAndWidthsReproduceBitForBit) {
  const std::string path = std::string(NBUF_GOLDEN_DIR) + "/golden_sim.txt";
  const std::vector<std::string> got = golden_lines();
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

}  // namespace
