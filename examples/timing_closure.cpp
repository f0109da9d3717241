// Timing closure with noise constraints (Problems 2 and 3, Algorithm 3).
//
//   $ ./timing_closure
//
// A timing-critical 12 mm net: sweep the allowed buffer count and print the
// delay/buffers tradeoff curve for DelayOpt(k) and BuffOpt, then let the
// Problem-3 objective pick the cheapest solution that meets both the
// required arrival time and the noise margins.
#include <cstdio>

#include "core/tool.hpp"
#include "steiner/builders.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace nbuf;
  using namespace nbuf::units;

  const lib::Technology tech = lib::default_technology();
  const lib::BufferLibrary library = lib::default_library();

  rct::SinkInfo sink;
  sink.name = "fpu_operand";
  sink.cap = 20.0 * fF;
  sink.noise_margin = 0.8 * V;
  sink.required_arrival = 1.5 * ns;
  rct::RoutingTree net = steiner::make_two_pin(
      12000.0, rct::Driver{"issue_q", 120.0, 40.0 * ps}, sink, tech);

  // Tradeoff curve: the best delay with at most k buffers, with and without
  // noise constraints (the Lillis count-indexed extension makes this one DP
  // run per mode). per_count lists only the counts that buy slack, so a
  // BuffOpt(k) entry is the last BuffOpt row with at most k buffers.
  core::ToolOptions opt;
  opt.vg.max_buffers = 8;
  opt.vg.noise_constraints = false;
  const auto delay_curve = core::run(net, library, opt);
  opt.vg.noise_constraints = true;
  const auto noise_curve = core::run(net, library, opt);

  util::Table table({"k", "DelayOpt(k) delay", "BuffOpt(k) delay",
                     "noise-clean?"});
  for (const auto& d : delay_curve.vg.per_count) {
    std::string buff = "-";
    std::string clean = "no candidate";
    for (const auto& b : noise_curve.vg.per_count) {
      if (b.count > d.count) break;
      const auto a = core::assignment_for(b.plan);
      const auto timing = elmore::analyze(noise_curve.tree, a, library);
      buff = util::Table::num(timing.max_delay / ps, 1) + " ps";
      clean = "yes";
    }
    const auto a = core::assignment_for(d.plan);
    const auto timing = elmore::analyze(delay_curve.tree, a, library);
    table.add_row({std::to_string(d.count),
                   util::Table::num(timing.max_delay / ps, 1) + " ps", buff,
                   clean});
  }
  std::printf("%s\n", table.render().c_str());

  // Problem 3: fewest buffers meeting RAT and noise.
  const auto closed = core::run_buffopt(net, library);
  std::printf("problem 3: %zu buffers, slack %.1f ps, noise %s\n",
              closed.vg.buffer_count, closed.vg.slack / ps,
              closed.noise_after.clean() ? "clean" : "VIOLATED");
  return closed.vg.feasible && closed.vg.timing_met ? 0 : 1;
}
