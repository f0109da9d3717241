#include "sim/golden.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "obs/trace.hpp"
#include "sim/stage_circuit.hpp"
#include "sim/tree_solver.hpp"
#include "util/check.hpp"

namespace nbuf::sim {

namespace {

std::string convergence_message(rct::NodeId node, double coarse,
                                double fine) {
  return "golden simulation did not converge at node " +
         std::to_string(node.value()) + ": peak " + std::to_string(coarse) +
         " V at dt vs " + std::to_string(fine) + " V at dt/2";
}

struct SimOut {
  std::vector<double> peak;   // per sim node
  std::vector<double> width;  // per traced node — time above peak/2
  std::size_t steps = 0;          // backward-Euler steps marched
  std::size_t horizon_steps = 0;  // steps to the settling cap
};

// Relative guard on the early exit's compare: the max-norm bound is exact
// arithmetic, and this margin absorbs the rounding of the later steps.
constexpr double kStopGuard = 1.0 - 1e-9;

// Marches the stage circuit under aggressor excitation; records per-node
// peak |v| and, for the nodes listed in `trace_nodes` (the stage leaves —
// the only nodes whose pulse shape is reported), stores the waveform so a
// cheap second pass can measure the pulse width at half the peak. Interior
// pi-section nodes are not traced: a large unbuffered stage can take 1e5+
// timesteps, and full-circuit traces would be hundreds of megabytes.
//
// The march ends at the first step after which no peak and no width can
// change (docs/signoff.md, "Simulation horizon"). Once the ramp has
// saturated the stage has no source, and a backward-Euler step of the
// grounded tree never raises max_i |v_i|. So when that maximum is below
// every node's peak and below half the peak of every traced leaf, or the
// state is exactly zero, the rest of the march is dead. The
// settle_time_constants horizon is only the cap; `full_horizon` ignores
// the exit and marches to it.
SimOut simulate(const StageCircuit& c, double driver_resistance,
                const GoldenOptions& opt, double steps_per_rise,
                const std::vector<std::size_t>& trace_nodes,
                bool full_horizon = false) {
  NBUF_EXPECTS(driver_resistance > 0.0);
  const std::size_t n = c.size();
  const double h = opt.aggressor.rise / steps_per_rise;

  // Stage time constant estimate for the settling cap.
  double r_total = driver_resistance;
  double c_total = 0.0;
  for (std::size_t i = 1; i < n; ++i) r_total += 1.0 / c.branch_g[i];
  for (std::size_t i = 0; i < n; ++i) c_total += c.total_cap(i);
  const double t_end = opt.aggressor.t0 + opt.aggressor.rise +
                       opt.settle_time_constants * r_total * c_total;

  std::vector<double> cap_h(n), couple_h(n);  // C_i / h and Cc_i / h
  for (std::size_t i = 0; i < n; ++i) {
    cap_h[i] = c.total_cap(i) / h;
    couple_h[i] = c.cap_couple[i] / h;
  }
  std::vector<double> extra(n, 0.0);
  extra[0] = 1.0 / driver_resistance;  // victim driver holds quiet
  for (std::size_t i = 0; i < n; ++i) extra[i] += cap_h[i];
  const TreeSolver solver(c.parent, c.branch_g, extra);

  std::vector<double> v(n, 0.0);
  std::vector<double> rhs(n);
  SimOut out;
  out.peak.assign(n, 0.0);
  out.width.assign(n, 0.0);
  out.horizon_steps = static_cast<std::size_t>(std::ceil(t_end / h));
  std::vector<std::vector<double>> trace(trace_nodes.size());
  double va_prev = opt.aggressor.at(0.0);
  for (std::size_t step = 1; step <= out.horizon_steps; ++step) {
    const double t = static_cast<double>(step) * h;
    const double va = opt.aggressor.at(t);
    const double dva = va - va_prev;
    va_prev = va;
    for (std::size_t i = 0; i < n; ++i)
      rhs[i] = cap_h[i] * v[i] + couple_h[i] * dva;
    solver.solve(rhs);
    v.swap(rhs);
    double vmax = 0.0;
    double peak_min = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      const double a = std::abs(v[i]);
      out.peak[i] = std::max(out.peak[i], a);
      vmax = std::max(vmax, a);
      peak_min = std::min(peak_min, out.peak[i]);
    }
    for (std::size_t k = 0; k < trace_nodes.size(); ++k)
      trace[k].push_back(std::abs(v[trace_nodes[k]]));
    out.steps = step;
    // at() is monotone and never passes vdd, so once it reads vdd every
    // later step has dva = 0.
    if (full_horizon || va != opt.aggressor.vdd) continue;
    if (vmax == 0.0) break;  // a zero state stays zero
    double bound = peak_min;
    for (std::size_t i : trace_nodes)
      bound = std::min(bound, out.peak[i] / 2.0);
    if (vmax < bound * kStopGuard) break;
  }
  for (std::size_t k = 0; k < trace_nodes.size(); ++k) {
    const std::size_t i = trace_nodes[k];
    const double half = out.peak[i] / 2.0;
    if (half <= 0.0) continue;
    std::size_t above = 0;
    for (double x : trace[k])
      if (x >= half) ++above;
    out.width[i] = static_cast<double>(above) * h;
  }
  return out;
}

// Simulates one stage at the configured timestep; with check_convergence
// set, re-simulates at dt/2 and requires every traced leaf's peak to agree.
SimOut simulate_checked(const StageCircuit& c, double driver_resistance,
                        const GoldenOptions& opt,
                        const std::vector<std::size_t>& trace_nodes) {
  SimOut out = simulate(c, driver_resistance, opt, opt.steps_per_rise,
                        trace_nodes);
  if (opt.check_convergence) {
    NBUF_TRACE_DETAIL_TAGGED("golden.convergence", c.size());
    const SimOut fine = simulate(c, driver_resistance, opt,
                                 opt.steps_per_rise * 2.0, {});
    out.steps += fine.steps;
    out.horizon_steps += fine.horizon_steps;
    for (const auto& [id, i] : c.sim_node_of) {
      const double coarse_peak = out.peak[i];
      const double fine_peak = fine.peak[i];
      const double tol = std::max(opt.convergence_atol,
                                  opt.convergence_rtol * fine_peak);
      if (std::abs(coarse_peak - fine_peak) > tol)
        throw ConvergenceError(id, coarse_peak, fine_peak);
    }
  }
  return out;
}

std::vector<std::size_t> leaf_sim_nodes(const StageCircuit& c,
                                        const rct::Stage& stage) {
  std::vector<std::size_t> out;
  out.reserve(stage.sinks.size());
  for (const rct::StageSink& s : stage.sinks)
    out.push_back(c.sim_node_of.at(s.node));
  return out;
}

}  // namespace

ConvergenceError::ConvergenceError(rct::NodeId n, double coarse, double fine)
    : std::runtime_error(convergence_message(n, coarse, fine)),
      node(n),
      coarse_peak(coarse),
      fine_peak(fine) {}

GoldenOptions golden_options_from(const lib::Technology& tech) {
  tech.validate();
  GoldenOptions opt;
  opt.coupling_ratio = tech.coupling_ratio;
  opt.aggressor = SaturatedRamp{tech.vdd, tech.aggressor_rise, 0.0};
  return opt;
}

std::vector<std::pair<rct::NodeId, double>> golden_stage_peaks(
    const rct::RoutingTree& tree, const rct::Stage& stage,
    const GoldenOptions& options) {
  const StageCircuit c = build_stage_circuit(
      tree, stage, options.coupling_ratio, options.section_length);
  const SimOut sim_out = simulate_checked(c, stage.driver_resistance,
                                          options, {});
  std::vector<std::pair<rct::NodeId, double>> out;
  out.reserve(c.sim_node_of.size());
  for (const auto& [id, sim] : c.sim_node_of)
    out.emplace_back(id, sim_out.peak[sim]);
  return out;
}

GoldenReport golden_analyze(const rct::RoutingTree& tree,
                            const rct::BufferAssignment& buffers,
                            const lib::BufferLibrary& lib,
                            const GoldenOptions& options) {
  NBUF_TRACE_SPAN_TAGGED("golden.analyze", tree.node_count());
  const auto stages = rct::decompose(tree, buffers, lib);
  GoldenReport report;
  report.sinks.resize(tree.sink_count());
  report.worst_slack = std::numeric_limits<double>::infinity();
  for (const rct::Stage& st : stages) {
    NBUF_TRACE_DETAIL_TAGGED("golden.stage", st.sinks.size());
    const StageCircuit c = build_stage_circuit(
        tree, st, options.coupling_ratio, options.section_length);
    const SimOut sim_out = simulate_checked(c, st.driver_resistance, options,
                                            leaf_sim_nodes(c, st));
    report.steps += sim_out.steps;
    report.horizon_steps += sim_out.horizon_steps;
    for (const rct::StageSink& s : st.sinks) {
      GoldenLeaf leaf;
      leaf.node = s.node;
      leaf.is_buffer_input = s.is_buffer_input;
      leaf.sink = s.sink;
      leaf.peak = sim_out.peak[c.sim_node_of.at(s.node)];
      leaf.width = sim_out.width[c.sim_node_of.at(s.node)];
      leaf.margin = s.noise_margin;
      leaf.slack = leaf.margin - leaf.peak;
      report.leaves.push_back(leaf);
      if (!s.is_buffer_input) report.sinks[s.sink.value()] = leaf;
      report.worst_slack = std::min(report.worst_slack, leaf.slack);
      if (leaf.slack < 0.0) ++report.violation_count;
    }
  }
  return report;
}

namespace detail {

StageMarch march_stage(const rct::RoutingTree& tree, const rct::Stage& stage,
                       const GoldenOptions& options, double steps_per_rise,
                       bool full_horizon) {
  const StageCircuit c = build_stage_circuit(
      tree, stage, options.coupling_ratio, options.section_length);
  const std::vector<std::size_t> leaves = leaf_sim_nodes(c, stage);
  SimOut sim_out = simulate(c, stage.driver_resistance, options,
                            steps_per_rise, leaves, full_horizon);
  StageMarch out;
  out.peaks = std::move(sim_out.peak);
  for (std::size_t i : leaves) out.widths.push_back(sim_out.width[i]);
  out.steps = sim_out.steps;
  out.horizon_steps = sim_out.horizon_steps;
  return out;
}

}  // namespace detail

GoldenReport golden_analyze_unbuffered(const rct::RoutingTree& tree,
                                       const GoldenOptions& options) {
  static const lib::BufferLibrary empty_lib;
  return golden_analyze(tree, rct::BufferAssignment{}, empty_lib, options);
}

}  // namespace nbuf::sim
