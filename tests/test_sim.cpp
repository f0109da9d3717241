#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/test_nets.hpp"
#include "noise/devgan.hpp"
#include "sim/dense.hpp"
#include "sim/golden.hpp"
#include "sim/tree_solver.hpp"
#include "util/rng.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;

// --- DenseLu -------------------------------------------------------------------

TEST(DenseLu, SolvesKnownSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
  sim::DenseLu lu({2, 1, 1, 3}, 2);
  std::vector<double> b = {5, 10};
  lu.solve(b);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(DenseLu, PivotingHandlesZeroDiagonal) {
  // [0 1; 1 0] x = [2; 3] -> x = [3; 2]
  sim::DenseLu lu({0, 1, 1, 0}, 2);
  std::vector<double> b = {2, 3};
  lu.solve(b);
  EXPECT_NEAR(b[0], 3.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(DenseLu, SingularThrows) {
  EXPECT_THROW(sim::DenseLu({1, 2, 2, 4}, 2), std::invalid_argument);
}

TEST(DenseLu, RandomSystemsRoundTrip) {
  util::Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 12;
    std::vector<double> a(n * n);
    for (auto& v : a) v = rng.uniform(-1, 1);
    for (std::size_t i = 0; i < n; ++i) a[i * n + i] += 5.0;  // diag dominant
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.uniform(-2, 2);
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) b[i] += a[i * n + j] * x_true[j];
    sim::DenseLu lu(a, n);
    lu.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-9);
  }
}

// --- DenseCircuit ----------------------------------------------------------------

TEST(DenseCircuit, DcVoltageDivider) {
  sim::DenseCircuit c;
  const auto n1 = c.add_nodes(2);  // n1, n2
  c.add_driven_node(n1, 100.0, [](double) { return 1.0; });
  c.add_resistor(n1, n1 + 1, 100.0);
  c.add_resistor(n1 + 1, 0, 200.0);
  const auto v = c.dc(0.0);
  // Source 1V behind 100; divider: v1 = 1 * 300/(400) ... solve: current
  // i = 1/(100+100+200) = 2.5mA; v1 = 1 - 0.25 = 0.75; v2 = 0.5.
  EXPECT_NEAR(v[n1], 0.75, 1e-9);
  EXPECT_NEAR(v[n1 + 1], 0.5, 1e-9);
}

TEST(DenseCircuit, RcStepResponseMatchesAnalytic) {
  // Single RC: v(t) = 1 - e^{-t/RC}.
  const double R = 1000.0, C = 1e-12;
  sim::DenseCircuit c;
  const auto n = c.add_nodes(1);
  c.add_driven_node(n, R, [](double) { return 1.0; });
  c.add_capacitor(n, 0, C);
  const double tau = R * C;
  const auto res = c.transient(5 * tau, tau / 2000.0);
  const double expect = 1.0 - std::exp(-5.0);
  EXPECT_NEAR(res.final_v[n], expect, 2e-3);
}

TEST(DenseCircuit, TrapezoidalAgreesWithBackwardEuler) {
  const double R = 500.0, C = 2e-12;
  sim::DenseCircuit c;
  const auto n = c.add_nodes(1);
  c.add_driven_node(n, R, [](double t) { return t > 1e-10 ? 1.0 : 0.0; });
  c.add_capacitor(n, 0, C);
  const auto be = c.transient(5e-9, 1e-12, sim::DenseCircuit::Method::BackwardEuler);
  const auto tr = c.transient(5e-9, 1e-12, sim::DenseCircuit::Method::Trapezoidal);
  EXPECT_NEAR(be.final_v[n], tr.final_v[n], 1e-3);
}

TEST(DenseCircuit, CouplingInjectsNoise) {
  // Quiet node coupled to a ramp through C_c shows a transient bump that
  // decays back to zero.
  sim::DenseCircuit c;
  const auto victim = c.add_nodes(2);  // victim, aggressor
  const auto aggr = victim + 1;
  c.add_resistor(victim, 0, 200.0);  // victim driver holds low
  c.add_driven_node(aggr, 1.0, [](double t) {
    return 1.8 * std::clamp(t / 0.25e-9, 0.0, 1.0);
  });
  c.add_capacitor(victim, aggr, 100 * fF);
  const auto res = c.transient(3e-9, 0.5e-12);
  EXPECT_GT(res.peak_abs[victim], 0.01);
  EXPECT_NEAR(res.final_v[victim], 0.0, 1e-3);
}

// --- TreeSolver ------------------------------------------------------------------

TEST(TreeSolver, ChainMatchesAnalytic) {
  // Root grounded through g=1 (extra), chain of two resistors g=2; inject
  // 1A at the leaf: v_leaf - hand-solved ladder.
  sim::TreeSolver s({0, 0, 1}, {0, 2.0, 2.0}, {1.0, 0.0, 0.0});
  std::vector<double> rhs = {0.0, 0.0, 1.0};
  s.solve(rhs);
  // All 1A flows to ground through root: v0 = 1/1 = 1; v1 = v0 + 1/2;
  // v2 = v1 + 1/2.
  EXPECT_NEAR(rhs[0], 1.0, 1e-12);
  EXPECT_NEAR(rhs[1], 1.5, 1e-12);
  EXPECT_NEAR(rhs[2], 2.0, 1e-12);
}

TEST(TreeSolver, MatchesDenseOnRandomTrees) {
  util::Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(1, 30));
    std::vector<std::size_t> parent(n, 0);
    std::vector<double> g(n, 0.0), extra(n, 0.0);
    for (std::size_t i = 1; i < n; ++i) {
      parent[i] = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i) - 1));
      g[i] = rng.uniform(0.1, 10.0);
      extra[i] = rng.chance(0.5) ? rng.uniform(0.0, 1.0) : 0.0;
    }
    extra[0] = rng.uniform(0.5, 2.0);
    // Dense version of the same Laplacian-plus-diagonal.
    std::vector<double> a(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) a[i * n + i] += extra[i];
    for (std::size_t i = 1; i < n; ++i) {
      a[i * n + i] += g[i];
      a[parent[i] * n + parent[i]] += g[i];
      a[i * n + parent[i]] -= g[i];
      a[parent[i] * n + i] -= g[i];
    }
    std::vector<double> rhs(n);
    for (auto& v : rhs) v = rng.uniform(-1, 1);
    std::vector<double> dense_rhs = rhs;
    sim::DenseLu lu(a, n);
    lu.solve(dense_rhs);
    sim::TreeSolver ts(parent, g, extra);
    ts.solve(rhs);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(rhs[i], dense_rhs[i], 1e-9);
  }
}

TEST(TreeSolver, RejectsSingularSystem) {
  // No grounding anywhere: floating network.
  EXPECT_THROW(sim::TreeSolver({0, 0}, {0.0, 1.0}, {0.0, 0.0}),
               std::invalid_argument);
}

TEST(TreeSolver, RejectsCyclicParents) {
  EXPECT_THROW(sim::TreeSolver({0, 2, 1}, {0, 1, 1}, {1, 0, 0}),
               std::invalid_argument);
}

// --- golden noise analysis ----------------------------------------------------------

TEST(Golden, QuietNetWithoutCouplingIsSilent) {
  auto t = test::long_two_pin(3000.0);
  auto opt = sim::golden_options_from(lib::default_technology());
  opt.coupling_ratio = 0.0;
  const auto rep = sim::golden_analyze_unbuffered(t, opt);
  EXPECT_LT(rep.sinks[0].peak, 1e-9);
}

TEST(Golden, PeakIsPositiveAndBelowVdd) {
  auto t = test::long_two_pin(5000.0);
  const auto opt = sim::golden_options_from(lib::default_technology());
  const auto rep = sim::golden_analyze_unbuffered(t, opt);
  EXPECT_GT(rep.sinks[0].peak, 0.05);
  EXPECT_LT(rep.sinks[0].peak, 1.8);
}

TEST(Golden, DevganMetricIsUpperBound) {
  // The headline property (Section II-B): the metric bounds simulated peak
  // noise from above, at every length.
  const auto opt = sim::golden_options_from(lib::default_technology());
  for (double len : {1000.0, 2500.0, 5000.0, 9000.0}) {
    auto t = test::long_two_pin(len);
    const auto metric = noise::analyze_unbuffered(t);
    const auto golden = sim::golden_analyze_unbuffered(t, opt);
    EXPECT_GE(metric.sinks[0].noise, golden.sinks[0].peak)
        << "length " << len;
    EXPECT_GT(golden.sinks[0].peak, 0.0);
  }
}

TEST(Golden, MetricBoundHoldsOnMultiSinkTrees) {
  const auto opt = sim::golden_options_from(lib::default_technology());
  auto t = steiner::make_balanced_tree(3, 900.0, test::default_driver(),
                                       test::default_sink(),
                                       lib::default_technology());
  const auto metric = noise::analyze_unbuffered(t);
  const auto golden = sim::golden_analyze_unbuffered(t, opt);
  ASSERT_EQ(metric.sinks.size(), golden.sinks.size());
  for (std::size_t i = 0; i < metric.sinks.size(); ++i)
    EXPECT_GE(metric.sinks[i].noise, golden.sinks[i].peak);
}

TEST(Golden, BufferReducesPeakNoise) {
  auto t1 = test::long_two_pin(6000.0);
  auto t2 = test::long_two_pin(6000.0);
  const auto l = lib::default_library();
  const auto opt = sim::golden_options_from(lib::default_technology());
  const auto mid = t2.split_wire(t2.sinks().front().node, 3000.0);
  rct::BufferAssignment a;
  a.place(mid, lib::BufferId{9});
  const auto before = sim::golden_analyze_unbuffered(t1, opt);
  const auto after = sim::golden_analyze(t2, a, l, opt);
  EXPECT_LT(after.sinks[0].peak, before.sinks[0].peak);
}

TEST(Golden, ConvergenceCheckPassesAtDefaultStep) {
  // The production timestep (200 steps per rise) must already be converged:
  // halving dt moves no leaf peak past the tolerance, so the checked run
  // returns normally and agrees with the unchecked one.
  auto t = test::long_two_pin(5000.0);
  auto opt = sim::golden_options_from(lib::default_technology());
  const auto plain = sim::golden_analyze_unbuffered(t, opt);
  opt.check_convergence = true;
  const auto checked = sim::golden_analyze_unbuffered(t, opt);
  EXPECT_DOUBLE_EQ(checked.sinks[0].peak, plain.sinks[0].peak);
}

TEST(Golden, ConvergenceCheckFlagsCoarseStep) {
  // A deliberately coarse march (2 steps per rise) under-resolves the ramp;
  // dt/2 moves the peak, and the check must refuse to return the number.
  auto t = test::long_two_pin(5000.0);
  auto opt = sim::golden_options_from(lib::default_technology());
  opt.check_convergence = true;
  opt.steps_per_rise = 2.0;
  EXPECT_THROW(sim::golden_analyze_unbuffered(t, opt),
               sim::ConvergenceError);
}

TEST(Golden, ConvergenceErrorCarriesDiagnostics) {
  auto t = test::long_two_pin(5000.0);
  auto opt = sim::golden_options_from(lib::default_technology());
  opt.check_convergence = true;
  opt.steps_per_rise = 2.0;
  try {
    (void)sim::golden_analyze_unbuffered(t, opt);
    FAIL() << "expected ConvergenceError";
  } catch (const sim::ConvergenceError& e) {
    EXPECT_TRUE(e.node.valid());
    EXPECT_GT(e.coarse_peak, 0.0);
    EXPECT_GT(e.fine_peak, 0.0);
    // The error is precisely "the peaks disagree beyond tolerance".
    const double tol = std::max(opt.convergence_atol,
                                opt.convergence_rtol * e.fine_peak);
    EXPECT_GT(std::abs(e.coarse_peak - e.fine_peak), tol);
  }
}

TEST(Golden, ViolationCountUsesMargins) {
  auto t = test::long_two_pin(9000.0);  // far beyond critical length
  const auto opt = sim::golden_options_from(lib::default_technology());
  const auto rep = sim::golden_analyze_unbuffered(t, opt);
  EXPECT_EQ(rep.violation_count, 1u);
  EXPECT_LT(rep.worst_slack, 0.0);
}

TEST(Golden, TreeSolverPathMatchesDenseCircuit) {
  // Rebuild the same single-stage circuit with the dense engine and compare
  // the sink's peak.
  const double len = 2000.0;
  const auto tech = lib::default_technology();
  auto t = test::long_two_pin(len, 150.0);
  auto opt = sim::golden_options_from(tech);
  opt.section_length = 250.0;  // 8 sections
  const auto stages =
      rct::decompose(t, rct::BufferAssignment{}, lib::BufferLibrary{});
  const auto peaks = sim::golden_stage_peaks(t, stages[0], opt);
  double tree_peak = -1.0;
  for (const auto& [id, pk] : peaks)
    if (id == t.sinks().front().node) tree_peak = pk;
  ASSERT_GE(tree_peak, 0.0);

  // Dense twin: 8 pi-sections, aggressor as near-ideal driven node.
  const int n_sec = 8;
  sim::DenseCircuit dc;
  const auto first = dc.add_nodes(n_sec + 2);  // root + 8 + aggressor
  const auto root = first;
  const auto aggr = first + n_sec + 1;
  dc.add_resistor(root, 0, 150.0);  // victim driver
  const double r_sec = tech.wire_res(len) / n_sec;
  const double c_sec = tech.wire_cap(len) / n_sec;
  const double lam = tech.coupling_ratio;
  dc.add_driven_node(aggr, 1e-3, [&tech](double tt) {
    return tech.vdd * std::clamp(tt / tech.aggressor_rise, 0.0, 1.0);
  });
  for (int s = 0; s < n_sec; ++s) {
    const auto up = root + s, down = root + s + 1;
    dc.add_resistor(up, down, r_sec);
    for (auto end : {up, down}) {
      dc.add_capacitor(end, 0, (1 - lam) * c_sec / 2);
      dc.add_capacitor(end, aggr, lam * c_sec / 2);
    }
  }
  dc.add_capacitor(root + n_sec, 0, 10 * fF);  // sink pin
  const double h = tech.aggressor_rise / opt.steps_per_rise;
  const auto res = dc.transient(4e-9, h);
  EXPECT_NEAR(res.peak_abs[root + n_sec], tree_peak, 0.03 * tree_peak);
}

// --- golden horizon: the early exit vs the full march -------------------------

// A random stage tree: `sinks` sinks under a random tree of internal nodes,
// wire R and C and the driver R scaled from the default technology. With
// sinks == 0 it is a single-node stage: one sink on a zero-length wire,
// which the circuit collapses onto the driver node.
rct::RoutingTree random_stage_tree(util::Rng& rng, int sinks, double r_scale,
                                   double c_scale, double d_scale) {
  const auto tech = lib::default_technology();
  rct::RoutingTree t;
  const rct::NodeId src = t.make_source(test::default_driver(150.0 * d_scale));
  if (sinks == 0) {
    t.add_sink(src, rct::Wire{}, test::default_sink());
    return t;
  }
  auto wire = [&] {
    const double len = rng.log_uniform(20.0, 1500.0);
    return rct::Wire{len, tech.wire_res(len) * r_scale,
                     tech.wire_cap(len) * c_scale, 0.0};
  };
  std::vector<rct::NodeId> tops{src};
  auto any_top = [&] {
    return tops[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(tops.size()) - 1))];
  };
  for (int s = 0; s < sinks; ++s) {
    if (rng.chance(0.6)) tops.push_back(t.add_internal(any_top(), wire()));
    t.add_sink(any_top(), wire(),
               test::default_sink(rng.uniform(4.0, 40.0) * fF));
  }
  return t;
}

// The settling cap of a stage in steps at `steps_per_rise`, from the same
// R_total * C_total estimate the simulator uses (pin caps included).
double horizon_steps_estimate(const rct::RoutingTree& t,
                              const sim::GoldenOptions& opt,
                              double steps_per_rise) {
  double r = t.driver().resistance, c = 0.0;
  for (std::size_t i = 0; i < t.node_count(); ++i) {
    const rct::Node& n = t.node(rct::NodeId{static_cast<std::uint32_t>(i)});
    r += n.parent_wire.resistance;
    c += n.parent_wire.capacitance;
  }
  for (const rct::SinkInfo& s : t.sinks()) c += s.cap;
  return (opt.aggressor.rise + opt.settle_time_constants * r * c) /
         (opt.aggressor.rise / steps_per_rise);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(GoldenHorizon, EarlyExitMatchesTheFullMarchBitForBit) {
  // Scales are drawn log-uniformly from [1e-3, 1e3] and redrawn while the
  // reference march would exceed 2e5 steps at dt/2 (its cost, not the
  // exit's, is what limits the suite); test_golden_sim covers the long
  // horizons of real unbuffered nets against recorded full marches.
  // Every third stage sees the ramp start late, so the march begins in a
  // zero state that must not end it before the ramp has saturated.
  util::Rng rng(1606);
  std::size_t marches = 0, stopped = 0;
  for (int trial = 0; trial < 72; ++trial) {
    auto opt = sim::golden_options_from(lib::default_technology());
    if (trial % 3 == 1)
      opt.aggressor.t0 = rng.uniform(0.1, 2.0) * opt.aggressor.rise;
    const int sinks = trial % 8 == 0 ? 0 : rng.uniform_int(1, 6);
    util::Rng topo(rng.uniform_int(0, 1 << 30));
    rct::RoutingTree t;
    double r_scale = 1.0, c_scale = 1.0, d_scale = 1.0;
    do {
      r_scale = rng.log_uniform(1e-3, 1e3);
      c_scale = rng.log_uniform(1e-3, 1e3);
      d_scale = rng.log_uniform(1e-3, 1e3);
      util::Rng copy = topo;
      t = random_stage_tree(copy, sinks, r_scale, c_scale, d_scale);
    } while (horizon_steps_estimate(t, opt, 2.0 * opt.steps_per_rise) > 2e5);
    const auto stages =
        rct::decompose(t, rct::BufferAssignment{}, lib::BufferLibrary{});
    ASSERT_EQ(stages.size(), 1u);
    for (const double spr : {opt.steps_per_rise, 2.0 * opt.steps_per_rise}) {
      const auto early =
          sim::detail::march_stage(t, stages[0], opt, spr, false);
      const auto full = sim::detail::march_stage(t, stages[0], opt, spr, true);
      SCOPED_TRACE(::testing::Message()
                   << "trial " << trial << " sinks " << sinks << " t0 "
                   << opt.aggressor.t0 << " R x"
                   << r_scale << " C x" << c_scale << " Rd x" << d_scale
                   << " steps/rise " << spr);
      EXPECT_EQ(full.steps, full.horizon_steps);
      EXPECT_EQ(early.horizon_steps, full.horizon_steps);
      EXPECT_LE(early.steps, full.steps);
      ASSERT_EQ(early.peaks.size(), full.peaks.size());
      for (std::size_t i = 0; i < full.peaks.size(); ++i)
        EXPECT_EQ(bits(early.peaks[i]), bits(full.peaks[i])) << "node " << i;
      ASSERT_EQ(early.widths.size(), full.widths.size());
      for (std::size_t i = 0; i < full.widths.size(); ++i)
        EXPECT_EQ(bits(early.widths[i]), bits(full.widths[i])) << "leaf " << i;
      ++marches;
      if (early.steps < full.steps) ++stopped;
    }
  }
  // The exit must actually fire: on most stages it ends the march early.
  EXPECT_GE(10 * stopped, 9 * marches) << stopped << " of " << marches;
}

TEST(GoldenHorizon, ZeroStateStopsAtSaturation) {
  // Without coupling nothing excites the stage; the all-zero state stays
  // zero, so the march ends at the step the ramp saturates.
  auto t = test::long_two_pin(3000.0);
  auto opt = sim::golden_options_from(lib::default_technology());
  opt.coupling_ratio = 0.0;
  const auto stages =
      rct::decompose(t, rct::BufferAssignment{}, lib::BufferLibrary{});
  const auto m = sim::detail::march_stage(t, stages[0], opt,
                                          opt.steps_per_rise, false);
  EXPECT_EQ(m.steps, static_cast<std::size_t>(opt.steps_per_rise));
  EXPECT_LT(m.steps, m.horizon_steps);
  for (double p : m.peaks) EXPECT_EQ(p, 0.0);
  for (double w : m.widths) EXPECT_EQ(w, 0.0);
}

TEST(GoldenHorizon, ReportCountsMarchedAndHorizonSteps) {
  auto t = test::long_two_pin(5000.0);
  auto opt = sim::golden_options_from(lib::default_technology());
  const auto plain = sim::golden_analyze_unbuffered(t, opt);
  EXPECT_GT(plain.steps, 0u);
  EXPECT_LT(plain.steps, plain.horizon_steps);
  opt.check_convergence = true;  // the dt/2 pass adds its own steps
  const auto checked = sim::golden_analyze_unbuffered(t, opt);
  EXPECT_GT(checked.steps, plain.steps);
  EXPECT_GT(checked.horizon_steps, plain.horizon_steps);
}

TEST(Golden, OptionsFromTechnology) {
  const auto tech = lib::default_technology();
  const auto opt = sim::golden_options_from(tech);
  EXPECT_DOUBLE_EQ(opt.coupling_ratio, 0.7);
  EXPECT_DOUBLE_EQ(opt.aggressor.vdd, 1.8);
  EXPECT_DOUBLE_EQ(opt.aggressor.rise, 0.25 * ns);
  EXPECT_NEAR(opt.aggressor.slope(), 7.2e9, 1.0);
}

TEST(Waveform, SaturatedRamp) {
  const sim::SaturatedRamp r{1.8, 0.25 * ns, 0.0};
  EXPECT_DOUBLE_EQ(r.at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(r.at(0.125 * ns), 0.9);
  EXPECT_DOUBLE_EQ(r.at(1.0), 1.8);
  EXPECT_NEAR(r.slope(), 7.2e9, 1e-3);
}

}  // namespace
