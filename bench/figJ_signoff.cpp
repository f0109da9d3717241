// figJ: signoff throughput and metric pessimism at workload scale.
//
// Optimizes a netgen workload (default the 500-net Section V testbench)
// with BuffOpt, then re-verifies every solution through the signoff
// subsystem (golden transient + Devgan metric + Elmore timing) at 1/2/4/8
// verifier threads. Reports verify throughput in nets/sec, the Theorem-1
// ledger (metric-clean solutions golden must confirm — any shortfall is a
// broken conservatism bound), and the metric/golden pessimism histogram in
// the spirit of the paper's Table III. Verification is embarrassingly
// parallel, so throughput should scale near-linearly to the core count;
// the aggregate report must be bit-identical at every thread count.
//
//   figJ_signoff [--count N] [--seed S] [--quick]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "batch/batch.hpp"
#include "common/workload.hpp"
#include "signoff/workload.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace nbuf;

  std::size_t count = 500;
  std::uint64_t seed = 9851;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--count" && i + 1 < argc) {
      count = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (a == "--seed" && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    } else if (a == "--quick") {
      count = 60;
    } else {
      std::fprintf(stderr, "usage: %s [--count N] [--seed S] [--quick]\n",
                   argv[0]);
      return 2;
    }
  }

  const auto library = lib::default_library();
  netgen::TestbenchOptions gen = bench::paper_testbench_options();
  gen.net_count = count;
  gen.seed = seed;
  std::fprintf(stderr, "[workload] generating %zu-net testbench...\n",
               count);
  const auto nets =
      batch::from_generated(netgen::generate_testbench(library, gen));
  std::fprintf(stderr, "[workload] optimizing (%u hardware thread(s))...\n",
               std::thread::hardware_concurrency());
  const batch::BatchResult opt =
      batch::BatchEngine(batch::BatchOptions{}).run(nets, library);
  std::fprintf(stderr, "[workload] done.\n");

  std::printf("== figJ: signoff throughput, %zu-net BuffOpt workload ==\n\n",
              nets.size());

  signoff::WorkloadOptions wopt;
  wopt.signoff.golden = sim::golden_options_from(lib::default_technology());

  util::Table scaling({"threads", "wall (s)", "nets/sec", "speedup"});
  double base_wall = 0.0;
  signoff::WorkloadSignoff last;
  std::string base_fingerprint;
  std::size_t base_steps = 0;
  bool deterministic = true;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    wopt.threads = threads;
    last = signoff::run_workload(nets, opt.results, library, wopt);
    // wall_seconds varies run to run; everything else must not.
    signoff::WorkloadSignoff stamp = last;
    stamp.wall_seconds = 0.0;
    const std::string fingerprint = signoff::to_json(stamp, true);
    if (threads == 1) {
      base_wall = last.wall_seconds;
      base_fingerprint = fingerprint;
      base_steps = last.golden_steps;
    } else if (fingerprint != base_fingerprint ||
               last.golden_steps != base_steps) {
      deterministic = false;
    }
    scaling.add_row({util::Table::integer(threads),
                     util::Table::num(last.wall_seconds, 3),
                     util::Table::num(last.nets_per_second(), 1),
                     util::Table::num(base_wall / last.wall_seconds, 2) +
                         "x"});
  }
  std::printf("%s\n", scaling.render().c_str());

  std::printf("verdict:        %s (%zu/%zu nets clean, %zu violation "
              "record(s))\n",
              last.pass() ? "PASS" : "FAIL", last.passed, last.net_count,
              last.violations);
  std::printf("theorem 1:      metric-clean %zu, golden-clean %zu (%s)\n",
              last.feasible, last.feasible_golden_clean,
              last.feasible == last.feasible_golden_clean ? "bound held"
                                                          : "BOUND BROKEN");
  std::printf("deterministic:  %s across 1/2/4/8 verifier threads\n",
              deterministic ? "yes" : "NO");
  std::printf("golden steps:   %zu of %zu horizon steps marched (%.1f%%)\n",
              last.golden_steps, last.golden_horizon_steps,
              100.0 * last.golden_step_share());

  const signoff::PessimismStats& p = last.pessimism;
  std::printf("\npessimism (metric/golden over %zu leaves): min %.3f, "
              "mean %.3f, max %.3f\n",
              p.samples, p.min, p.mean(), p.max);
  util::Table hist({"metric/golden", "leaves", "share"});
  for (std::size_t b = 0; b < signoff::PessimismStats::kBinCount; ++b) {
    if (p.bins[b] == 0) continue;
    const double lo =
        1.0 + static_cast<double>(b - 1) * signoff::PessimismStats::kBinWidth;
    std::string range;
    if (b == 0)
      range = "< 1.00 (violation)";
    else if (b + 1 == signoff::PessimismStats::kBinCount)
      range = ">= " + util::Table::num(lo, 2);
    else
      range = util::Table::num(lo, 2) + " - " +
              util::Table::num(lo + signoff::PessimismStats::kBinWidth, 2);
    hist.add_row({range,
                  util::Table::integer(static_cast<long long>(p.bins[b])),
                  util::Table::percent(static_cast<double>(p.bins[b]) /
                                       static_cast<double>(p.samples))});
  }
  std::printf("%s\n", hist.render().c_str());

  const bool ok =
      deterministic && last.feasible == last.feasible_golden_clean;
  if (!ok) std::printf("\nFAILED acceptance checks\n");
  return ok ? 0 : 1;
}
