// The three closed-loop workloads: buffopt_batch, wiresize_chain and
// signoff_batch. All three run the same loop on one thread: set up, one
// untimed warm-up pass that records every answer, then whole passes over
// the inputs until the window closes. One op is one call into a public
// entry point (core::run_buffopt, then signoff::verify_result on
// signoff_batch), timed from outside.
//
// The traced run instead alternates a plain pass with a traced pass that
// calls the stages of core::run one by one, each inside a span.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/tool.hpp"
#include "elmore/elmore.hpp"
#include "harness.hpp"
#include "lib/buffer.hpp"
#include "lib/technology.hpp"
#include "lib/wire.hpp"
#include "netgen/netgen.hpp"
#include "noise/devgan.hpp"
#include "obs/trace.hpp"
#include "seg/segment.hpp"
#include "signoff/signoff.hpp"
#include "sim/golden.hpp"
#include "steiner/builders.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace nbuf::perfbench {
namespace {

using namespace nbuf::units;

// Set-up is timed in blocks: one set-up, repeated until kSetupBlockSeconds
// have passed so a cheap set-up is timed many times. kSetupBlocks blocks
// run back to back before the warm-up; the plain run adds kWindowBlocks
// more spread over the timed window (outside its clock), so setup_s, the
// median over every set-up, sees the same host states as the ops.
constexpr std::size_t kSetupBlocks = 3;
constexpr std::size_t kWindowBlocks = 10;
constexpr double kSetupBlockSeconds = 0.05;
// Which repetition of an input stands for its op time (see the timed loop).
constexpr double kInputQuantile = 0.9;

struct Item {
  std::string name;
  rct::RoutingTree tree;
};

struct Spec {
  std::size_t items = 0;
  bool signoff = false;
  std::size_t reference_sample = 0;  // 0 = no Reference re-solve
  // The highest percentile of the per-input op times that leaves at least
  // ten inputs, or ten repetitions' worth of ops, beyond it.
  double tail_p = 0.99;
  lib::WireWidthLibrary widths;  // empty = no wire sizing
  std::function<std::vector<Item>(std::uint64_t, const lib::BufferLibrary&,
                                  std::size_t)>
      generate;
};

// Feasibility, chosen k, slack bits, the buffer plan and the wire plan:
// what must agree between passes and between kernels.
std::uint64_t answer_key(const core::VgResult& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.feasible));
  d.add(static_cast<std::uint64_t>(r.timing_met));
  d.add(static_cast<std::uint64_t>(r.buffer_count));
  d.add(r.slack);
  for (const auto& [node, type] : r.buffers.entries()) {
    d.add(static_cast<std::uint64_t>(node.value()));
    d.add(static_cast<std::uint64_t>(type.value()));
  }
  for (const core::PlannedWire& w : r.wire_widths) {
    d.add(static_cast<std::uint64_t>(w.node.value()));
    d.add(static_cast<std::uint64_t>(w.width));
  }
  return d.value();
}

std::uint64_t report_key(const signoff::SignoffReport& rep) {
  Digest d;
  d.add(static_cast<std::uint64_t>(rep.pass()));
  d.add(static_cast<std::uint64_t>(rep.violations.size()));
  d.add(static_cast<std::uint64_t>(rep.leaves.size()));
  d.add(rep.worst_golden_slack);
  d.add(rep.worst_metric_slack);
  d.add(rep.worst_timing_slack);
  d.add(rep.pessimism.sum);
  return d.value();
}

// A signoff report is correct when it passes and Theorem 1 held.
bool report_ok(const signoff::SignoffReport& rep) {
  return rep.pass() && rep.count(signoff::ViolationKind::BoundBroken) == 0;
}

struct Answer {
  std::uint64_t key = 0;
  bool ok = false;
};

class Pipeline {
 public:
  explicit Pipeline(const Spec& spec) : spec_(spec) {
    tool_.vg.wire_widths = spec.widths;
  }

  // Builds the library and the seeded inputs; returns the input digest.
  std::string setup(std::uint64_t seed) {
    lib_ = lib::default_library();
    so_.golden = sim::golden_options_from(lib::default_technology());
    {
      const Span s(kNetgenSpan);
      items_ = spec_.generate(seed, lib_, spec_.items);
    }
    Digest d;
    for (const Item& it : items_) {
      d.add(it.name);
      const rct::RoutingTree& t = it.tree;
      d.add(static_cast<std::uint64_t>(t.node_count()));
      for (std::uint32_t v = 0; v < t.node_count(); ++v) {
        const rct::Wire& w = t.node(rct::NodeId{v}).parent_wire;
        d.add(w.length);
        d.add(w.resistance);
        d.add(w.capacitance);
        d.add(w.coupling_current);
      }
      for (std::uint32_t s = 0; s < t.sink_count(); ++s) {
        const rct::SinkInfo& si = t.sink(rct::SinkId{s});
        d.add(si.cap);
        d.add(si.required_arrival);
        d.add(si.noise_margin);
      }
    }
    return d.hex();
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }

  // One op through the public entry points.
  Answer run(std::size_t i) const {
    const Item& it = items_[i];
    const core::ToolResult r = core::run_buffopt(it.tree, lib_, tool_);
    Answer a{answer_key(r.vg), true};
    if (spec_.signoff) {
      const signoff::SignoffReport rep =
          signoff::verify_result(it.name, r, lib_, spec_.widths, so_);
      a.key ^= report_key(rep) * 0x9e3779b97f4a7c15ULL;
      a.ok = report_ok(rep);
    }
    return a;
  }

  // The same op with core::run's stages called one by one, each in a
  // span named after the module it enters.
  Answer run_staged(std::size_t i, util::VgStats* stats,
                    std::size_t* buffers) const {
    const Item& it = items_[i];
    const Span op("pb.op");
    core::ToolOptions options = tool_;
    options.vg.noise_constraints = true;  // what run_buffopt sets
    options.vg.objective = core::VgObjective::MinBuffersMeetingConstraints;
    const core::ToolResult r =
        staged_buffopt(it.tree, lib_, options, stats, buffers);
    Answer a{answer_key(r.vg), true};
    if (spec_.signoff) {
      const Span s(kVerifySpan);
      const signoff::SignoffReport rep =
          signoff::verify_result(it.name, r, lib_, spec_.widths, so_);
      a.key ^= report_key(rep) * 0x9e3779b97f4a7c15ULL;
      a.ok = report_ok(rep);
    }
    return a;
  }

  // Re-solves input i with the Reference kernel; true when feasibility,
  // k, slack bits and the plans equal the fast kernel's.
  bool reference_agrees(std::size_t i) const {
    core::ToolOptions ref = tool_;
    ref.vg.kernel = core::VgKernel::Reference;
    const rct::RoutingTree& t = items_[i].tree;
    return answer_key(core::run_buffopt(t, lib_, tool_).vg) ==
           answer_key(core::run_buffopt(t, lib_, ref).vg);
  }

 private:
  const Spec& spec_;
  lib::BufferLibrary lib_;
  core::ToolOptions tool_;
  signoff::SignoffOptions so_;
  std::vector<Item> items_;
};

std::vector<Item> testbench(std::uint64_t seed, const lib::BufferLibrary& lib,
                            std::size_t count) {
  netgen::TestbenchOptions o;  // defaults mirror Section V
  o.net_count = count;
  o.seed = sub_seed(seed, 1);
  std::vector<Item> out;
  for (netgen::GeneratedNet& g : netgen::generate_testbench(lib, o))
    out.push_back({std::move(g.name), std::move(g.tree)});
  return out;
}

// Two-pin chains of 16-96 segments of 500 µm. Lengths are drawn by
// stratified sampling (one draw per equal-width stratum, then a seeded
// shuffle), so every seed sees the same length mix up to one segment per
// chain and the seed-to-seed spread stays below the run-to-run noise.
std::vector<Item> chains(std::uint64_t seed, const lib::BufferLibrary&,
                         std::size_t count) {
  constexpr int kMinSegments = 16;
  constexpr int kMaxSegments = 96;
  util::Rng rng(sub_seed(seed, 2));
  const lib::Technology tech = lib::default_technology();
  std::vector<int> segments(count);
  const double width = static_cast<double>(kMaxSegments - kMinSegments + 1) /
                       static_cast<double>(count);
  for (std::size_t i = 0; i < count; ++i)
    segments[i] = kMinSegments +
                  static_cast<int>((static_cast<double>(i) +
                                    rng.uniform(0.0, 1.0)) *
                                   width);
  shuffle(segments, rng);
  std::vector<Item> out;
  for (std::size_t i = 0; i < count; ++i) {
    rct::SinkInfo sink;
    sink.name = "s";
    sink.cap = rng.uniform(8.0, 24.0) * fF;
    sink.noise_margin = 0.8;
    sink.required_arrival = rng.uniform(2.0, 6.0) * ns;
    const rct::Driver drv{"d", rng.uniform(100.0, 200.0), 30.0 * ps};
    out.push_back({"chain" + std::to_string(i),
                   steiner::make_two_pin(500.0 * segments[i], drv, sink,
                                         tech)});
  }
  return out;
}

Spec spec_of(const std::string& workload) {
  Spec s;
  if (workload == "buffopt_batch") {
    s.items = kBatchNets;
    s.reference_sample = 32;
    s.generate = testbench;
  } else if (workload == "wiresize_chain") {
    s.items = kChains;
    s.reference_sample = 4;
    s.tail_p = 0.90;  // 48 inputs, about ten repetitions each
    s.widths = lib::default_wire_widths();
    s.generate = chains;
  } else {
    s.items = kSignoffNets;
    s.signoff = true;
    s.generate = testbench;
  }
  return s;
}

}  // namespace

core::ToolResult staged_buffopt(const rct::RoutingTree& input,
                                const lib::BufferLibrary& lib,
                                const core::ToolOptions& options,
                                util::VgStats* stats, std::size_t* buffers) {
  core::ToolResult r{input, {}, {}, {}, {}, {}, 0.0};
  r.tree.binarize();
  {
    const Span s("pb.seg.segment");
    seg::segment(r.tree, options.segmenting);
  }
  {
    const Span s("pb.noise.analyze_before");
    r.noise_before = noise::analyze_unbuffered(r.tree);
  }
  {
    const Span s("pb.elmore.analyze_before");
    r.timing_before = elmore::analyze_unbuffered(r.tree);
  }
  {
    const Span s(kOptimizeSpan);
    r.vg = core::optimize(r.tree, lib, options.vg);
  }
  {
    const Span s("pb.noise.analyze_after");
    r.noise_after = noise::analyze(r.tree, r.vg.buffers, lib);
  }
  {
    const Span s("pb.elmore.analyze_after");
    r.timing_after = elmore::analyze(r.tree, r.vg.buffers, lib);
  }
  if (stats != nullptr) *stats += r.vg.stats;
  if (buffers != nullptr) *buffers += r.vg.buffer_count;
  return r;
}

Outcome run_pipeline(const std::string& workload, const RunConfig& cfg) {
  const Spec spec = spec_of(workload);
  Outcome out;

  // One block of set-ups; returns the last one's pipeline. The traced
  // run records each set-up's spans.
  std::vector<double> setup_times;
  double netgen_busy = 0.0;
  const auto setup_block = [&] {
    std::unique_ptr<Pipeline> q;
    const auto b0 = Clock::now();
    do {
      std::optional<obs::TraceRecording> rec;
      if (cfg.trace) rec.emplace();
      const auto t0 = Clock::now();
      q = std::make_unique<Pipeline>(spec);
      out.input_digest = q->setup(cfg.seed);
      setup_times.push_back(seconds_between(t0, Clock::now()));
      if (rec) netgen_busy = phase(rec->stop(), kNetgenSpan).seconds;
    } while (seconds_between(b0, Clock::now()) < kSetupBlockSeconds);
    return q;
  };
  std::unique_ptr<Pipeline> p;
  for (std::size_t b = 0; b < kSetupBlocks; ++b) p = setup_block();
  const std::size_t n = p->size();

  // Untimed warm-up: every answer recorded.
  std::vector<std::uint64_t> warm(n);
  for (std::size_t i = 0; i < n; ++i) {
    ++out.attempted;
    try {
      const Answer a = p->run(i);
      warm[i] = a.key;
      out.failed += a.ok ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warm-up op %zu failed: %s\n", i, e.what());
      ++out.failed;
    }
  }

  const auto check = [&](std::size_t i, Answer a, bool first_op) {
    if (cfg.corrupt && first_op) a.key ^= 1;
    ++out.attempted;
    const bool good = a.ok && a.key == warm[i];
    out.failed += good ? 0 : 1;
  };
  const auto safe = [&](auto&& fn) -> Answer {
    try {
      return fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op failed: %s\n", e.what());
      return Answer{0, false};
    }
  };

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(cfg.seconds);
  bool first = true;
  if (!cfg.trace) {
    // times[i] holds input i's op times (ms), one per whole pass. The
    // window's clock stops while a set-up block runs between passes.
    std::vector<std::vector<double>> times(n);
    std::size_t passes = 0;
    std::size_t blocks = 0;
    double in_setup = 0.0;
    const auto window = [&] {
      return seconds_between(start, Clock::now()) - in_setup;
    };
    do {
      for (std::size_t i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        const Answer a = safe([&] { return p->run(i); });
        const auto t1 = Clock::now();
        times[i].push_back(a.ok ? seconds_between(t0, t1) * 1e3 : kFailedMs);
        check(i, a, first);
        first = false;
      }
      ++passes;
      if (window() >= cfg.seconds * static_cast<double>(blocks + 1) /
                          static_cast<double>(kWindowBlocks + 1)) {
        const auto b0 = Clock::now();
        (void)setup_block();
        in_setup += seconds_between(b0, Clock::now());
        ++blocks;
      }
    } while (window() < cfg.seconds);
    // Each input's op time is the kInputQuantile of its repetitions. On a
    // shared host whose speed drifts between a slow steady state and
    // faster spells, this reads the input's cost in the slow state instead
    // of whatever mix of states fell into the window.
    std::vector<double> op_ms(n);
    double pass_ms = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      op_ms[i] = percentile(times[i], kInputQuantile);
      pass_ms += op_ms[i];
    }
    out.add("setup_s", median(setup_times), "s");
    out.add("ops_per_s", static_cast<double>(n) / (pass_ms / 1e3), "1/s");
    out.add("latency_p50_ms", median(op_ms), "ms");
    out.add("latency_tail_ms", percentile(op_ms, spec.tail_p), "ms");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    out.facts.emplace_back("latency_samples", std::to_string(n * passes));
    out.facts.emplace_back("tail_percentile",
                           std::to_string(std::lround(spec.tail_p * 100)));
    out.facts.emplace_back("passes", std::to_string(passes));
  } else {
    // Alternate plain and traced passes over the same inputs; the ratio
    // of their median walls is the tracing overhead.
    std::vector<double> plain_wall;
    std::vector<double> traced_wall;
    std::map<std::string, std::vector<double>> busy;
    util::VgStats stats;
    std::size_t buffers = 0;
    std::uint64_t optimize_calls = 0;
    obs::TraceData first_trace;
    const auto plain_pass = [&] {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        check(i, safe([&] { return p->run(i); }), first);
        first = false;
      }
      plain_wall.push_back(seconds_between(t0, Clock::now()));
    };
    const auto traced_pass = [&] {
      const bool count_pass = traced_wall.empty();
      obs::TraceRecording rec;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i)
        check(i, safe([&] {
                return p->run_staged(i, count_pass ? &stats : nullptr,
                                     count_pass ? &buffers : nullptr);
              }),
              false);
      traced_wall.push_back(seconds_between(t0, Clock::now()));
      obs::TraceData data = rec.stop();
      for (const Stage& st : kStages)
        busy[st.metric].push_back(phase(data, st.span).seconds);
      if (count_pass) {
        optimize_calls = phase(data, kOptimizeSpan).count;
        first_trace = std::move(data);
      }
    };
    // Which of the pair runs first alternates, so neither side always
    // inherits the other's cache state.
    do {
      if (plain_wall.size() % 2 == 0) {
        plain_pass();
        traced_pass();
      } else {
        traced_pass();
        plain_pass();
      }
    } while (Clock::now() < deadline);

    for (const Stage& st : kStages)
      out.add(st.metric, median(busy[st.metric]), "s");
    out.add("core.optimize.calls", static_cast<double>(optimize_calls),
            "count");
    out.add("netgen.generate.busy_s", netgen_busy, "s");
    out.add("serve.load_net.busy_s", 0.0, "s");
    add_dp_metrics(out, stats, buffers);
    add_serve_metrics(out, ServeLayer{});
    out.add("trace.overhead", median(traced_wall) / median(plain_wall),
            "ratio");
    out.facts.emplace_back("traced_passes",
                           std::to_string(traced_wall.size()));
    if (!cfg.trace_path.empty() && !write_trace(cfg.trace_path, first_trace))
      std::fprintf(stderr, "cannot write %s\n", cfg.trace_path.c_str());
  }

  // Untimed: a seeded sample re-solved by the Reference kernel.
  if (spec.reference_sample > 0) {
    util::Rng rng(sub_seed(cfg.seed, 3));
    for (std::size_t k = 0; k < std::min(spec.reference_sample, n); ++k) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(n) - 1));
      ++out.attempted;
      bool agrees = false;
      try {
        agrees = p->reference_agrees(i);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "reference re-solve %zu failed: %s\n", i,
                     e.what());
      }
      out.failed += agrees ? 0 : 1;
    }
  }
  if (!cfg.trace)
    out.add("ok_share",
            1.0 - static_cast<double>(out.failed) /
                      static_cast<double>(out.attempted),
            "ratio");

  out.facts.emplace_back("inputs", std::to_string(n));
  out.facts.emplace_back("threads", "1");
  out.facts.emplace_back("connections", "0");
  return out;
}

}  // namespace nbuf::perfbench
