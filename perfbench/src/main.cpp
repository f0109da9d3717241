// nbuf_perfbench: runs one benchmark workload and prints its result.
//
//   nbuf_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE] [--socket-dir DIR] [--corrupt-answer]
//
// Workloads: buffopt_batch, wiresize_chain, signoff_batch, serve_perturb
// (README.md beside this directory's CMakeLists.txt says why each exists).
// Prints "input_digest <hex>" and "fact <key> <value>" lines, then one JSON
// line {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
// --corrupt-answer falsifies one timed answer; the self-test uses it to
// prove the checks fire. Exit 0 on a completed run (even with failed ops:
// the JSON says so), 2 on a usage error, 1 when the run could not finish.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace nbuf::perfbench {

void add_dp_metrics(Outcome& out, const util::VgStats& s,
                    std::size_t buffers_inserted) {
  const auto count = [&](const char* name, std::size_t v) {
    out.add(name, static_cast<double>(v), "count");
  };
  count("core.cands_generated", s.candidates_generated);
  count("core.cands_pruned_inferior", s.pruned_inferior);
  const std::size_t dropped = s.pruned_inferior + s.pruned_infeasible;
  out.add("core.cand_survival",
          s.candidates_generated == 0
              ? 0.0
              : static_cast<double>(s.candidates_generated - dropped) /
                    static_cast<double>(s.candidates_generated),
          "ratio");
  count("core.prune_calls", s.prune_calls);
  count("core.offset_flushes", s.offset_flushes);
  count("core.bp_preps", s.bp_prune_calls);
  count("core.peak_list", s.peak_list_size);
  count("core.buffers_inserted", buffers_inserted);
}

void add_serve_metrics(Outcome& out, const ServeLayer& s) {
  out.add("serve.rtt_p50_ms", s.rtt_p50_ms, "ms");
  out.add("serve.error_replies", static_cast<double>(s.error_replies),
          "count");
  out.add("serve.subtrees_reused", static_cast<double>(s.subtrees_reused),
          "count");
  out.add("serve.subtrees_recomputed",
          static_cast<double>(s.subtrees_recomputed), "count");
  const std::size_t all = s.subtrees_reused + s.subtrees_recomputed;
  out.add("serve.reuse_ratio",
          all == 0 ? 0.0
                   : static_cast<double>(s.subtrees_reused) /
                         static_cast<double>(all),
          "ratio");
  out.add("loadgen.sent", static_cast<double>(s.sent), "count");
  out.add("loadgen.lag_p99_ms", s.lag_p99_ms, "ms");
}

}  // namespace nbuf::perfbench

namespace {

using namespace nbuf::perfbench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload buffopt_batch|wiresize_chain|"
               "signoff_batch|serve_perturb --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--socket-dir DIR] "
               "[--corrupt-answer]\n",
               argv0);
  return 2;
}

void print_result(const Outcome& out) {
  std::printf("input_digest %s\n", out.input_digest.c_str());
  for (const auto& [k, v] : out.facts)
    std::printf("fact %s %s\n", k.c_str(), v.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              out.failed == 0 ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    // JSON has no infinity; a latency of +inf (every sample a failure)
    // prints as 1e300.
    const double v = std::isfinite(m.value) ? m.value : 1e300;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string workload;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = cfg.seconds > 0.0;
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      cfg.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (a == "--trace-out" && has_value) {
      cfg.trace_path = argv[++i];
    } else if (a == "--socket-dir" && has_value) {
      cfg.socket_dir = argv[++i];
    } else if (a == "--corrupt-answer") {
      cfg.corrupt = true;
    } else {
      return usage(argv[0]);
    }
  }
  const bool pipeline = workload == "buffopt_batch" ||
                        workload == "wiresize_chain" ||
                        workload == "signoff_batch";
  if (!(pipeline || workload == "serve_perturb") || !have_seed ||
      !have_seconds || !have_trace)
    return usage(argv[0]);

  try {
    Outcome out = pipeline ? run_pipeline(workload, cfg) : run_serve(cfg);
    add_host_facts(out);
    print_result(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: run aborted: %s\n", workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
