// The four workloads and the per-layer metric helpers they share.
#pragma once

#include <cstddef>
#include <string>

#include "core/tool.hpp"
#include "harness.hpp"
#include "lib/buffer.hpp"
#include "rct/tree.hpp"
#include "util/stats.hpp"

namespace nbuf::perfbench {

// Input sizes. They are part of the benchmark definition: changing one
// changes every figure, so the baseline must be measured again.
// The Section-V generator's per-net work is heavy-tailed: over seeds 1-6
// the seed alone moves a pass's DP work (candidates generated) by +-9% at
// 500 nets and by +-2.7% at 2000.
inline constexpr std::size_t kBatchNets = 2000;    // buffopt_batch
inline constexpr std::size_t kChains = 48;         // wiresize_chain
inline constexpr std::size_t kSignoffNets = 1000;  // signoff_batch
// serve_perturb's offered PERTURB rate (requests/s): about a third of one
// session worker's measured capacity, fixed here and never calibrated at
// run time. BENCHMARK.json's `why` for serve_perturb states the same value.
inline constexpr double kServeRate = 150.0;

// buffopt_batch, wiresize_chain, signoff_batch.
[[nodiscard]] Outcome run_pipeline(const std::string& workload,
                                   const RunConfig& cfg);
// serve_perturb.
[[nodiscard]] Outcome run_serve(const RunConfig& cfg);

// core::run's stages called one by one, each inside a benchmark span
// named after the module it enters (no-ops unless a recording is active).
// Adds the DP counters to `stats` and the buffer count to `buffers` when
// non-null.
[[nodiscard]] core::ToolResult staged_buffopt(
    const rct::RoutingTree& input, const lib::BufferLibrary& lib,
    const core::ToolOptions& options, util::VgStats* stats,
    std::size_t* buffers);

// A benchmark span and the per-layer busy-time metric it becomes. The
// span names carry a "pb." prefix because the program records spans of
// its own under some of the module names (seg.segment, signoff.verify);
// without it both would add to one total.
struct Stage {
  const char* span;
  const char* metric;
};

// The spans a traced pass records around module calls, in pipeline order
// (a stage never entered reads 0).
inline constexpr const char* kOptimizeSpan = "pb.core.optimize";
inline constexpr const char* kVerifySpan = "pb.signoff.verify";
inline constexpr Stage kStages[] = {
    {"pb.seg.segment", "seg.segment.busy_s"},
    {"pb.noise.analyze_before", "noise.analyze_before.busy_s"},
    {"pb.elmore.analyze_before", "elmore.analyze_before.busy_s"},
    {kOptimizeSpan, "core.optimize.busy_s"},
    {"pb.noise.analyze_after", "noise.analyze_after.busy_s"},
    {"pb.elmore.analyze_after", "elmore.analyze_after.busy_s"},
    {kVerifySpan, "signoff.verify.busy_s"}};
// Set-up spans.
inline constexpr const char* kNetgenSpan = "pb.netgen.generate";
inline constexpr const char* kLoadNetSpan = "pb.serve.load_net";

// Layer figures of the service path; all zero on the batch workloads,
// which never enter it.
struct ServeLayer {
  double rtt_p50_ms = 0.0;
  std::size_t error_replies = 0;
  std::size_t subtrees_reused = 0;
  std::size_t subtrees_recomputed = 0;
  std::size_t sent = 0;
  double lag_p99_ms = 0.0;
};

// core.* counts of one traced pass (VgResult::stats summed over its ops).
void add_dp_metrics(Outcome& out, const util::VgStats& s,
                    std::size_t buffers_inserted);
void add_serve_metrics(Outcome& out, const ServeLayer& s);

}  // namespace nbuf::perfbench
