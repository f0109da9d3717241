// Shared measurement pieces of the nbuf benchmark program: clocks, order
// statistics, the input/answer digest, the result record that becomes the
// final JSON line, and the benchmark's spans.
//
// The spans belong to the benchmark: each wraps one call the benchmark
// makes into a module (seg, noise, elmore, core, signoff, serve, netgen).
// They are obs::TraceSpans, recorded by an obs::TraceRecording that the
// traced run opens per pass, so they share one trace with the program's
// own spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace nbuf::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The latency sample of a failed op: above every real one, and finite so
// util::percentile can interpolate next to it without making NaN.
inline constexpr double kFailedMs = std::numeric_limits<double>::max();

// util::percentile, reading 0 on an empty sample.
[[nodiscard]] inline double percentile(const std::vector<double>& xs,
                                       double p) {
  return xs.empty() ? 0.0 : util::percentile(xs, p);
}
[[nodiscard]] inline double median(const std::vector<double>& xs) {
  return percentile(xs, 0.5);
}

// FNV-1a over bytes; doubles enter by their bit pattern, so "same digest"
// means bit-identical values.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Everything one workload run reports. `attempted`/`failed` count ops
// (timed ops plus the untimed re-solve checks); `facts` are host and
// workload facts printed before the result line.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string input_digest;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> facts;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// A benchmark span around one module call: a no-op unless a recording is
// active. The name must be a string literal (the recording keeps the
// pointer).
class Span : public obs::TraceSpan {
 public:
  explicit Span(const char* name)
      : obs::TraceSpan(name, obs::TraceLevel::Phase, obs::kNoTag) {}
};

// Total seconds and count of the closed spans named `name` in a finished
// recording (zero when there are none).
[[nodiscard]] obs::PhaseRow phase(const obs::TraceData& data,
                                  std::string_view name);

// Writes a recording as Chrome Trace Event JSON.
[[nodiscard]] bool write_trace(const std::string& path,
                               const obs::TraceData& data);

// Options every workload receives from the command line.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test hook: falsify one timed answer so the checks must catch it.
  bool corrupt = false;
  std::string trace_path;  // where the traced run writes its spans
  std::string socket_dir = ".";  // where serve_perturb binds its socket
};

// Host facts common to every workload (vector ISA, compiler, build).
void add_host_facts(Outcome& out);

// Seeded Fisher-Yates shuffle.
template <class T>
void shuffle(std::vector<T>& v, util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[static_cast<std::size_t>(
                            rng.uniform_int(0, static_cast<int>(i) - 1))]);
}

// The process's own peak resident set (MiB).
[[nodiscard]] double peak_rss_mb();

// Seed-derived 64-bit stream split: distinct, reproducible sub-seeds for
// each generator of one run.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace nbuf::perfbench
