#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.hpp"

namespace nbuf::util {

std::string format(const VgStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "generated %zu, pruned inferior %zu, pruned infeasible %zu, "
                "pruned cross-count %zu, merged %zu, peak list %zu",
                s.candidates_generated, s.pruned_inferior,
                s.pruned_infeasible, s.pruned_cross_count, s.merged,
                s.peak_list_size);
  std::string out = buf;
  if (s.prune_calls > 0) {
    std::snprintf(buf, sizeof buf,
                  "; prune calls %zu (sorted scans %zu, sorts %zu), "
                  "offset flushes %zu, snapshot cands avoided %zu, "
                  "pooled reuses %zu",
                  s.prune_calls, s.prune_sorts_skipped, s.prune_sorts,
                  s.offset_flushes, s.snapshot_cands_avoided, s.pool_reuses);
    out += buf;
  }
  if (s.bp_prune_calls > 0) {
    std::snprintf(buf, sizeof buf,
                  "; lib types %zu, best-pred preps %zu, bp killed %zu",
                  s.lib_types, s.bp_prune_calls, s.bp_candidates_killed);
    out += buf;
  }
  if (s.soa_flush_elems + s.soa_prunes_no_move > 0) {
    std::snprintf(buf, sizeof buf, "; flush elems %zu, no-move prunes %zu",
                  s.soa_flush_elems, s.soa_prunes_no_move);
    out += buf;
  }
  const double timed = s.wire_seconds + s.buffer_seconds + s.merge_seconds;
  if (timed > 0.0) {
    std::snprintf(buf, sizeof buf,
                  "; phases wire %.1f ms, buffer %.1f ms, merge %.1f ms",
                  s.wire_seconds * 1e3, s.buffer_seconds * 1e3,
                  s.merge_seconds * 1e3);
    out += buf;
  }
  return out;
}

Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.min = xs.front();
  s.max = xs.front();
  double sum = 0.0;
  for (double x : xs) {
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
    sum += x;
  }
  s.mean = sum / static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - s.mean) * (x - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(xs.size()));
  return s;
}

double percentile(std::vector<double> xs, double p) {
  NBUF_EXPECTS(!xs.empty());
  NBUF_EXPECTS(p >= 0.0 && p <= 1.0);
  std::sort(xs.begin(), xs.end());  // nbuf-lint: allow(sort)
  const double pos = p * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

std::map<int, std::size_t> histogram(const std::vector<int>& xs) {
  std::map<int, std::size_t> h;
  for (int x : xs) ++h[x];
  return h;
}

}  // namespace nbuf::util
