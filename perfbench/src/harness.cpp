#include "harness.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "core/vanginneken.hpp"
#include "obs/export.hpp"

#ifndef NBUF_PB_COMPILER
#define NBUF_PB_COMPILER "unknown"
#endif
#ifndef NBUF_PB_BUILD_TYPE
#define NBUF_PB_BUILD_TYPE "unknown"
#endif
#ifndef NBUF_PB_SIMD
#define NBUF_PB_SIMD "unknown"
#endif

namespace nbuf::perfbench {

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

obs::PhaseRow phase(const obs::TraceData& data, std::string_view name) {
  for (obs::PhaseRow& row : obs::phase_breakdown(data))
    if (row.name == name) return row;
  return obs::PhaseRow{std::string(name), 0, 0.0};
}

bool write_trace(const std::string& path, const obs::TraceData& data) {
  std::ofstream f(path);
  f << obs::chrome_trace_json(data);
  return static_cast<bool>(f);
}

void add_host_facts(Outcome& out) {
  out.facts.emplace_back("nproc",
                         std::to_string(std::thread::hardware_concurrency()));
  std::string flags;
  const auto flag = [&](bool have, const char* name) {
    if (!have) return;
    if (!flags.empty()) flags += ",";
    flags += name;
  };
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  flag(__builtin_cpu_supports("sse4.2"), "sse4.2");
  flag(__builtin_cpu_supports("avx"), "avx");
  flag(__builtin_cpu_supports("avx2"), "avx2");
  flag(__builtin_cpu_supports("fma"), "fma");
  flag(__builtin_cpu_supports("avx512f"), "avx512f");
#endif
  out.facts.emplace_back("cpu_vector_flags", flags.empty() ? "none" : flags);
  out.facts.emplace_back("compiler", NBUF_PB_COMPILER);
  out.facts.emplace_back("build_type", NBUF_PB_BUILD_TYPE);
  out.facts.emplace_back("nbuf_simd", NBUF_PB_SIMD);
  out.facts.emplace_back("simd_compiled",
                         core::simd_compiled() ? "yes" : "no");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace nbuf::perfbench
