// figL: optimization-service throughput — cold vs incremental PERTURB.
//
// The point of nbuf_serve (src/serve) is that a persistent session can
// answer a perturb-and-reoptimize request from its per-net subtree cache
// (core::IncrementalContext) instead of re-running the whole Van Ginneken
// DP. This bench measures that end-to-end, sockets included: a real Server
// on an ephemeral loopback port, a client pipelining the 120-case
// perturbation workload (local wire rescales and sink retunes round-robin
// across the loaded nets), once as plain PERTURB (incremental) and once as
// "full 1" PERTURB (the same edits, cache discarded — a from-scratch run),
// at 1/2/4/8 server worker threads.
//
//   figL_serve_throughput [--quick] [--out BENCH_serve.json]
//
// writes {"bench", "nets", "cases", "rows": [{threads, cold_seconds,
// incremental_seconds, cold_rps, incremental_rps, speedup, identical,
// plan_cells, cold_plan_cells}, ...]} plus a summary table on stdout.
// plan_cells is the session's STATS count of DP plan cells after the
// incremental stream; cold_plan_cells is the same count after the cold
// stream, whose last run on every net was from scratch on the same final
// tree.
//
// Pass/fail: exit 1 when any incremental answer differs from its
// from-scratch twin (solution bytes, DP-effort trailer excluded), when the
// incremental session holds more or fewer plan cells than one cold run
// (its memory must not grow with the stream), or when the single-thread
// incremental stream is not >= 3x the cold throughput (>= 1.2x under
// --quick, a loose floor for noisy shared CI runners).
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/netfile.hpp"
#include "lib/buffer.hpp"
#include "lib/technology.hpp"
#include "rct/assignment.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "steiner/builders.hpp"
#include "util/units.hpp"

namespace {

using namespace nbuf;
using serve::Frame;
using serve::Opcode;

struct Row {
  std::size_t threads = 0;
  double cold_seconds = 0.0;
  double inc_seconds = 0.0;
  double cold_rps = 0.0;
  double inc_rps = 0.0;
  double speedup = 0.0;
  bool identical = false;
  std::size_t plan_cells = 0;
  std::size_t cold_plan_cells = 0;
};

struct Workload {
  std::vector<std::string> names;
  std::vector<std::string> payloads;      // LOAD_NET texts
  std::vector<std::string> edits;         // one edit line per case
  std::vector<std::size_t> target;        // case -> net index
};

// The solution portion of a PERTURB response: everything except the
// DP-effort trailer, which legitimately differs between an incremental run
// and the cold run it must otherwise match byte-for-byte.
std::string solution_of(const std::string& payload) {
  std::string out;
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("reused ", 0) == 0 || line.rfind("recomputed ", 0) == 0)
      continue;
    out += line + "\n";
  }
  return out;
}

// Branchy multi-sink clock/control-style trees (8-32 sinks). Topology is
// the lever that makes incrementality pay: re-optimizing after a local
// edit recomputes only the edit's root spine plus its frontier, so on a
// near-chain two-pin net a uniformly placed edit forces on average half
// the DP over again (speedup structurally capped near 2x), while on a
// balanced tree the spine is one root path and every sibling subtree
// comes from the cache.
Workload make_workload(std::size_t net_count, std::size_t case_count) {
  Workload w;
  const lib::BufferLibrary lib = lib::default_library();
  const lib::Technology tech = lib::default_technology();
  using namespace nbuf::units;
  for (std::size_t i = 0; i < net_count; ++i) {
    const int depth = 3 + static_cast<int>(i % 3);  // 8/16/32 sinks
    const double edge = 400.0 + 150.0 * static_cast<double>(i % 4);
    rct::SinkInfo proto;
    proto.name = "s";
    proto.cap = (8.0 + static_cast<double>(i % 5) * 4.0) * fF;
    proto.required_arrival = 3000.0 * ps;  // loose: feasibility guaranteed
    proto.noise_margin = 0.8;
    const rct::RoutingTree tree = steiner::make_balanced_tree(
        depth, edge, rct::Driver{"drv", 150.0, 30.0 * ps}, proto, tech);
    w.names.push_back("figl" + std::to_string(i));
    std::ostringstream out;
    // Fine-grained segmenting: more buffer sites per net, so the DP term a
    // PERTURB re-answers dominates the fixed protocol/parse overhead.
    out << "segment 150\n";
    io::write_net(out, w.names.back(), tree, rct::BufferAssignment{}, lib);
    w.payloads.push_back(out.str());
  }
  // Deterministic local edits, round-robin across nets so pipelined bursts
  // coalesce onto the worker pool (consecutive requests hit distinct nets).
  // Node/sink indices are resolved per net after LOAD_NET reports shapes.
  for (std::size_t c = 0; c < case_count; ++c)
    w.target.push_back(c % net_count);
  w.edits.resize(case_count);
  return w;
}

// "ok net <name> nodes N sinks M" -> (N, M).
std::pair<std::size_t, std::size_t> shape_of(const std::string& payload) {
  std::size_t nodes = 0;
  std::size_t sinks = 0;
  const std::size_t at = payload.find("nodes ");
  if (at != std::string::npos)
    std::sscanf(payload.c_str() + at, "nodes %zu sinks %zu", &nodes, &sinks);
  return {nodes, sinks};
}

// One timed pass: fresh connection (fresh session), load + cold-optimize
// every net, then pipeline the whole perturbation stream and time it.
struct PassResult {
  double seconds = 0.0;
  std::vector<std::string> solutions;  // per case, trailer stripped
  std::size_t plan_cells = 0;          // session STATS after the stream
  bool ok = true;
};

PassResult run_pass(std::uint16_t port, Workload& w, bool full) {
  serve::Client client = serve::Client::connect("127.0.0.1", port);
  PassResult res;
  for (std::size_t i = 0; i < w.payloads.size(); ++i) {
    const Frame loaded = client.call(Opcode::LoadNet, w.payloads[i]);
    const auto [nodes, sinks] = shape_of(loaded.payload);
    if (loaded.op == Opcode::Error || nodes < 4 || sinks < 1) {
      std::fprintf(stderr, "LOAD_NET %s failed: %s\n", w.names[i].c_str(),
                   loaded.payload.c_str());
      res.ok = false;
      return res;
    }
    // Resolve this net's edit parameters now that the shape is known.
    for (std::size_t c = 0; c < w.edits.size(); ++c) {
      if (w.target[c] != i) continue;
      char buf[128];
      if (c % 3 == 2) {
        std::snprintf(buf, sizeof(buf), "set_sink %zu %.1f %.1f %.2f",
                      c % sinks, 8.0 + static_cast<double>(c % 24),
                      1200.0 + 10.0 * static_cast<double>(c % 40),
                      0.6 + 0.01 * static_cast<double>(c % 25));
      } else {
        // Never node 0 (the source has no parent wire).
        const std::size_t node = 1 + (c * 7) % (nodes - 1);
        std::snprintf(buf, sizeof(buf), "scale_wire %zu %.2f %.2f %.2f",
                      node, 0.7 + 0.01 * static_cast<double>(c % 120),
                      0.8 + 0.01 * static_cast<double>(c % 80),
                      0.9 + 0.01 * static_cast<double>(c % 40));
      }
      w.edits[c] = buf;
    }
    const Frame opt = client.call(
        Opcode::Optimize, "net " + w.names[i] + "\nmax_buffers 8\n");
    if (opt.op == Opcode::Error) {
      std::fprintf(stderr, "OPTIMIZE %s failed: %s\n", w.names[i].c_str(),
                   opt.payload.c_str());
      res.ok = false;
      return res;
    }
  }

  std::vector<std::pair<Opcode, std::string>> burst;
  burst.reserve(w.edits.size());
  for (std::size_t c = 0; c < w.edits.size(); ++c)
    burst.emplace_back(Opcode::Perturb,
                       "net " + w.names[w.target[c]] + "\n" +
                           (full ? "full 1\n" : "") + w.edits[c] + "\n");

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<Frame> responses = client.pipeline(burst);
  const auto t1 = std::chrono::steady_clock::now();
  res.seconds = std::chrono::duration<double>(t1 - t0).count();
  for (const Frame& r : responses) {
    if (r.op == Opcode::Error) {
      std::fprintf(stderr, "PERTURB failed: %s\n", r.payload.c_str());
      res.ok = false;
      return res;
    }
    res.solutions.push_back(solution_of(r.payload));
  }
  const Frame stats = client.call(Opcode::Stats, "");
  const std::size_t at = stats.payload.find("\nplan_cells ");
  if (stats.op == Opcode::Error || at == std::string::npos) {
    std::fprintf(stderr, "STATS failed: %s\n", stats.payload.c_str());
    res.ok = false;
    return res;
  }
  std::sscanf(stats.payload.c_str() + at, "\nplan_cells %zu",
              &res.plan_cells);
  return res;
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                std::size_t nets, std::size_t cases) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"figL_serve_throughput\",\n"
                  "  \"nets\": %zu,\n  \"cases\": %zu,\n  \"rows\": [\n",
               nets, cases);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"cold_seconds\": %.6f, "
                 "\"incremental_seconds\": %.6f, \"cold_rps\": %.1f, "
                 "\"incremental_rps\": %.1f, \"speedup\": %.2f, "
                 "\"identical\": %s, \"plan_cells\": %zu, "
                 "\"cold_plan_cells\": %zu}%s\n",
                 r.threads, r.cold_seconds, r.inc_seconds, r.cold_rps,
                 r.inc_rps, r.speedup, r.identical ? "true" : "false",
                 r.plan_cells, r.cold_plan_cells,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE]\n", argv[0]);
      return 2;
    }
  }

  const std::size_t nets = quick ? 6 : 12;
  const std::size_t cases = quick ? 36 : 120;
  Workload workload = make_workload(nets, cases);

  std::printf("== figL: serve throughput, cold vs incremental PERTURB "
              "(%zu nets, %zu cases) ==\n",
              nets, cases);
  std::printf("%-8s %-10s %-10s %-10s %-10s %-8s %-10s %-10s %s\n",
              "threads", "cold s", "inc s", "cold r/s", "inc r/s", "speedup",
              "identical", "inc cells", "cold cells");

  std::vector<Row> rows;
  bool all_identical = true;
  bool cells_bounded = true;
  double speedup_1thread = 0.0;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    serve::ServerOptions sopt;
    sopt.threads = threads;
    serve::Server server(sopt);
    server.start();
    // Cold first, incremental second — separate connections, so separate
    // sessions: the cold pass cannot warm the incremental pass's caches.
    const PassResult cold = run_pass(server.port(), workload, /*full=*/true);
    const PassResult inc = run_pass(server.port(), workload, /*full=*/false);
    server.stop();
    if (!cold.ok || !inc.ok) return 1;

    Row row;
    row.threads = threads;
    row.cold_seconds = cold.seconds;
    row.inc_seconds = inc.seconds;
    row.cold_rps = static_cast<double>(cases) / cold.seconds;
    row.inc_rps = static_cast<double>(cases) / inc.seconds;
    row.speedup = cold.seconds / inc.seconds;
    row.identical = cold.solutions == inc.solutions;
    row.plan_cells = inc.plan_cells;
    row.cold_plan_cells = cold.plan_cells;
    all_identical = all_identical && row.identical;
    cells_bounded = cells_bounded && row.plan_cells == row.cold_plan_cells;
    if (threads == 1) speedup_1thread = row.speedup;
    rows.push_back(row);
    std::printf("%-8zu %-10.4f %-10.4f %-10.1f %-10.1f %-8.2f %-10s %-10zu "
                "%zu\n",
                row.threads, row.cold_seconds, row.inc_seconds, row.cold_rps,
                row.inc_rps, row.speedup, row.identical ? "yes" : "NO",
                row.plan_cells, row.cold_plan_cells);
  }
  write_json(out, rows, nets, cases);

  int rc = 0;
  if (!all_identical) {
    std::printf("FAIL: an incremental answer diverged from its "
                "from-scratch twin\n");
    rc = 1;
  }
  if (!cells_bounded) {
    std::printf("FAIL: the incremental session holds a different number of "
                "plan cells than one cold run\n");
    rc = 1;
  }
  const double floor = quick ? 1.2 : 3.0;
  std::printf("single-thread incremental speedup: %.2fx (floor %.1fx)\n",
              speedup_1thread, floor);
  if (speedup_1thread < floor) {
    std::printf("FAIL: incremental PERTURB only %.2fx faster than cold\n",
                speedup_1thread);
    rc = 1;
  }
  return rc;
}
