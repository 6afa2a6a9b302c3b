// Captures a Chrome trace of the pipeline under concurrency: a 4-worker
// ApplyBatch racing concurrent MVCC snapshot readers, followed by a SAT
// run (WalkSAT, then CDCL if WalkSAT gives up) on a random 3-SAT
// instance. Tracing is enabled through UpdateSystem::Options::obs, so
// every span the pipeline, the worker pool, the solvers, and the snapshot
// readers record lands in the per-thread rings; the export is trace-event
// JSON loadable in chrome://tracing or https://ui.perfetto.dev.
//
// Build & run:
//   cmake -B build && cmake --build build -j
//   ./build/trace_capture [out.json]      # default xvu_trace.json
//
// The program exits non-zero if the workload fails or the trace comes
// out empty, so CI runs it as a smoke test and validates the JSON with
// `python3 -m json.tool`.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/pipeline.h"
#include "src/core/snapshot.h"
#include "src/core/system.h"
#include "src/sat/portfolio.h"
#include "src/workload/synthetic.h"
#include "src/workload/workloads.h"
#include "src/xpath/parser.h"

using namespace xvu;  // NOLINT — example brevity

namespace {

/// A filter-passing parent cid, recovered from the workload generator's
/// own sub-insertion statements (same trick as the benchmarks).
std::string PassingParentCid(const Database& base) {
  auto stmts = MakeInsertionWorkload(WorkloadClass::kW1, base, 32, 4242);
  if (!stmts.ok()) return "";
  const std::string marker = "into //C[cid=\"";
  for (const std::string& s : *stmts) {
    size_t at = s.find(marker);
    if (at == std::string::npos || s.find("/sub") == std::string::npos) {
      continue;
    }
    size_t from = at + marker.size();
    size_t to = s.find('"', from);
    if (to != std::string::npos) return s.substr(from, to - from);
  }
  return "";
}

Cnf Random3Sat(int nv, double ratio, uint64_t seed) {
  Rng rng(seed);
  Cnf cnf;
  for (int i = 0; i < nv; ++i) cnf.NewVar();
  int nc = static_cast<int>(ratio * nv);
  for (int c = 0; c < nc; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      int32_t v =
          1 + static_cast<int32_t>(rng.Below(static_cast<uint64_t>(nv)));
      clause.push_back(rng.Chance(0.5) ? v : -v);
    }
    cnf.AddClause(std::move(clause));
  }
  return cnf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "xvu_trace.json";

  // 1. Publish the synthetic dataset with a 4-lane worker pool and
  //    tracing on (metrics stay on by default).
  SyntheticSpec spec;
  spec.num_c = 2000;
  spec.seed = 7;
  auto db = MakeSyntheticDatabase(spec);
  if (!db.ok()) return 1;
  auto atg = MakeSyntheticAtg(*db);
  if (!atg.ok()) return 1;
  UpdateSystem::Options options;
  options.worker_threads = 4;
  options.obs.tracing = true;
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db), options);
  if (!sys.ok()) {
    std::printf("publish error: %s\n", sys.status().ToString().c_str());
    return 1;
  }
  UpdateSystem& s = **sys;

  // 2. A batch of insertions sharing one target path — the scenario whose
  //    parallel phases (eval fan-out, symbolic passes) light up the pool
  //    lanes in the trace.
  const std::string parent = PassingParentCid(s.database());
  if (parent.empty()) {
    std::printf("no filter-passing parent found\n");
    return 1;
  }
  UpdateBatch batch;
  for (int i = 0; i < 64; ++i) {
    std::string stmt = "insert C(" + std::to_string(90000000 + i) + ", " +
                       std::to_string(i % 100) + ") into //C[cid=\"" +
                       parent + "\"]/sub";
    if (!batch.Add(stmt, s.atg()).ok()) return 1;
  }

  // 3. Snapshot readers spin concurrently with the batch: their
  //    acquire/eval spans interleave with the writer's on the timeline,
  //    the MVCC picture docs/observability.md walks through.
  auto pool_path = ParseXPath("//C/sub/C");
  if (!pool_path.ok()) return 1;
  std::atomic<bool> done{false};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        Snapshot snap = s.AcquireSnapshot();
        if (snap.Eval(*pool_path).ok()) {
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  Status st = s.ApplyBatch(batch);
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  if (!st.ok()) {
    std::printf("batch error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("batch applied: %zu ops, %zu concurrent snapshot reads\n",
              batch.size(), reads.load());

  // 4. The paper's solver configuration on the calling thread: a
  //    sat.lane.walksat span, then sat.lane.cdcl if WalkSAT gave up.
  PortfolioOptions popts;
  popts.walksat_lanes = 1;
  PortfolioStats pstats;
  SolvePortfolio(Random3Sat(40, 4.0, 3000), popts, &pstats);
  std::printf("solver: winner %d (0 = WalkSAT, 1 = CDCL)\n",
              pstats.winner_lane);

  // 5. Export everything the rings buffered.
  const size_t events = obs::TraceEventCount();
  const std::string json = obs::ExportChromeTrace();
  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot open %s\n", out.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %zu trace events to %s — load it in chrome://tracing "
              "or https://ui.perfetto.dev\n",
              events, out.c_str());
  return events > 0 && reads.load() > 0 ? 0 : 1;
}
