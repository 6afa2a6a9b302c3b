// batch_insert: one closed-loop client applying ApplyBatch calls of N=50
// `insert C(fresh, payload) into //C[cid="P"]/sub`, P drawn by the seed
// from a hot set of 8 filter-passing parents, at |C|=20k with
// worker_threads=2 (set in main.cc's workload table). Translation and
// apply (PublishSubtree) dominate; the XPath runs at most once per batch
// and repeat parents are served by the delta-patched eval cache.

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/pipeline.h"
#include "src/obs/trace.h"
#include "src/workload/workloads.h"
#include "xvubench/src/common.h"

namespace xvubench {
namespace {

constexpr size_t kNumC = 20000;
constexpr size_t kBatchOps = 50;
constexpr size_t kHotParents = 8;
/// Fresh C ids start far above the dataset's id universe.
constexpr int64_t kFreshBase = 100000000;

std::string SubPath(int64_t cid) {
  return "//C[cid=\"" + std::to_string(cid) + "\"]/sub";
}

/// The first kHotParents distinct filter-passing parents the workload
/// generator draws for this seed.
std::vector<int64_t> HotParents(const xvu::Database& db, uint64_t seed) {
  std::vector<int64_t> hot;
  auto stmts = xvu::MakeInsertionWorkload(xvu::WorkloadClass::kW1, db, 256,
                                          seed);
  if (!stmts.ok()) return hot;
  for (const std::string& s : *stmts) {
    if (s.find("/sub") == std::string::npos) continue;
    const int64_t cid = ParentCid(s);
    bool seen = false;
    for (int64_t h : hot) seen = seen || h == cid;
    if (!seen) hot.push_back(cid);
    if (hot.size() == kHotParents) break;
  }
  return hot;
}

}  // namespace

PhaseResult RunBatchInsert(const Phase& phase) {
  const xvu::UpdateSystem::Options options = BaseOptions(phase);
  SetupResult setup = BuildSystem(kNumC, options, phase.setup_repeats);
  xvu::UpdateSystem* sys = setup.sys.get();
  PhaseResult result;

  const std::vector<int64_t> hot = HotParents(sys->database(), phase.seed);
  if (hot.size() != kHotParents) {
    result.GateFailed("workload generator yielded too few hot parents");
    return result;
  }
  std::vector<long> children_before;
  for (int64_t p : hot) {
    children_before.push_back(LiveCount(*sys, SubPath(p) + "/C"));
  }
  std::vector<size_t> inserted(hot.size(), 0);

  xvu::Rng rng(phase.seed + 1);
  const size_t lanes = options.insert.portfolio.walksat_lanes;
  WriteLedger ledger;
  Samples write_ms, parse_us;
  size_t committed = 0;
  int64_t next_id = kFreshBase;
  uint64_t op_id = 0;

  CounterWindow counters;
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration<double>(phase.seconds);
  while (Clock::now() < end) {
    const size_t h = rng.Below(hot.size());
    const std::string into = " into " + SubPath(hot[h]);
    std::vector<std::string> stmts;
    for (size_t i = 0; i < kBatchOps; ++i, ++next_id) {
      stmts.push_back("insert C(" + std::to_string(next_id) + ", " +
                      std::to_string(next_id % 100) + ")" + into);
    }
    ++op_id;
    result.attempted += kBatchOps;

    xvu::UpdateBatch batch;
    bool parsed = true;
    {
      xvu::obs::TraceSpan span("bench.parse");
      span.Arg("op", op_id);
      const auto p0 = Clock::now();
      for (const std::string& s : stmts) {
        xvu::Status st = batch.Add(s, sys->atg());
        if (!st.ok()) {
          result.OpFailed("parse: " + st.ToString());
          parsed = false;
        }
      }
      parse_us.Add(SecondsBetween(p0, Clock::now()) * 1e6 / kBatchOps);
    }
    if (!parsed) continue;

    const auto w0 = Clock::now();
    xvu::Status st;
    {
      xvu::obs::TraceSpan span("bench.write");
      span.Arg("op", op_id);
      st = sys->ApplyBatch(batch);
    }
    const double call_s = SecondsBetween(w0, Clock::now());
    write_ms.Add(call_s * 1e3);
    ledger.Record(sys->last_stats(), call_s, lanes);
    result.CountStatus(st, kBatchOps);
    if (st.ok()) {
      committed += kBatchOps;
      inserted[h] += kBatchOps;
    } else {
      result.OpFailed("batch: " + st.ToString(), kBatchOps);
    }
  }
  const double window_s = CloseWindow(t0);
  const double rss_mb = PeakRssMb();

  ReportCommon(setup, write_ms, committed, window_s, rss_mb, &result);
  MetricSink& m = result.metrics;
  m.Set("request_p50_ms", write_ms.Quantile(0.5), write_ms.size());
  m.Set("request_tail_ms", write_ms.Quantile(0.9), write_ms.size());
  m.Set("xpath.parse_us_per_op", parse_us.Quantile(0.5), parse_us.size());
  ledger.Report(counters.Delta("xvu.sat.runs"), &m);
  m.Ratio("pool.jobs", static_cast<double>(counters.Delta("xvu.pool.jobs")),
          static_cast<double>(ledger.statements), ledger.statements);
  m.Set("maintenance.m_pairs", static_cast<double>(sys->reachability().size()),
        1);

  // Gate: every statement's path was resolved exactly once, by a fresh
  // evaluation, a cache hit, or a journal patch of a cached entry.
  const size_t resolved =
      ledger.fresh_evals + ledger.cache_hits + ledger.delta_patches;
  if (resolved != ledger.statements) {
    result.GateFailed("fresh evals + cache hits + patches = " +
                      std::to_string(resolved) + ", ops = " +
                      std::to_string(ledger.statements));
  }
  std::vector<std::string> sample_paths;
  for (size_t i = 0; i < hot.size(); ++i) {
    const std::string children = SubPath(hot[i]) + "/C";
    const long after = LiveCount(*sys, children);
    if (after != children_before[i] + static_cast<long>(inserted[i])) {
      result.GateFailed(children + " has " + std::to_string(after) +
                        " children, expected " +
                        std::to_string(children_before[i] +
                                       static_cast<long>(inserted[i])));
    }
    sample_paths.push_back(children);
  }
  CheckFinalState(sys, sample_paths, &result);
  return result;
}

}  // namespace xvubench
