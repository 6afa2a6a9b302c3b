#include "xvubench/src/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "src/core/snapshot.h"
#include "src/dag/reachability.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/workload/synthetic.h"

namespace xvubench {

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

void MetricSink::Ratio(const std::string& name, double num, double den,
                       size_t base) {
  Set(name, den > 0 ? num / den : 0, base);
}

namespace {

void Note(PhaseResult* r, const std::string& what) {
  if (r->errors.size() < 20) r->errors.push_back(what);
}

}  // namespace

void PhaseResult::CountStatus(const xvu::Status& st, size_t ops) {
  if (st.IsRejected()) {
    rejected += ops;
  } else if (!st.ok()) {
    errored += ops;
  }
}

void PhaseResult::OpFailed(const std::string& what, size_t ops) {
  failed += ops;
  Note(this, what);
}

void PhaseResult::GateFailed(const std::string& what) {
  gate_ok = false;
  Note(this, "gate: " + what);
}

void WriteLedger::Record(const xvu::UpdateStats& s, double call_seconds,
                         size_t walksat_lanes) {
  ++calls;
  statements += s.batch_ops;
  wall_s += call_seconds;
  xpath_s += s.xpath_seconds;
  translate_s += s.translate_seconds;
  maintain_s += s.maintain_seconds;
  fresh_evals += s.xpath_evaluations;
  cache_hits += s.xpath_cache_hits;
  delta_patches += s.delta_patches;
  fallback_evals += s.fallback_evals;
  symbolic_candidates += s.symbolic_candidates;
  delta_v += s.delta_v;
  delta_r += s.delta_r;
  subtree_edges += s.subtree_edges;
  journal_entries += s.journal_entries_replayed;
  if (s.used_sat) {
    ++sat_ops;
    sat_s += s.sat_seconds;
    sat_conflicts += s.sat_conflicts;
    sat_flips += s.sat_flips;
    if (s.sat_winner_lane >= 0 &&
        static_cast<size_t>(s.sat_winner_lane) < walksat_lanes) {
      ++walksat_wins;
    }
  }
}

void WriteLedger::Report(uint64_t sat_runs, MetricSink* out) const {
  const double n = static_cast<double>(statements);
  const double c = static_cast<double>(calls);
  out->Ratio("evaluator.ms_per_op", xpath_s * 1e3, c, calls);
  out->Ratio("evaluator.fresh_evals", fresh_evals, n, statements);
  out->Ratio("evaluator.cache_hit_ratio", cache_hits, n, statements);
  out->Ratio("evaluator.delta_patches", delta_patches, n, statements);
  out->Ratio("evaluator.fallback_evals", fallback_evals, n, statements);
  out->Ratio("viewupdate.translate_ms_per_op", translate_s * 1e3, c, calls);
  out->Ratio("viewupdate.symbolic_candidates", symbolic_candidates, n,
             statements);
  out->Ratio("viewupdate.delta_v_rows", delta_v, n, statements);
  out->Ratio("viewupdate.delta_r_rows", delta_r, n, statements);
  out->Ratio("publisher.subtree_edges", subtree_edges, n, statements);
  out->Ratio("maintenance.ms_per_op", maintain_s * 1e3, c, calls);
  out->Ratio("maintenance.journal_entries", journal_entries, n, statements);
  out->Set("sat.ms_total", sat_s * 1e3, sat_ops);
  out->Ratio("sat.runs", static_cast<double>(sat_runs), n, statements);
  out->Ratio("sat.conflicts", sat_conflicts, n, statements);
  out->Ratio("sat.flips", sat_flips, n, statements);
  out->Ratio("sat.walksat_win_ratio", walksat_wins, sat_ops, sat_ops);
  const double attributed = xpath_s + translate_s + maintain_s;
  out->Set("pipeline.unattributed_share",
           wall_s > 0 ? 1.0 - attributed / wall_s : 0, calls);
}

namespace {

// Every registry counter a workload reads as a window delta.
const char* const kWindowCounters[] = {
    "xvu.sat.runs",
    "xvu.pool.jobs",
    "xvu.snapshot.state_rebuilds",
    "xvu.snapshot.carry_forwards",
    "xvu.snapshot.eval.memo_hits",
    "xvu.snapshot.eval.memo_misses",
};

uint64_t CounterValue(const char* name) {
  return xvu::obs::MetricsRegistry::Instance().GetCounter(name)->Value();
}

}  // namespace

CounterWindow::CounterWindow() {
  for (const char* name : kWindowCounters) start_[name] = CounterValue(name);
}

uint64_t CounterWindow::Delta(const char* name) const {
  auto it = start_.find(name);
  if (it == start_.end()) {
    std::fprintf(stderr, "xvubench: counter %s not windowed\n", name);
    std::abort();
  }
  return CounterValue(name) - it->second;
}

SetupResult BuildSystem(size_t num_c,
                        const xvu::UpdateSystem::Options& options,
                        int repeats) {
  xvu::SyntheticSpec spec;
  spec.num_c = num_c;
  SetupResult out;
  for (int i = 0; i < std::max(1, repeats); ++i) {
    out.sys.reset();  // one published system alive at a time
    auto db = xvu::MakeSyntheticDatabase(spec);
    if (!db.ok()) {
      std::fprintf(stderr, "xvubench: dataset: %s\n",
                   db.status().ToString().c_str());
      std::exit(2);
    }
    auto atg = xvu::MakeSyntheticAtg(*db);
    if (!atg.ok()) {
      std::fprintf(stderr, "xvubench: atg: %s\n",
                   atg.status().ToString().c_str());
      std::exit(2);
    }
    const auto t0 = Clock::now();
    auto sys = xvu::UpdateSystem::Create(std::move(*atg), std::move(*db),
                                         options);
    const auto t1 = Clock::now();
    if (!sys.ok()) {
      std::fprintf(stderr, "xvubench: publish: %s\n",
                   sys.status().ToString().c_str());
      std::exit(2);
    }
    out.setup_seconds.Add(SecondsBetween(t0, t1));
    out.sys = std::move(*sys);
  }
  std::fprintf(stderr, "xvubench: %zu set-up(s) of |C|=%zu, median %.3f s\n",
               out.setup_seconds.size(), num_c,
               out.setup_seconds.Quantile(0.5));
  return out;
}

double CloseWindow(Clock::time_point t0) {
  const double seconds = SecondsBetween(t0, Clock::now());
  xvu::obs::SetTracingEnabled(false);
  return seconds;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

xvu::UpdateSystem::Options BaseOptions(const Phase& phase) {
  xvu::UpdateSystem::Options options;
  options.worker_threads = phase.worker_threads;
  options.obs.tracing = phase.traced;
  // Large enough that no run wraps a ring and loses spans.
  options.obs.trace_ring_events = size_t{1} << 17;
  return options;
}

int64_t ParentCid(const std::string& stmt) {
  const std::string marker = "cid=\"";
  size_t at = stmt.find(marker);
  if (at == std::string::npos) return -1;
  return std::atoll(stmt.c_str() + at + marker.size());
}

std::string WithTuple(const std::string& stmt,
                      const std::string& tuple_text) {
  return "insert " + tuple_text + stmt.substr(stmt.find(" into "));
}

namespace {

std::vector<xvu::NodeId> Sorted(std::vector<xvu::NodeId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

void CheckFinalState(xvu::UpdateSystem* sys,
                     const std::vector<std::string>& sample_paths,
                     PhaseResult* result) {
  const auto t0 = Clock::now();
  auto republished = sys->Republish();
  if (!republished.ok()) {
    result->GateFailed("Republish: " + republished.status().ToString());
  } else if (republished->CanonicalEdges() != sys->dag().CanonicalEdges()) {
    result->GateFailed("maintained DAG differs from Republish()");
  }
  const xvu::Reachability fresh =
      xvu::Reachability::Compute(sys->dag(), sys->topo());
  if (!(fresh == sys->reachability())) {
    result->GateFailed("maintained M differs from Reachability::Compute");
  }
  xvu::Snapshot snap = sys->AcquireSnapshot();
  if (snap.epoch() != sys->read_epoch()) {
    result->GateFailed("quiesced snapshot does not pin the read epoch");
  }
  for (const std::string& path : sample_paths) {
    auto pinned = snap.Eval(path);
    auto live = sys->Query(path);
    if (!pinned.ok() || !live.ok()) {
      result->GateFailed("eval of " + path + " failed");
    } else if (Sorted(pinned->selected) != Sorted(live->selected)) {
      result->GateFailed("snapshot Eval != live Query for " + path);
    }
  }
  std::fprintf(stderr, "xvubench: correctness gate %s in %.2f s\n",
               result->gate_ok ? "passed" : "FAILED",
               SecondsBetween(t0, Clock::now()));
}

long LiveCount(const xvu::UpdateSystem& sys, const std::string& xpath) {
  auto r = sys.Query(xpath);
  return r.ok() ? static_cast<long>(r->selected.size()) : -1;
}

void ReportCommon(const SetupResult& setup, const Samples& write_ms,
                  size_t committed, double window_s, double rss_mb,
                  PhaseResult* result) {
  MetricSink& m = result->metrics;
  m.Set("setup_s", setup.setup_seconds.Quantile(0.5),
        setup.setup_seconds.size());
  m.Set("rss_peak_mb", rss_mb, 1);
  m.Ratio("write_ops_per_s", committed, window_s, committed);
  m.Set("write_p50_ms", write_ms.Quantile(0.5), write_ms.size());
  m.Set("write_p90_ms", write_ms.Quantile(0.9), write_ms.size());
  m.Ratio("failed_ratio",
          static_cast<double>(result->rejected + result->errored),
          static_cast<double>(result->attempted), result->attempted);
}

}  // namespace xvubench
