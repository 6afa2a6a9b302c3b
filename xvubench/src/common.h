// Shared pieces of the xvu benchmark binary: exact sample statistics, the
// metric sink, the per-write ledger over UpdateStats, system set-up, and
// the post-run correctness gate. Everything here talks to libxvu through
// its public headers only.

#ifndef XVUBENCH_SRC_COMMON_H_
#define XVUBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/system.h"

namespace xvubench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One run of one workload: what main.cc parsed from the command line.
struct Phase {
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  /// Set-ups timed for setup_s (median); the traced phase builds once.
  int setup_repeats = 3;
  /// UpdateSystem::Options::worker_threads for the workload.
  size_t worker_threads = 1;
};

/// Raw samples of one quantity. Percentiles are exact: nearest rank over
/// the sorted samples, never a histogram bucket bound.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& o) {
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  /// Nearest-rank quantile, q in (0, 1]; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// Metric values keyed by name, each with the number of samples (or the
/// base of a ratio) behind it. Units live in run.py's catalogue.
struct Metric {
  double value = 0;
  size_t samples = 0;
};

class MetricSink {
 public:
  void Set(const std::string& name, double value, size_t samples) {
    metrics_[name] = Metric{value, samples};
  }
  /// `num` / `den`, or 0 when the base is empty.
  void Ratio(const std::string& name, double num, double den, size_t base);
  const std::map<std::string, Metric>& all() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// Outcome of one phase. `failed` counts operations whose outcome was
/// wrong: an error, a bad read, or a verdict other than the one the
/// paper's semantics require. `rejected` and `errored` count what the
/// system refused or failed, expected or not; together they are
/// failed_ratio's numerator. A gate mismatch clears `gate_ok`.
struct PhaseResult {
  MetricSink metrics;
  size_t attempted = 0;
  size_t failed = 0;
  size_t rejected = 0;
  size_t errored = 0;
  bool gate_ok = true;
  std::vector<std::string> errors;  ///< first few messages

  /// Counts a call's status over its `ops`: OK, rejected, or errored.
  void CountStatus(const xvu::Status& st, size_t ops = 1);
  void OpFailed(const std::string& what, size_t ops = 1);
  void GateFailed(const std::string& what);
};

/// Sums of the per-call UpdateStats (last_stats() after each write call)
/// plus the wall time of each call, for the per-layer split.
struct WriteLedger {
  size_t calls = 0;
  size_t statements = 0;  ///< ops inside the recorded calls
  double wall_s = 0;
  double xpath_s = 0, translate_s = 0, maintain_s = 0, sat_s = 0;
  size_t fresh_evals = 0, cache_hits = 0, delta_patches = 0,
         fallback_evals = 0;
  size_t symbolic_candidates = 0, delta_v = 0, delta_r = 0,
         subtree_edges = 0, journal_entries = 0;
  size_t sat_ops = 0, walksat_wins = 0, sat_conflicts = 0, sat_flips = 0;

  void Record(const xvu::UpdateStats& s, double call_seconds,
              size_t walksat_lanes);
  /// Writes the evaluator/viewupdate/sat/maintenance/pipeline metrics:
  /// times per call, flow counts per statement. `sat_runs` is the
  /// registry's run count over the same window.
  void Report(uint64_t sat_runs, MetricSink* out) const;
};

/// Registry counter deltas over a measured window.
class CounterWindow {
 public:
  CounterWindow();
  uint64_t Delta(const char* name) const;

 private:
  std::map<std::string, uint64_t> start_;
};

/// The published system plus the wall times of its set-ups.
struct SetupResult {
  std::unique_ptr<xvu::UpdateSystem> sys;
  Samples setup_seconds;
};

/// Generates the Fig.10 dataset (default spec, |C| = num_c) `repeats`
/// times and times UpdateSystem::Create on each copy; data generation is
/// excluded. Keeps the last system. Exits the process on a generation or
/// publish error. The dataset is the same for every benchmark seed; the
/// seed drives the statements and read paths drawn from it.
SetupResult BuildSystem(size_t num_c,
                        const xvu::UpdateSystem::Options& options,
                        int repeats);

/// Ends a measured window opened at `t0`: stops tracing, since nothing
/// after the window belongs in the trace, and returns its length in
/// seconds.
double CloseWindow(Clock::time_point t0);

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

/// Options every workload starts from: tracing and worker lanes follow
/// the phase.
xvu::UpdateSystem::Options BaseOptions(const Phase& phase);

/// The cid literal of `//C[cid="X"]...` / `C[cid="X"...` paths, or -1.
int64_t ParentCid(const std::string& stmt);

/// Replaces the tuple of `insert T(...) into P` with `tuple_text`.
std::string WithTuple(const std::string& stmt, const std::string& tuple_text);

/// Post-run correctness gate, outside any timed window:
///  - Republish()'s CanonicalEdges() equal the maintained DAG's;
///  - reachability() equals Reachability::Compute over the final DAG;
///  - after quiesce, a snapshot Eval equals a live Query for each of
///    `sample_paths`.
/// Each mismatch is recorded on `result`.
void CheckFinalState(xvu::UpdateSystem* sys,
                     const std::vector<std::string>& sample_paths,
                     PhaseResult* result);

/// Size of a live query's selection, or -1 on error.
long LiveCount(const xvu::UpdateSystem& sys, const std::string& xpath);

/// Sets the end-to-end metrics every workload reports from its write
/// latencies, committed statements and set-up.
void ReportCommon(const SetupResult& setup, const Samples& write_ms,
                  size_t committed, double window_s, double rss_mb,
                  PhaseResult* result);

PhaseResult RunBatchInsert(const Phase& phase);
PhaseResult RunSingleOpMixed(const Phase& phase);
PhaseResult RunSnapshotRead(const Phase& phase);

}  // namespace xvubench

#endif  // XVUBENCH_SRC_COMMON_H_
