// snapshot_read: |C|=5k, open loop. One writer commits W2 `.../sub`
// insertions at 1/s; two readers each issue 20 reads/s, a read being
// AcquireSnapshot followed by Eval of //C[cid="X"]/sub with X uniform over
// the filter-passing parents. Every request is timed from when it was
// due, so a stall also charges the requests queued behind it. The first
// acquire after each commit rebuilds the epoch state under the writer
// lock, which sets read_p99_ms; the evaluator sets read_p50_ms.

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "src/core/snapshot.h"
#include "src/core/update.h"
#include "src/obs/trace.h"
#include "src/workload/workloads.h"
#include "src/xpath/parser.h"
#include "xvubench/src/common.h"

namespace xvubench {
namespace {

constexpr size_t kNumC = 5000;
constexpr double kWritesPerSecond = 1.0;
constexpr size_t kReaders = 2;
constexpr double kReadsPerSecond = 20.0;  // per reader
constexpr int64_t kFreshC = 100000000;
/// Reader op ids live above the writer's in the trace.
constexpr uint64_t kReaderOpBase = 1000000000;

struct ReadTarget {
  std::string text;
  xvu::Path path;
};

struct ReaderLog {
  Samples read_ms, acquire_ms, eval_ms, late_ms;
  size_t reads = 0;
  size_t bad_reads = 0;
  size_t epoch_regressions = 0;
  std::string first_error;
};

/// `count` sub-insertion statements drawn by the W2 generator; their
/// target parents are uniform over the filter-passing parents.
std::vector<std::string> SubInsertions(const xvu::Database& db, size_t count,
                                       uint64_t seed) {
  std::vector<std::string> out;
  // A third of the generator's statements are buddy insertions; skip them.
  auto stmts = xvu::MakeInsertionWorkload(xvu::WorkloadClass::kW2, db,
                                          count * 3 / 2 + 8, seed);
  if (!stmts.ok()) return out;
  for (const std::string& s : *stmts) {
    if (s.find("/sub") != std::string::npos && out.size() < count) {
      out.push_back(s);
    }
  }
  return out;
}

Clock::time_point Due(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

void RunReader(xvu::UpdateSystem* sys, const std::vector<ReadTarget>& targets,
               size_t reader, Clock::time_point t0, Clock::time_point end,
               ReaderLog* log) {
  uint64_t last_epoch = 0;
  for (size_t j = 0; j < targets.size(); ++j) {
    // Readers are phase-shifted so their requests interleave.
    const auto due = Due(
        t0, (static_cast<double>(j) +
             (static_cast<double>(reader) + 0.5) / kReaders) /
                kReadsPerSecond);
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    const uint64_t op_id = kReaderOpBase * (reader + 1) + j;
    const auto start = Clock::now();
    xvu::obs::TraceSpan read_span("bench.read");
    read_span.Arg("op", op_id);
    auto acquire = [&] {
      xvu::obs::TraceSpan span("bench.acquire");
      span.Arg("op", op_id);
      return sys->AcquireSnapshot();
    };
    auto eval = [&](const xvu::Snapshot& snap) {
      xvu::obs::TraceSpan span("bench.eval");
      span.Arg("op", op_id);
      return snap.Eval(targets[j].path);
    };
    xvu::Snapshot snap = acquire();
    const auto acquired = Clock::now();
    xvu::Result<xvu::EvalResult> r = eval(snap);
    const auto done = Clock::now();
    ++log->reads;
    log->late_ms.Add(SecondsBetween(due, start) * 1e3);
    log->acquire_ms.Add(SecondsBetween(start, acquired) * 1e3);
    log->eval_ms.Add(SecondsBetween(acquired, done) * 1e3);
    log->read_ms.Add(SecondsBetween(due, done) * 1e3);
    if (snap.epoch() < last_epoch) ++log->epoch_regressions;
    last_epoch = snap.epoch();
    if (!r.ok() || r->selected.empty()) {
      ++log->bad_reads;
      if (log->first_error.empty()) {
        log->first_error = "read " + targets[j].text + ": " +
                           (r.ok() ? "empty selection" : r.status().ToString());
      }
    }
  }
}

}  // namespace

PhaseResult RunSnapshotRead(const Phase& phase) {
  const xvu::UpdateSystem::Options options = BaseOptions(phase);
  SetupResult setup = BuildSystem(kNumC, options, phase.setup_repeats);
  xvu::UpdateSystem* sys = setup.sys.get();
  PhaseResult result;
  const size_t lanes = options.insert.portfolio.walksat_lanes;

  // Inputs: the writer's statements (fresh ids) and each reader's paths.
  const size_t writes_due =
      static_cast<size_t>(phase.seconds * kWritesPerSecond) + 2;
  std::vector<std::string> writes, written;  // statement, new child path
  int64_t next_id = kFreshC;
  for (const std::string& s :
       SubInsertions(sys->database(), writes_due, phase.seed)) {
    const std::string id = std::to_string(next_id);
    writes.push_back(
        WithTuple(s, "C(" + id + ", " + std::to_string(next_id % 100) + ")"));
    written.push_back("//C[cid=\"" + std::to_string(ParentCid(s)) +
                      "\"]/sub/C[cid=\"" + id + "\"]");
    ++next_id;
  }
  const size_t reads_due =
      static_cast<size_t>(phase.seconds * kReadsPerSecond) + 2;
  std::vector<std::vector<ReadTarget>> targets(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    for (const std::string& s : SubInsertions(sys->database(), reads_due,
                                              phase.seed * 31 + 101 + r)) {
      ReadTarget t;
      t.text = "//C[cid=\"" + std::to_string(ParentCid(s)) + "\"]/sub";
      auto p = xvu::ParseXPath(t.text);
      if (!p.ok()) {
        result.GateFailed("reader path " + t.text + ": " +
                          p.status().ToString());
        return result;
      }
      t.path = std::move(*p);
      targets[r].push_back(std::move(t));
    }
  }
  if (writes.size() < writes_due || targets[0].size() < reads_due) {
    result.GateFailed("workload generator yielded too few statements");
    return result;
  }

  WriteLedger ledger;
  Samples write_ms, parse_us, queue_ms;
  size_t committed = 0;
  std::vector<std::string> committed_children;
  std::vector<ReaderLog> logs(kReaders);

  CounterWindow counters;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto end = Due(t0, phase.seconds);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back(RunReader, sys, std::cref(targets[r]), r, t0, end,
                         &logs[r]);
  }
  // The writer runs on this thread.
  for (size_t i = 0; i < writes.size(); ++i) {
    const auto due = Due(t0, static_cast<double>(i) / kWritesPerSecond);
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    const auto start = Clock::now();
    const uint64_t op_id = i + 1;
    ++result.attempted;
    auto parse = [&] {
      xvu::obs::TraceSpan span("bench.parse");
      span.Arg("op", op_id);
      return xvu::ParseUpdate(writes[i], sys->atg());
    };
    xvu::Result<xvu::XmlUpdate> update = parse();
    const auto parsed = Clock::now();
    parse_us.Add(SecondsBetween(start, parsed) * 1e6);
    if (!update.ok()) {
      result.CountStatus(update.status());
      result.OpFailed("parse " + writes[i] + ": " + update.status().ToString());
      continue;
    }
    xvu::Status st;
    {
      xvu::obs::TraceSpan span("bench.write");
      span.Arg("op", op_id);
      st = sys->ApplyInsert(update->elem_type, update->attr, update->path);
    }
    const auto done = Clock::now();
    ledger.Record(sys->last_stats(), SecondsBetween(parsed, done), lanes);
    queue_ms.Add(SecondsBetween(due, start) * 1e3);
    write_ms.Add(SecondsBetween(due, done) * 1e3);
    result.CountStatus(st);
    if (st.ok()) {
      ++committed;
      committed_children.push_back(written[i]);
    } else {
      result.OpFailed("insert " + writes[i] + ": " + st.ToString());
    }
  }
  for (std::thread& t : readers) t.join();
  const double window_s = CloseWindow(t0);
  const double rss_mb = PeakRssMb();

  // Merge the readers' logs.
  Samples read_ms, acquire_ms, eval_ms, late_ms = queue_ms;
  for (ReaderLog& log : logs) {
    result.attempted += log.reads;
    result.errored += log.bad_reads;
    if (log.bad_reads > 0) result.OpFailed(log.first_error, log.bad_reads);
    if (log.epoch_regressions > 0) {
      result.GateFailed("a reader's pinned epochs went backwards");
    }
    read_ms.Append(log.read_ms);
    acquire_ms.Append(log.acquire_ms);
    eval_ms.Append(log.eval_ms);
    late_ms.Append(log.late_ms);
  }

  ReportCommon(setup, write_ms, committed, window_s, rss_mb, &result);
  MetricSink& m = result.metrics;
  m.Set("read_p50_ms", read_ms.Quantile(0.5), read_ms.size());
  m.Set("read_p99_ms", read_ms.Quantile(0.99), read_ms.size());
  m.Set("request_p50_ms", read_ms.Quantile(0.5), read_ms.size());
  m.Set("request_tail_ms", read_ms.Quantile(0.99), read_ms.size());
  m.Set("xpath.parse_us_per_op", parse_us.Quantile(0.5), parse_us.size());
  ledger.Report(counters.Delta("xvu.sat.runs"), &m);
  m.Ratio("pool.jobs", static_cast<double>(counters.Delta("xvu.pool.jobs")),
          static_cast<double>(ledger.statements), ledger.statements);
  m.Set("maintenance.m_pairs", static_cast<double>(sys->reachability().size()),
        1);
  m.Set("snapshot.acquire_ms_p50", acquire_ms.Quantile(0.5), acquire_ms.size());
  m.Set("snapshot.acquire_ms_p99", acquire_ms.Quantile(0.99),
        acquire_ms.size());
  m.Set("snapshot.eval_ms_p50", eval_ms.Quantile(0.5), eval_ms.size());
  m.Set("snapshot.eval_ms_p99", eval_ms.Quantile(0.99), eval_ms.size());
  m.Ratio("snapshot.state_rebuilds",
          static_cast<double>(counters.Delta("xvu.snapshot.state_rebuilds")),
          static_cast<double>(committed), committed);
  m.Ratio("snapshot.carry_forwards",
          static_cast<double>(counters.Delta("xvu.snapshot.carry_forwards")),
          static_cast<double>(committed), committed);
  const double hits =
      static_cast<double>(counters.Delta("xvu.snapshot.eval.memo_hits"));
  const double misses =
      static_cast<double>(counters.Delta("xvu.snapshot.eval.memo_misses"));
  m.Ratio("snapshot.memo_hit_ratio", hits, hits + misses,
          static_cast<size_t>(hits + misses));
  m.Set("writer.queue_ms_p50", queue_ms.Quantile(0.5), queue_ms.size());
  m.Set("loadgen.late_ms_p99", late_ms.Quantile(0.99), late_ms.size());

  // Gate: the newest commits are visible, and quiesced snapshot reads
  // match live queries on a sample of the readers' paths.
  for (size_t i = committed_children.size() > 8 ? committed_children.size() - 8
                                                : 0;
       i < committed_children.size(); ++i) {
    if (LiveCount(*sys, committed_children[i]) < 1) {
      result.GateFailed("committed insertion not visible: " +
                        committed_children[i]);
    }
  }
  std::vector<std::string> sample_paths;
  for (size_t j = 0; j < targets[0].size() && sample_paths.size() < 16;
       j += 7) {
    sample_paths.push_back(targets[0][j].text + "/C");
  }
  CheckFinalState(sys, sample_paths, &result);
  return result;
}

}  // namespace xvubench
