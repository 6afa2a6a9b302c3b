// single_op_mixed: one closed-loop client at |C|=20k running a seeded
// interleave of W1/W2/W3 insertions and deletions from the Section 5
// workload generators, each statement through ParseUpdate and the per-op
// ApplyInsert/ApplyDelete. Every 8th op is a one-tuple H deletion, or the
// re-insertion of the tuple deleted before it, through
// ApplyRelationalUpdate. Paths are not shared, so every op pays a full
// XPath evaluation; buddy insertions run the SAT portfolio.

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/update.h"
#include "src/obs/trace.h"
#include "src/workload/workloads.h"
#include "xvubench/src/common.h"

namespace xvubench {
namespace {

constexpr size_t kNumC = 20000;
constexpr size_t kRelationalEvery = 8;
/// Per class and refill: insertions and deletions drawn from the
/// generators. One refill covers a run of several hundred ops.
constexpr size_t kInsertsPerClass = 96;
constexpr size_t kDeletesPerClass = 48;
constexpr size_t kRelationalCandidates = 96;
/// Fresh C and G ids start far above the dataset's id universe.
constexpr int64_t kFreshC = 100000000;
constexpr int64_t kFreshG = 200000000;

using Edge = std::pair<int64_t, int64_t>;

/// (parent, child) of `delete ...C[cid="p"...]/sub/C[cid="c"]`.
Edge DeleteEdge(const std::string& stmt) {
  const size_t second = stmt.rfind("cid=\"");
  return {ParentCid(stmt), ParentCid(stmt.substr(second))};
}

xvu::Tuple HRow(const Edge& e) {
  return {xvu::Value::Int(e.first), xvu::Value::Int(e.second)};
}

bool GroupTagsUniform(const xvu::Database& db, int64_t parent) {
  bool first = true, tag0 = false, uniform = true;
  db.GetTable("G")->ForEach([&](const xvu::Tuple& row) {
    if (row[1].as_int() != parent) return;
    const bool tag = row[2].as_bool();
    if (first) {
      tag0 = tag;
      first = false;
    } else if (tag != tag0) {
      uniform = false;
    }
  });
  return uniform;
}

/// Whether `insert C(...) into .../C[cid=P]/sub` must commit. P publishes
/// sub children only while its C and F rows agree on c2..c4. A view
/// deletion of P's only child may be translated by deleting F(P); an
/// insertion under P then has to restore F(P), which brings back P's
/// remaining H edges as well: a certain side effect, so it is rejected
/// unless P has no H edges left.
bool SubInsertTranslatable(const xvu::Database& db, int64_t parent) {
  const xvu::Tuple key = {xvu::Value::Int(parent)};
  const xvu::Tuple* c = db.GetTable("C")->FindByKey(key);
  const xvu::Tuple* f = db.GetTable("F")->FindByKey(key);
  if (c == nullptr) return false;
  if (f != nullptr && (*c)[1] == (*f)[1] && (*c)[2] == (*f)[2] &&
      (*c)[3] == (*f)[3]) {
    return true;
  }
  bool has_edge = false;
  db.GetTable("H")->ForEach([&](const xvu::Tuple& row) {
    has_edge = has_edge || row[0].as_int() == parent;
  });
  return !has_edge;
}

struct MixedOp {
  enum class Kind { kInsert, kDelete, kRelDelete, kRelInsert };
  Kind kind = Kind::kInsert;
  std::string stmt;  ///< XML ops
  bool buddy = false;
  int64_t parent = -1;
  int64_t fresh_id = -1;  ///< sub insertions: the new child's cid
  /// Buddy insertions under a K-less parent: the group's G tags were
  /// uniform when drawn. Translatable exactly then (Example 8): with mixed
  /// tags any K.tag exposes an existing G row as a side effect.
  bool group_uniform = true;
  Edge edge;  ///< deletions (XML and relational) and re-insertions
};

/// The op sequence. Statements are drawn in refills from the *current*
/// base, so deletions always target live edges and fresh ids never
/// collide; the relational ops pick live edges no queued XML deletion
/// targets.
class MixedStream {
 public:
  explicit MixedStream(uint64_t seed) : seed_(seed), rng_(seed + 17) {}

  /// Draws the first refill, so the timed window starts with one ready.
  void Prime(const xvu::Database& db) { Refill(db); }

  MixedOp Next(const xvu::Database& db) {
    ++index_;
    if (index_ % kRelationalEvery == 0) {
      if (std::optional<MixedOp> op = NextRelational(db)) return *op;
    }
    if (xml_.empty()) Refill(db);
    MixedOp op = std::move(xml_.front());
    xml_.pop_front();
    if (op.kind == MixedOp::Kind::kDelete) queued_deletes_.erase(op.edge);
    return op;
  }

 private:
  std::optional<MixedOp> NextRelational(const xvu::Database& db) {
    MixedOp op;
    if (reinsert_) {
      op.kind = MixedOp::Kind::kRelInsert;
      op.edge = *reinsert_;
      reinsert_.reset();
      return op;
    }
    const xvu::Table* h = db.GetTable("H");
    for (int attempt = 0; attempt < 2; ++attempt) {
      while (!candidates_.empty()) {
        Edge e = candidates_.back();
        candidates_.pop_back();
        if (queued_deletes_.count(e) > 0 || !h->ContainsKey(HRow(e))) continue;
        op.kind = MixedOp::Kind::kRelDelete;
        op.edge = e;
        reinsert_ = e;
        return op;
      }
      DrawCandidates(db);
    }
    return std::nullopt;
  }

  uint64_t NextSeed() { return seed_ * 1000003 + (++draws_); }

  void DrawCandidates(const xvu::Database& db) {
    auto stmts = xvu::MakeDeletionWorkload(xvu::WorkloadClass::kW2, db,
                                           kRelationalCandidates, NextSeed());
    if (!stmts.ok()) return;
    for (const std::string& s : *stmts) candidates_.push_back(DeleteEdge(s));
  }

  /// Draws kInsertsPerClass insertions and kDeletesPerClass deletions per
  /// class and queues them in rounds of two insertions and one deletion
  /// per class, shuffled within the round. Every prefix of the stream
  /// thus keeps the same mix of op kinds, so the write percentiles do not
  /// depend on how the seed happened to order slow and fast kinds.
  void Refill(const xvu::Database& db) {
    std::vector<MixedOp> ins[3], del[3];
    std::set<Edge> chunk_deletes;
    const xvu::WorkloadClass classes[3] = {xvu::WorkloadClass::kW1,
                                           xvu::WorkloadClass::kW2,
                                           xvu::WorkloadClass::kW3};
    for (int c = 0; c < 3; ++c) {
      auto ins_stmts = xvu::MakeInsertionWorkload(classes[c], db,
                                                  kInsertsPerClass, NextSeed());
      auto del_stmts = xvu::MakeDeletionWorkload(classes[c], db,
                                                 kDeletesPerClass, NextSeed());
      if (!ins_stmts.ok() || !del_stmts.ok()) continue;
      for (const std::string& s : *ins_stmts) {
        MixedOp op;
        op.kind = MixedOp::Kind::kInsert;
        op.parent = ParentCid(s);
        op.buddy = s.rfind("insert B(", 0) == 0;
        if (op.buddy) {
          op.stmt = WithTuple(s, "B(" + std::to_string(next_g_++) + ")");
          op.group_uniform = GroupTagsUniform(db, op.parent);
        } else {
          op.fresh_id = next_c_++;
          op.stmt = WithTuple(s, "C(" + std::to_string(op.fresh_id) + ", " +
                                     std::to_string(op.fresh_id % 100) + ")");
        }
        ins[c].push_back(std::move(op));
      }
      // Each edge is deleted at most once: a repeat would select nothing.
      for (const std::string& s : *del_stmts) {
        MixedOp op;
        op.kind = MixedOp::Kind::kDelete;
        op.stmt = s;
        op.edge = DeleteEdge(s);
        if (!chunk_deletes.insert(op.edge).second) continue;
        queued_deletes_.insert(op.edge);
        del[c].push_back(std::move(op));
      }
    }
    for (size_t r = 0; 2 * r < kInsertsPerClass; ++r) {
      std::vector<MixedOp> round;
      for (int c = 0; c < 3; ++c) {
        for (size_t i = 2 * r; i < 2 * r + 2 && i < ins[c].size(); ++i) {
          round.push_back(std::move(ins[c][i]));
        }
        if (r < del[c].size()) round.push_back(std::move(del[c][r]));
      }
      for (size_t i = round.size(); i > 1; --i) {
        std::swap(round[i - 1], round[rng_.Below(i)]);
      }
      for (MixedOp& op : round) xml_.push_back(std::move(op));
    }
    if (candidates_.empty()) DrawCandidates(db);
  }

  uint64_t seed_;
  xvu::Rng rng_;
  uint64_t draws_ = 0;
  size_t index_ = 0;
  int64_t next_c_ = kFreshC;
  int64_t next_g_ = kFreshG;
  std::deque<MixedOp> xml_;
  std::set<Edge> queued_deletes_;
  std::vector<Edge> candidates_;
  std::optional<Edge> reinsert_;
};

const char* KindName(MixedOp::Kind k) {
  switch (k) {
    case MixedOp::Kind::kInsert: return "insert";
    case MixedOp::Kind::kDelete: return "delete";
    case MixedOp::Kind::kRelDelete: return "relational delete";
    case MixedOp::Kind::kRelInsert: return "relational insert";
  }
  return "?";
}

}  // namespace

PhaseResult RunSingleOpMixed(const Phase& phase) {
  const xvu::UpdateSystem::Options options = BaseOptions(phase);
  SetupResult setup = BuildSystem(kNumC, options, phase.setup_repeats);
  xvu::UpdateSystem* sys = setup.sys.get();
  PhaseResult result;
  const size_t lanes = options.insert.portfolio.walksat_lanes;

  MixedStream stream(phase.seed);
  stream.Prime(sys->database());

  WriteLedger ledger;
  Samples write_ms, parse_us, insert_ms, delete_ms, propagate_ms;
  size_t committed = 0;
  uint64_t op_id = 0;
  std::vector<MixedOp> committed_subs;  // sub insertions, for the gate
  std::set<Edge> removed_edges;         // edges deleted and not restored

  CounterWindow counters;
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration<double>(phase.seconds);
  while (Clock::now() < end) {
    const MixedOp op = stream.Next(sys->database());
    ++op_id;
    ++result.attempted;
    const bool relational = op.kind == MixedOp::Kind::kRelDelete ||
                            op.kind == MixedOp::Kind::kRelInsert;
    // What the paper's semantics require of this op.
    bool expect_ok = true;
    if (op.buddy) {
      const bool has_k = sys->database().GetTable("K")->ContainsKey(
          {xvu::Value::Int(op.parent)});
      expect_ok = has_k || op.group_uniform;
    } else if (op.kind == MixedOp::Kind::kInsert) {
      expect_ok = SubInsertTranslatable(sys->database(), op.parent);
    }

    xvu::Status st;
    double call_s = 0;
    if (relational) {
      xvu::RelationalUpdate dr;
      dr.ops.push_back({op.kind == MixedOp::Kind::kRelDelete
                            ? xvu::TableOp::Kind::kDelete
                            : xvu::TableOp::Kind::kInsert,
                        "H", HRow(op.edge)});
      const auto w0 = Clock::now();
      {
        xvu::obs::TraceSpan span("bench.write");
        span.Arg("op", op_id);
        st = sys->ApplyRelationalUpdate(dr);
      }
      call_s = SecondsBetween(w0, Clock::now());
      propagate_ms.Add(call_s * 1e3);
    } else {
      auto parse = [&] {
        xvu::obs::TraceSpan span("bench.parse");
        span.Arg("op", op_id);
        return xvu::ParseUpdate(op.stmt, sys->atg());
      };
      const auto p0 = Clock::now();
      xvu::Result<xvu::XmlUpdate> update = parse();
      parse_us.Add(SecondsBetween(p0, Clock::now()) * 1e6);
      if (!update.ok()) {
        result.CountStatus(update.status());
        result.OpFailed("parse " + op.stmt + ": " +
                        update.status().ToString());
        continue;
      }
      const auto w0 = Clock::now();
      {
        xvu::obs::TraceSpan span("bench.write");
        span.Arg("op", op_id);
        st = update->kind == xvu::XmlUpdate::Kind::kInsert
                 ? sys->ApplyInsert(update->elem_type, update->attr,
                                    update->path)
                 : sys->ApplyDelete(update->path);
      }
      call_s = SecondsBetween(w0, Clock::now());
      (op.kind == MixedOp::Kind::kInsert ? insert_ms : delete_ms)
          .Add(call_s * 1e3);
      ledger.Record(sys->last_stats(), call_s, lanes);
    }
    write_ms.Add(call_s * 1e3);
    result.CountStatus(st);
    if (st.ok() != expect_ok || (!st.ok() && !st.IsRejected())) {
      result.OpFailed(std::string(KindName(op.kind)) + " " + op.stmt +
                      (expect_ok ? " expected to commit: "
                                 : " expected a rejection: ") +
                      st.ToString());
    }
    if (!st.ok()) continue;
    ++committed;
    if (op.kind == MixedOp::Kind::kInsert && !op.buddy) {
      committed_subs.push_back(op);
    } else if (op.kind == MixedOp::Kind::kDelete ||
               op.kind == MixedOp::Kind::kRelDelete) {
      removed_edges.insert(op.edge);
    } else if (op.kind == MixedOp::Kind::kRelInsert) {
      removed_edges.erase(op.edge);
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
  m.Set("op.insert_ms_p50", insert_ms.Quantile(0.5), insert_ms.size());
  m.Set("op.delete_ms_p50", delete_ms.Quantile(0.5), delete_ms.size());
  m.Set("propagate.op_ms_p50", propagate_ms.Quantile(0.5),
        propagate_ms.size());

  // Gate: the newest committed sub insertions whose edge still stands are
  // visible as children of their parent.
  std::vector<std::string> sample_paths;
  size_t checked = 0;
  for (auto it = committed_subs.rbegin();
       it != committed_subs.rend() && checked < 16; ++it) {
    if (removed_edges.count({it->parent, it->fresh_id}) > 0) continue;
    ++checked;
    const std::string path = "//C[cid=\"" + std::to_string(it->parent) +
                             "\"]/sub/C[cid=\"" +
                             std::to_string(it->fresh_id) + "\"]";
    if (LiveCount(*sys, path) < 1) {
      result.GateFailed("committed insertion not visible: " + path);
    }
    if (sample_paths.size() < 8) {
      sample_paths.push_back("//C[cid=\"" + std::to_string(it->parent) +
                             "\"]/sub/C");
    }
  }
  CheckFinalState(sys, sample_paths, &result);
  return result;
}

}  // namespace xvubench
