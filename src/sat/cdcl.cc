#include "src/sat/cdcl.h"

#include <algorithm>
#include <vector>

namespace xvu {

namespace {

/// luby(1), luby(2), ... = 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
uint64_t Luby(uint64_t i) {
  uint64_t k = 1;
  while (((uint64_t{1} << k) - 1) < i + 1) ++k;
  while (((uint64_t{1} << k) - 1) != i + 1) {
    --k;
    i -= (uint64_t{1} << k) - 1;
  }
  return uint64_t{1} << (k - 1);
}

constexpr int kNoReason = -1;

class Cdcl {
 public:
  Cdcl(const Cnf& cnf, const CdclOptions& opts, SatStats* stats)
      : cnf_(cnf), opts_(opts), stats_(stats) {}

  SatResult Solve();

 private:
  struct Clause {
    std::vector<Lit> lits;
    double act = 0;
    bool learnt = false;
    bool deleted = false;
  };

  static size_t WatchIdx(Lit l) {
    return 2 * static_cast<size_t>(VarOf(l)) + (l > 0 ? 0 : 1);
  }
  /// +1 true, -1 false, 0 unset under the current assignment.
  int8_t ValueOf(Lit l) const {
    int8_t v = value_[static_cast<size_t>(VarOf(l))];
    return l > 0 ? v : static_cast<int8_t>(-v);
  }
  int CurrentLevel() const { return static_cast<int>(trail_lim_.size()); }

  bool HeapLess(int32_t a, int32_t b) const {
    // Max-heap on activity; ties break to the smaller variable index so
    // the branching order — and hence the whole run — is deterministic.
    double aa = activity_[static_cast<size_t>(a)];
    double ab = activity_[static_cast<size_t>(b)];
    return aa != ab ? aa > ab : a < b;
  }
  void HeapUp(size_t i) {
    int32_t v = heap_[i];
    while (i > 0) {
      size_t p = (i - 1) / 2;
      if (!HeapLess(v, heap_[p])) break;
      heap_[i] = heap_[p];
      heap_pos_[static_cast<size_t>(heap_[i])] = static_cast<int>(i);
      i = p;
    }
    heap_[i] = v;
    heap_pos_[static_cast<size_t>(v)] = static_cast<int>(i);
  }
  void HeapDown(size_t i) {
    int32_t v = heap_[i];
    for (;;) {
      size_t c = 2 * i + 1;
      if (c >= heap_.size()) break;
      if (c + 1 < heap_.size() && HeapLess(heap_[c + 1], heap_[c])) ++c;
      if (!HeapLess(heap_[c], v)) break;
      heap_[i] = heap_[c];
      heap_pos_[static_cast<size_t>(heap_[i])] = static_cast<int>(i);
      i = c;
    }
    heap_[i] = v;
    heap_pos_[static_cast<size_t>(v)] = static_cast<int>(i);
  }
  void HeapInsert(int32_t v) {
    if (heap_pos_[static_cast<size_t>(v)] >= 0) return;
    heap_.push_back(v);
    HeapUp(heap_.size() - 1);
  }
  int32_t HeapPop() {
    int32_t top = heap_[0];
    heap_pos_[static_cast<size_t>(top)] = -1;
    int32_t last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = last;
      heap_pos_[static_cast<size_t>(last)] = 0;
      HeapDown(0);
    }
    return top;
  }

  void BumpVar(int32_t v) {
    if ((activity_[static_cast<size_t>(v)] += var_inc_) > 1e100) {
      for (double& a : activity_) a *= 1e-100;
      var_inc_ *= 1e-100;
    }
    int pos = heap_pos_[static_cast<size_t>(v)];
    if (pos >= 0) HeapUp(static_cast<size_t>(pos));
  }
  void BumpClause(Clause* c) {
    if ((c->act += cla_inc_) > 1e20) {
      for (Clause& cl : clauses_) {
        if (cl.learnt) cl.act *= 1e-20;
      }
      cla_inc_ *= 1e-20;
    }
  }

  void Enqueue(Lit l, int reason) {
    size_t v = static_cast<size_t>(VarOf(l));
    value_[v] = l > 0 ? int8_t{1} : int8_t{-1};
    level_[v] = CurrentLevel();
    reason_[v] = reason;
    trail_.push_back(l);
    if (stats_ != nullptr) ++stats_->propagations;
  }

  /// Propagates to fixpoint; returns the conflicting clause index or -1.
  int Propagate() {
    while (qhead_ < trail_.size()) {
      Lit p = trail_[qhead_++];
      std::vector<int>& ws = watches_[WatchIdx(-p)];
      size_t i = 0, j = 0;
      while (i < ws.size()) {
        int ci = ws[i++];
        Clause& c = clauses_[static_cast<size_t>(ci)];
        if (c.deleted) continue;  // lazily dropped from the watch list
        if (c.lits[0] == -p) std::swap(c.lits[0], c.lits[1]);
        if (ValueOf(c.lits[0]) == 1) {
          ws[j++] = ci;  // satisfied by the other watch
          continue;
        }
        bool moved = false;
        for (size_t k = 2; k < c.lits.size(); ++k) {
          if (ValueOf(c.lits[k]) != -1) {
            std::swap(c.lits[1], c.lits[k]);
            watches_[WatchIdx(c.lits[1])].push_back(ci);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        ws[j++] = ci;
        if (ValueOf(c.lits[0]) == -1) {
          // Conflict: keep the rest of the watch list intact.
          while (i < ws.size()) ws[j++] = ws[i++];
          ws.resize(j);
          qhead_ = trail_.size();
          return ci;
        }
        Enqueue(c.lits[0], ci);
      }
      ws.resize(j);
    }
    return -1;
  }

  void Backtrack(int target) {
    if (CurrentLevel() <= target) return;
    size_t bound = trail_lim_[static_cast<size_t>(target)];
    for (size_t k = trail_.size(); k-- > bound;) {
      size_t v = static_cast<size_t>(VarOf(trail_[k]));
      phase_[v] = value_[v];
      value_[v] = 0;
      reason_[v] = kNoReason;
      HeapInsert(static_cast<int32_t>(v));
    }
    trail_.resize(bound);
    trail_lim_.resize(static_cast<size_t>(target));
    qhead_ = bound;
  }

  /// 1-UIP conflict analysis. Fills `learnt` (asserting literal first,
  /// a highest-level literal second) and returns the backtrack level.
  int Analyze(int confl, std::vector<Lit>* learnt) {
    learnt->clear();
    learnt->push_back(0);  // placeholder for the asserting literal
    int path = 0;
    Lit p = 0;
    size_t index = trail_.size();
    do {
      Clause& c = clauses_[static_cast<size_t>(confl)];
      if (c.learnt) BumpClause(&c);
      for (size_t k = (p == 0 ? 0 : 1); k < c.lits.size(); ++k) {
        Lit q = c.lits[k];
        size_t v = static_cast<size_t>(VarOf(q));
        if (seen_[v] || level_[v] == 0) continue;
        seen_[v] = 1;
        BumpVar(VarOf(q));
        if (level_[v] == CurrentLevel()) {
          ++path;
        } else {
          learnt->push_back(q);
        }
      }
      while (!seen_[static_cast<size_t>(VarOf(trail_[index - 1]))]) --index;
      p = trail_[--index];
      confl = reason_[static_cast<size_t>(VarOf(p))];
      seen_[static_cast<size_t>(VarOf(p))] = 0;
      --path;
    } while (path > 0);
    (*learnt)[0] = -p;
    int bt = 0;
    if (learnt->size() > 1) {
      // Second watch: a literal of the highest remaining level, so the
      // clause wakes up exactly when that level is undone.
      size_t at = 1;
      for (size_t k = 2; k < learnt->size(); ++k) {
        if (level_[static_cast<size_t>(VarOf((*learnt)[k]))] >
            level_[static_cast<size_t>(VarOf((*learnt)[at]))]) {
          at = k;
        }
      }
      std::swap((*learnt)[1], (*learnt)[at]);
      bt = level_[static_cast<size_t>(VarOf((*learnt)[1]))];
    }
    for (Lit l : *learnt) seen_[static_cast<size_t>(VarOf(l))] = 0;
    return bt;
  }

  bool Locked(size_t ci) const {
    const Clause& c = clauses_[ci];
    size_t v = static_cast<size_t>(VarOf(c.lits[0]));
    return reason_[v] == static_cast<int>(ci) && ValueOf(c.lits[0]) == 1;
  }

  /// Halves the learnt DB, keeping binary, locked and high-activity
  /// clauses. Deleted clauses are dropped lazily by Propagate.
  void ReduceLearnts() {
    std::vector<size_t> cand;
    for (size_t ci = 0; ci < clauses_.size(); ++ci) {
      const Clause& c = clauses_[ci];
      if (c.learnt && !c.deleted && c.lits.size() > 2 && !Locked(ci)) {
        cand.push_back(ci);
      }
    }
    std::sort(cand.begin(), cand.end(), [&](size_t a, size_t b) {
      double aa = clauses_[a].act, ab = clauses_[b].act;
      return aa != ab ? aa < ab : a < b;
    });
    for (size_t k = 0; k < cand.size() / 2; ++k) {
      Clause& c = clauses_[cand[k]];
      c.deleted = true;
      c.lits.clear();
      c.lits.shrink_to_fit();
      --num_learnts_;
    }
  }

  const Cnf& cnf_;
  CdclOptions opts_;
  SatStats* stats_;

  std::vector<Clause> clauses_;
  std::vector<std::vector<int>> watches_;
  std::vector<int8_t> value_;  // per var: +1/-1/0
  std::vector<int8_t> phase_;  // saved polarity
  std::vector<int> level_;
  std::vector<int> reason_;
  std::vector<Lit> trail_;
  std::vector<size_t> trail_lim_;
  size_t qhead_ = 0;
  std::vector<double> activity_;
  std::vector<int32_t> heap_;
  std::vector<int> heap_pos_;
  std::vector<uint8_t> seen_;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  size_t num_learnts_ = 0;
  uint64_t conflicts_total_ = 0;
  uint64_t restarts_taken_ = 0;
};

SatResult Cdcl::Solve() {
  SatResult res;
  size_t nv = static_cast<size_t>(cnf_.num_vars());
  value_.assign(nv + 1, 0);
  phase_.assign(nv + 1, -1);
  level_.assign(nv + 1, 0);
  reason_.assign(nv + 1, kNoReason);
  activity_.assign(nv + 1, 0.0);
  seen_.assign(nv + 1, 0);
  watches_.assign(2 * (nv + 1), {});
  heap_pos_.assign(nv + 1, -1);
  heap_.reserve(nv);
  for (size_t v = 1; v <= nv; ++v) HeapInsert(static_cast<int32_t>(v));

  // Load the formula: dedupe literals, drop tautologies, queue units.
  std::vector<Lit> units;
  std::vector<Lit> lits;
  for (const auto& clause : cnf_.clauses()) {
    lits = clause;
    std::sort(lits.begin(), lits.end(), [](Lit a, Lit b) {
      return VarOf(a) != VarOf(b) ? VarOf(a) < VarOf(b) : a < b;
    });
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    bool taut = false;
    for (size_t k = 0; k + 1 < lits.size(); ++k) {
      if (VarOf(lits[k]) == VarOf(lits[k + 1])) {
        taut = true;
        break;
      }
    }
    if (taut) continue;
    if (lits.empty()) {
      res.kind = SatResult::Kind::kUnsat;
      return res;
    }
    if (lits.size() == 1) {
      units.push_back(lits[0]);
      continue;
    }
    int ci = static_cast<int>(clauses_.size());
    clauses_.push_back(Clause{lits, 0, false, false});
    watches_[WatchIdx(lits[0])].push_back(ci);
    watches_[WatchIdx(lits[1])].push_back(ci);
  }
  for (Lit u : units) {
    int8_t v = ValueOf(u);
    if (v == -1) {
      res.kind = SatResult::Kind::kUnsat;
      return res;
    }
    if (v == 0) Enqueue(u, kNoReason);
  }

  uint64_t conflicts_since_restart = 0;
  uint64_t restart_budget = Luby(0) * opts_.restart_base;
  std::vector<Lit> learnt;
  for (;;) {
    int confl = Propagate();
    if (confl >= 0) {
      if (stats_ != nullptr) ++stats_->conflicts;
      ++conflicts_total_;
      ++conflicts_since_restart;
      if (CurrentLevel() == 0) {
        res.kind = SatResult::Kind::kUnsat;
        return res;
      }
      int bt = Analyze(confl, &learnt);
      Backtrack(bt);
      if (learnt.size() == 1) {
        Enqueue(learnt[0], kNoReason);
      } else {
        int ci = static_cast<int>(clauses_.size());
        clauses_.push_back(Clause{learnt, cla_inc_, true, false});
        watches_[WatchIdx(learnt[0])].push_back(ci);
        watches_[WatchIdx(learnt[1])].push_back(ci);
        ++num_learnts_;
        if (stats_ != nullptr) ++stats_->learned_clauses;
        Enqueue(learnt[0], ci);
      }
      var_inc_ /= opts_.var_decay;
      cla_inc_ /= 0.999;
      continue;
    }
    if (opts_.deadline.expired() ||
        (opts_.max_conflicts > 0 && conflicts_total_ >= opts_.max_conflicts)) {
      res.kind = SatResult::Kind::kUnknown;
      return res;
    }
    if (conflicts_since_restart >= restart_budget) {
      if (stats_ != nullptr) ++stats_->restarts;
      ++restarts_taken_;
      conflicts_since_restart = 0;
      restart_budget = Luby(restarts_taken_) * opts_.restart_base;
      Backtrack(0);
      continue;
    }
    if (num_learnts_ >
        opts_.learnt_base +
            static_cast<size_t>(opts_.learnt_growth *
                                static_cast<double>(conflicts_total_))) {
      ReduceLearnts();
    }
    // Decide.
    int32_t next = 0;
    while (!heap_.empty()) {
      int32_t v = HeapPop();
      if (value_[static_cast<size_t>(v)] == 0) {
        next = v;
        break;
      }
    }
    if (next == 0) {
      res.kind = SatResult::Kind::kSat;
      res.model.assign(nv + 1, false);
      for (size_t v = 1; v <= nv; ++v) res.model[v] = value_[v] == 1;
      return res;
    }
    if (stats_ != nullptr) ++stats_->decisions;
    trail_lim_.push_back(trail_.size());
    Enqueue(phase_[static_cast<size_t>(next)] == 1 ? next : -next, kNoReason);
  }
}

}  // namespace

SatResult SolveCdcl(const Cnf& cnf, const CdclOptions& options,
                    SatStats* stats) {
  SatStats local;
  Cdcl solver(cnf, options, stats != nullptr ? stats : &local);
  return solver.Solve();
}

}  // namespace xvu
