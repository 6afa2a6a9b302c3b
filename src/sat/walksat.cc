#include "src/sat/walksat.h"

#include <vector>

#include "src/common/rng.h"

namespace xvu {

namespace {

/// Incremental WalkSAT state: per-clause count of satisfied literals and
/// per-literal occurrence lists, so a flip costs O(occurrences).
struct WalkState {
  const Cnf* cnf;
  std::vector<bool> assign;              // 1-indexed
  std::vector<int32_t> sat_count;        // per clause
  std::vector<size_t> unsat;             // indices of unsatisfied clauses
  std::vector<size_t> unsat_pos;         // clause -> position in unsat
  std::vector<std::vector<size_t>> occ;  // var -> clauses containing it

  static constexpr size_t kNotInUnsat = static_cast<size_t>(-1);

  void Init(Rng* rng) {
    const auto& clauses = cnf->clauses();
    size_t nv = static_cast<size_t>(cnf->num_vars());
    assign.assign(nv + 1, false);
    for (size_t v = 1; v <= nv; ++v) assign[v] = rng->Chance(0.5);
    occ.assign(nv + 1, {});
    sat_count.assign(clauses.size(), 0);
    unsat.clear();
    unsat_pos.assign(clauses.size(), kNotInUnsat);
    for (size_t ci = 0; ci < clauses.size(); ++ci) {
      for (Lit l : clauses[ci]) {
        // Deduplicate occ entries: Flip scans the whole clause per entry,
        // so a variable appearing twice must be registered once.
        auto& ov = occ[static_cast<size_t>(VarOf(l))];
        if (ov.empty() || ov.back() != ci) ov.push_back(ci);
        if (assign[static_cast<size_t>(VarOf(l))] == SignOf(l)) {
          ++sat_count[ci];
        }
      }
      if (sat_count[ci] == 0) MarkUnsat(ci);
    }
  }

  void MarkUnsat(size_t ci) {
    unsat_pos[ci] = unsat.size();
    unsat.push_back(ci);
  }

  void UnmarkUnsat(size_t ci) {
    size_t pos = unsat_pos[ci];
    size_t last = unsat.back();
    unsat[pos] = last;
    unsat_pos[last] = pos;
    unsat.pop_back();
    unsat_pos[ci] = kNotInUnsat;
  }

  /// Number of clauses that would become unsatisfied by flipping `v`.
  int32_t BreakCount(int32_t v) const {
    int32_t breaks = 0;
    for (size_t ci : occ[static_cast<size_t>(v)]) {
      if (sat_count[ci] != 1) continue;
      // The clause is critically satisfied; does v provide the single
      // satisfying literal?
      for (Lit l : cnf->clauses()[ci]) {
        if (VarOf(l) == v &&
            assign[static_cast<size_t>(v)] == SignOf(l)) {
          ++breaks;
          break;
        }
      }
    }
    return breaks;
  }

  void Flip(int32_t v) {
    bool nv = !assign[static_cast<size_t>(v)];
    assign[static_cast<size_t>(v)] = nv;
    for (size_t ci : occ[static_cast<size_t>(v)]) {
      for (Lit l : cnf->clauses()[ci]) {
        if (VarOf(l) != v) continue;
        if (nv == SignOf(l)) {
          if (++sat_count[ci] == 1) UnmarkUnsat(ci);
        } else {
          if (--sat_count[ci] == 0) MarkUnsat(ci);
        }
      }
    }
  }
};

}  // namespace

SatResult SolveWalkSat(const Cnf& cnf, const WalkSatOptions& options,
                       SatStats* stats) {
  SatResult res;
  // Trivial edge cases.
  for (const auto& clause : cnf.clauses()) {
    if (clause.empty()) {
      res.kind = SatResult::Kind::kUnsat;  // empty clause: provably unsat
      return res;
    }
  }
  Rng rng(options.seed);
  WalkState st;
  st.cnf = &cnf;
  for (uint32_t t = 0; t < options.max_tries; ++t) {
    st.Init(&rng);
    for (uint32_t f = 0; f < options.max_flips; ++f) {
      if ((f & 255) == 0 && options.deadline.expired()) {
        res.kind = SatResult::Kind::kUnknown;
        return res;
      }
      if (st.unsat.empty()) {
        res.kind = SatResult::Kind::kSat;
        res.model = st.assign;
        return res;
      }
      size_t ci = st.unsat[rng.Below(st.unsat.size())];
      const auto& clause = cnf.clauses()[ci];
      int32_t pick;
      // WalkSAT move: prefer a zero-break ("free") flip; otherwise take a
      // random literal with probability `noise`, else the min-break one.
      int32_t best = VarOf(clause[0]);
      int32_t best_break = st.BreakCount(best);
      for (size_t i = 1; i < clause.size() && best_break > 0; ++i) {
        int32_t v = VarOf(clause[i]);
        int32_t b = st.BreakCount(v);
        if (b < best_break) {
          best = v;
          best_break = b;
        }
      }
      if (best_break == 0 || !rng.Chance(options.noise)) {
        pick = best;
      } else {
        pick = VarOf(clause[rng.Below(clause.size())]);
      }
      st.Flip(pick);
      if (stats != nullptr) ++stats->flips;
    }
  }
  res.kind = SatResult::Kind::kUnknown;
  return res;
}

}  // namespace xvu
