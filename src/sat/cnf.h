#ifndef XVU_SAT_CNF_H_
#define XVU_SAT_CNF_H_

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace xvu {

/// A literal: +v for variable v, -v for its negation. Variables are
/// 1-indexed (DIMACS convention).
using Lit = int32_t;

inline int32_t VarOf(Lit l) { return std::abs(l); }
inline bool SignOf(Lit l) { return l > 0; }

/// A propositional formula in conjunctive normal form.
class Cnf {
 public:
  /// Allocates a fresh variable, returning its (positive) index.
  int32_t NewVar() { return ++num_vars_; }

  int32_t num_vars() const { return num_vars_; }
  size_t num_clauses() const { return clauses_.size(); }
  const std::vector<std::vector<Lit>>& clauses() const { return clauses_; }

  /// Adds a clause (disjunction of literals). An empty clause makes the
  /// formula trivially unsatisfiable.
  void AddClause(std::vector<Lit> lits);

  /// Convenience overloads.
  void AddUnit(Lit a) { AddClause({a}); }
  void AddBinary(Lit a, Lit b) { AddClause({a, b}); }
  void AddTernary(Lit a, Lit b, Lit c) { AddClause({a, b, c}); }

  /// True iff `assign` (1-indexed; assign[0] unused) satisfies all clauses.
  bool IsSatisfiedBy(const std::vector<bool>& assign) const;

  /// DIMACS CNF rendering (for debugging / interop).
  std::string ToDimacs() const;

 private:
  int32_t num_vars_ = 0;
  std::vector<std::vector<Lit>> clauses_;
};

/// Counters a solver run fills in (shared by CDCL, WalkSAT and the
/// portfolio, which sums the counters of the solvers it ran). All fields
/// are deterministic for a deterministic solver configuration.
struct SatStats {
  uint64_t propagations = 0;     ///< literals enqueued by unit propagation
  uint64_t conflicts = 0;        ///< conflicts analyzed (CDCL)
  uint64_t decisions = 0;        ///< branching decisions (CDCL)
  uint64_t learned_clauses = 0;  ///< 1-UIP clauses added (CDCL)
  uint64_t restarts = 0;         ///< Luby restarts taken (CDCL)
  uint64_t flips = 0;            ///< variable flips (WalkSAT)

  void Accumulate(const SatStats& o) {
    propagations += o.propagations;
    conflicts += o.conflicts;
    decisions += o.decisions;
    learned_clauses += o.learned_clauses;
    restarts += o.restarts;
    flips += o.flips;
  }
};

/// Outcome of a SAT solver run.
struct SatResult {
  enum class Kind {
    kSat,      ///< model found
    kUnsat,    ///< proved unsatisfiable (complete solvers only)
    kUnknown,  ///< gave up (incomplete solvers: WalkSAT)
  };
  Kind kind = Kind::kUnknown;
  /// 1-indexed assignment; model[0] is unused. Valid when kind == kSat.
  std::vector<bool> model;
};

}  // namespace xvu

#endif  // XVU_SAT_CNF_H_
