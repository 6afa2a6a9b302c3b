#ifndef XVU_SAT_CDCL_H_
#define XVU_SAT_CDCL_H_

#include <cstdint>

#include "src/common/deadline.h"
#include "src/sat/cnf.h"

namespace xvu {

struct CdclOptions {
  /// Multiplicative VSIDS decay applied to all variable activities after
  /// each conflict (as 1/decay bump growth; rescaled on overflow).
  double var_decay = 0.95;
  /// Luby restart unit: restart after luby(i) * restart_base conflicts.
  uint64_t restart_base = 128;
  /// Learnt-clause DB reduction starts once the learnt count exceeds
  /// `learnt_base + learnt_growth * conflicts`.
  size_t learnt_base = 4000;
  double learnt_growth = 0.1;
  /// Give up (kUnknown) after this many conflicts; 0 = no limit. The
  /// insert translation leaves this 0 — CDCL is its complete solver.
  uint64_t max_conflicts = 0;
  /// Wall-clock budget, polled once per search iteration; expiry returns
  /// kUnknown. Default infinite — the determinism guarantee holds
  /// whenever the deadline never fires.
  Deadline deadline;
};

/// Conflict-driven clause learning solver: two-watched-literal
/// propagation, 1-UIP conflict analysis, activity-based branching with
/// decay (VSIDS), phase saving, and Luby restarts. Complete and fully
/// deterministic (no wall-clock or randomness dependence): the same
/// formula always yields the same verdict and model.
///
/// Returns kSat with a model, kUnsat, or kUnknown only past the deadline
/// or `max_conflicts`.
SatResult SolveCdcl(const Cnf& cnf, const CdclOptions& options = {},
                    SatStats* stats = nullptr);

}  // namespace xvu

#endif  // XVU_SAT_CDCL_H_
