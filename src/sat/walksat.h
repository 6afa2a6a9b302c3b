#ifndef XVU_SAT_WALKSAT_H_
#define XVU_SAT_WALKSAT_H_

#include <cstdint>

#include "src/common/deadline.h"
#include "src/sat/cnf.h"

namespace xvu {

/// Parameters of the WalkSAT local-search solver (Selman & Kautz [30] of
/// the paper), which the insertion-translation algorithm of Section 4.3
/// invokes on its side-effect encoding.
struct WalkSatOptions {
  uint32_t max_tries = 10;      ///< random restarts
  uint32_t max_flips = 100000;  ///< flips per try
  double noise = 0.5;           ///< probability of a random-walk move
  uint64_t seed = 42;
  /// Wall-clock budget, polled every 256 flips: on expiry the run
  /// returns kUnknown like an exhausted flip budget. Default
  /// infinite — determinism for a given (cnf, options) holds whenever
  /// the deadline never fires.
  Deadline deadline;
};

/// Runs WalkSAT. Returns kSat with a model, or kUnknown after exhausting
/// the flip budget (WalkSAT is incomplete: it can never prove unsat —
/// the paper reports the solver returning an assignment in 78% of its
/// insertion workload).
///
/// `stats` (optional) receives flip counts. The outcome for a given
/// (cnf, options) is deterministic whenever the deadline never fires.
SatResult SolveWalkSat(const Cnf& cnf, const WalkSatOptions& options = {},
                       SatStats* stats = nullptr);

}  // namespace xvu

#endif  // XVU_SAT_WALKSAT_H_
