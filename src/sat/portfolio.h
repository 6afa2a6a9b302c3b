#ifndef XVU_SAT_PORTFOLIO_H_
#define XVU_SAT_PORTFOLIO_H_

#include <cstdint>

#include "src/common/deadline.h"
#include "src/sat/cdcl.h"
#include "src/sat/cnf.h"
#include "src/sat/walksat.h"

namespace xvu {

/// Configuration of the insert translation's solver. The default runs
/// CDCL alone: complete and deterministic. With WalkSAT enabled it runs
/// the paper's configuration (Section 4.3): WalkSAT first, then CDCL
/// whenever WalkSAT gives up — so the verdict is the same either way and
/// only which satisfying assignment is returned can differ. Everything
/// runs sequentially on the calling thread.
struct PortfolioOptions {
  /// 0 = CDCL only. Any value >= 1 runs WalkSAT (configured by `walksat`)
  /// before CDCL; the value also numbers the CDCL winner (see
  /// PortfolioStats::winner_lane).
  size_t walksat_lanes = 0;
  WalkSatOptions walksat;
  CdclOptions cdcl;
  /// Wall-clock budget applied to both solvers (copied into each one's
  /// options unless that solver already carries its own). Expiry makes
  /// them give up (kUnknown) like an exhausted budget.
  Deadline deadline;
};

/// Per-run solver observability.
struct PortfolioStats {
  /// 0 = WalkSAT answered (only when walksat_lanes >= 1), walksat_lanes =
  /// CDCL answered, -1 = both gave up.
  int winner_lane = -1;
  /// Counters accumulated over every solver that ran.
  SatStats totals;
};

/// Solves `cnf` as configured by `options`. Returns kSat with a model,
/// kUnsat, or kUnknown only when every solver gave up (possible only with
/// a conflict-capped CDCL or an expired deadline).
SatResult SolvePortfolio(const Cnf& cnf, const PortfolioOptions& options = {},
                         PortfolioStats* stats = nullptr);

/// Folds one solver run's counters into the metrics registry
/// (xvu.sat.runs / propagations / flips / ... and the winner-lane gauge).
/// SolvePortfolio does this itself; benches that call a solver directly
/// call it so every solver's work is read from one source of truth.
void RecordSatRunMetrics(const SatStats& totals, int winner_lane);

}  // namespace xvu

#endif  // XVU_SAT_PORTFOLIO_H_
