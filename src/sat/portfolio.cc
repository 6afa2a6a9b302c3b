#include "src/sat/portfolio.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace xvu {

void RecordSatRunMetrics(const SatStats& totals, int winner_lane) {
  if (!obs::MetricsEnabled()) return;
  XVU_OBS_COUNT("xvu.sat.runs", 1);
  XVU_OBS_COUNT("xvu.sat.propagations", totals.propagations);
  XVU_OBS_COUNT("xvu.sat.conflicts", totals.conflicts);
  XVU_OBS_COUNT("xvu.sat.decisions", totals.decisions);
  XVU_OBS_COUNT("xvu.sat.learned_clauses", totals.learned_clauses);
  XVU_OBS_COUNT("xvu.sat.restarts", totals.restarts);
  XVU_OBS_COUNT("xvu.sat.flips", totals.flips);
  XVU_OBS_GAUGE_SET("xvu.sat.winner_lane", winner_lane);
}

SatResult SolvePortfolio(const Cnf& cnf, const PortfolioOptions& options,
                         PortfolioStats* stats) {
  WalkSatOptions walksat = options.walksat;
  CdclOptions cdcl = options.cdcl;
  if (walksat.deadline.infinite()) walksat.deadline = options.deadline;
  if (cdcl.deadline.infinite()) cdcl.deadline = options.deadline;

  SatStats totals;
  SatResult res;
  int winner = -1;
  if (options.walksat_lanes > 0) {
    {
      obs::TraceSpan span("sat.lane.walksat");
      span.Arg("lane", 0);
      res = SolveWalkSat(cnf, walksat, &totals);
    }
    if (res.kind != SatResult::Kind::kUnknown) winner = 0;
  }
  if (winner < 0) {
    const int cdcl_lane = static_cast<int>(options.walksat_lanes);
    {
      obs::TraceSpan span("sat.lane.cdcl");
      span.Arg("lane", static_cast<uint64_t>(cdcl_lane));
      res = SolveCdcl(cnf, cdcl, &totals);
    }
    if (res.kind != SatResult::Kind::kUnknown) winner = cdcl_lane;
  }
  if (stats != nullptr) {
    stats->winner_lane = winner;
    stats->totals.Accumulate(totals);
  }
  RecordSatRunMetrics(totals, winner);
  return res;
}

}  // namespace xvu
