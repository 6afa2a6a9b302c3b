#ifndef XVU_TESTS_ORACLES_DPLL_ORACLE_H_
#define XVU_TESTS_ORACLES_DPLL_ORACLE_H_

#include "src/sat/cnf.h"

namespace xvu {
namespace oracles {

/// The original recursive DPLL (unit propagation + chronological
/// backtracking, no learning, re-scans every clause per propagation
/// round). Exponential and slow: the small-instance correctness oracle
/// for the CDCL/WalkSAT/portfolio fuzz tests and the "old solver"
/// baseline of bench_ablation_sat and bench_minimal_delete.
SatResult SolveDpllRecursive(const Cnf& cnf);

}  // namespace oracles
}  // namespace xvu

#endif  // XVU_TESTS_ORACLES_DPLL_ORACLE_H_
