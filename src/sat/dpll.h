#ifndef XVU_SAT_DPLL_H_
#define XVU_SAT_DPLL_H_

#include "src/sat/cnf.h"

namespace xvu {

/// Complete solver entry point. Historically a recursive DPLL; now backed
/// by the watched-literal CDCL solver (src/sat/cdcl.h), which is orders of
/// magnitude faster on hard instances while remaining complete and
/// deterministic.
///
/// Returns kSat with a model, or kUnsat; never kUnknown.
SatResult SolveDpll(const Cnf& cnf);

}  // namespace xvu

#endif  // XVU_SAT_DPLL_H_
