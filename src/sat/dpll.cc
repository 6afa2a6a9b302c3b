#include "src/sat/dpll.h"

#include "src/sat/cdcl.h"

namespace xvu {

SatResult SolveDpll(const Cnf& cnf) { return SolveCdcl(cnf); }

}  // namespace xvu
