#ifndef XVU_TESTS_ORACLES_REACHABILITY_ORACLE_H_
#define XVU_TESTS_ORACLES_REACHABILITY_ORACLE_H_

#include "src/dag/dag_view.h"
#include "src/dag/reachability.h"

namespace xvu {
namespace oracles {

/// Naive transitive closure via a DFS from every live node, built through
/// Reachability's public Insert; the test oracle for Algorithm Reach and
/// the incremental merge, and the ablation baseline of
/// bench_ablation_reach.
Reachability NaiveReachability(const DagView& dag);

}  // namespace oracles
}  // namespace xvu

#endif  // XVU_TESTS_ORACLES_REACHABILITY_ORACLE_H_
