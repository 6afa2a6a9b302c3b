#include "tests/oracles/reachability_oracle.h"

#include <algorithm>
#include <vector>

namespace xvu {
namespace oracles {

Reachability NaiveReachability(const DagView& dag) {
  Reachability m;
  m.Reserve(dag.capacity());
  std::vector<char> seen(dag.capacity());
  // Ascending ancestors, each with ascending descendants: every Insert
  // appends to both lists.
  for (NodeId a : dag.LiveNodes()) {
    std::fill(seen.begin(), seen.end(), 0);
    std::vector<NodeId> stack(dag.children(a).begin(), dag.children(a).end());
    std::vector<NodeId> desc;
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      if (seen[v]) continue;
      seen[v] = 1;
      desc.push_back(v);
      for (NodeId c : dag.children(v)) stack.push_back(c);
    }
    std::sort(desc.begin(), desc.end());
    for (NodeId d : desc) m.Insert(a, d);
  }
  return m;
}

}  // namespace oracles
}  // namespace xvu
