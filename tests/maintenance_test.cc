#include <gtest/gtest.h>

#include <unordered_set>

#include "src/dag/maintenance_engine.h"
#include "tests/test_util.h"

namespace xvu {
namespace {

using testing_util::RandomDag;

/// Recompute-from-scratch oracle: M and L of the current DAG. The merge
/// re-derives L with the same Kahn pass, so L must match bit for bit.
void ExpectStructuresMatchRecompute(const DagView& dag,
                                    const Reachability& m,
                                    const TopoOrder& topo,
                                    const std::string& context) {
  auto fresh_topo = TopoOrder::Compute(dag);
  ASSERT_TRUE(fresh_topo.ok()) << context;
  Reachability fresh_m = Reachability::Compute(dag, *fresh_topo);
  EXPECT_TRUE(m == fresh_m) << context << ": reachability diverged";
  EXPECT_TRUE(topo.Check(dag).ok()) << context << ": topo order invalid";
  EXPECT_EQ(topo.order(), fresh_topo->order()) << context;
}

/// Attaches a synthetic "published subtree" of `k` new nodes to `dag`:
/// new[0] is the subtree root; each new node links to the next (chain) and
/// randomly to later new nodes and to existing nodes (sharing). Returns
/// (root, new nodes).
std::pair<NodeId, std::vector<NodeId>> AttachSubtree(DagView* dag, size_t k,
                                                     Rng* rng) {
  std::vector<NodeId> existing = dag->LiveNodes();
  std::vector<NodeId> fresh;
  for (size_t i = 0; i < k; ++i) {
    fresh.push_back(dag->GetOrAddNode(
        "new", {Value::Int(static_cast<int64_t>(1000000 + rng->Next() % 1000000)),
                Value::Int(static_cast<int64_t>(i))}));
  }
  for (size_t i = 0; i + 1 < k; ++i) {
    dag->AddEdge(fresh[i], fresh[i + 1]);
    if (rng->Chance(0.3) && i + 2 < k) {
      dag->AddEdge(fresh[i], fresh[i + 2 + rng->Below(k - i - 2)]);
    }
    if (rng->Chance(0.4)) {
      dag->AddEdge(fresh[i], existing[rng->Below(existing.size())]);
    }
  }
  if (k > 0 && rng->Chance(0.5)) {
    dag->AddEdge(fresh.back(), existing[rng->Below(existing.size())]);
  }
  return {fresh.empty() ? kInvalidNode : fresh[0], fresh};
}

/// One incremental-merge pass over everything `dag` journaled since the
/// engine's last pass.
MaintenanceEngine::BatchReport Merge(MaintenanceEngine* engine, DagView* dag) {
  MaintenanceEngine::BatchOptions options;
  options.strategy = MaintenanceStrategy::kIncrementalMerge;
  MaintenanceEngine::BatchReport report;
  Status st = engine->MaintainBatch(dag, options, &report);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.used, MaintenanceStrategy::kIncrementalMerge);
  return report;
}

TEST(MergeInsert, MatchesRecomputeOnRandomScenarios) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    DagView dag = RandomDag(80, 0.35, seed);
    MaintenanceEngine engine;
    ASSERT_TRUE(engine.Rebuild(dag).ok());
    Rng rng(seed * 31);

    auto [sroot, fresh] = AttachSubtree(&dag, 1 + rng.Below(12), &rng);
    ASSERT_NE(sroot, kInvalidNode);

    // Targets: existing nodes outside the subtree's cone (no cycles).
    std::vector<NodeId> cone = CollectDescOrSelf(dag, {sroot});
    std::unordered_set<NodeId> cone_set(cone.begin(), cone.end());
    std::vector<NodeId> targets;
    for (NodeId v : dag.LiveNodes()) {
      if (cone_set.count(v) == 0 && rng.Chance(0.1)) targets.push_back(v);
    }
    if (targets.empty()) targets.push_back(dag.root());
    for (NodeId u : targets) dag.AddEdge(u, sroot);

    MaintenanceEngine::BatchReport report = Merge(&engine, &dag);
    ExpectStructuresMatchRecompute(dag, engine.reach(), engine.topo(),
                                   "insert seed " + std::to_string(seed));
    EXPECT_TRUE(report.delta.removed_nodes.empty());
    // Every reported ∆M pair is actually present.
    for (const auto& [a, d] : report.delta.m_inserted) {
      EXPECT_TRUE(engine.reach().IsAncestor(a, d));
    }
  }
}

TEST(MergeInsert, SharedSubtreeRootAlreadyPresent) {
  // Inserting an existing node under a new parent (pure connect edge).
  DagView dag = RandomDag(40, 0.3, 3);
  MaintenanceEngine engine;
  ASSERT_TRUE(engine.Rebuild(dag).ok());
  const Reachability& m = engine.reach();
  // Find u, v with v not ancestor-or-self of u and no edge (u, v).
  NodeId u = kInvalidNode, v = kInvalidNode;
  for (NodeId a : dag.LiveNodes()) {
    for (NodeId b : dag.LiveNodes()) {
      if (a != b && !m.IsAncestor(b, a) && !dag.HasEdge(a, b)) {
        u = a;
        v = b;
        break;
      }
    }
    if (u != kInvalidNode) break;
  }
  ASSERT_NE(u, kInvalidNode);
  dag.AddEdge(u, v);
  Merge(&engine, &dag);
  ExpectStructuresMatchRecompute(dag, engine.reach(), engine.topo(),
                                 "shared-root connect");
}

TEST(MergeDelete, MatchesRecomputeOnRandomScenarios) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    DagView dag = RandomDag(80, 0.35, seed + 100);
    MaintenanceEngine engine;
    ASSERT_TRUE(engine.Rebuild(dag).ok());
    Rng rng(seed * 17);

    // Pick non-root targets and drop a random subset of their incoming
    // edges (sometimes all of them, forcing garbage collection).
    std::vector<NodeId> live = dag.LiveNodes();
    std::vector<NodeId> targets;
    for (NodeId v : live) {
      if (v != dag.root() && rng.Chance(0.15)) targets.push_back(v);
    }
    if (targets.empty()) continue;
    for (NodeId v : targets) {
      std::vector<NodeId> parents(dag.parents(v));
      bool drop_all = rng.Chance(0.5);
      for (NodeId u : parents) {
        if (drop_all || rng.Chance(0.6)) {
          ASSERT_TRUE(dag.RemoveEdge(u, v).ok());
        }
      }
    }

    MaintenanceEngine::BatchReport report = Merge(&engine, &dag);
    ExpectStructuresMatchRecompute(dag, engine.reach(), engine.topo(),
                                   "delete seed " + std::to_string(seed));

    // After GC, everything alive is reachable from the root.
    std::vector<NodeId> reachable = CollectDescOrSelf(dag, {dag.root()});
    EXPECT_EQ(reachable.size(), dag.num_nodes());
    for (NodeId n : report.delta.removed_nodes) EXPECT_FALSE(dag.alive(n));
  }
}

TEST(MergeDelete, CascadingCollection) {
  // r -> a -> b -> c; deleting edge (r, a) collects the whole chain.
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  NodeId a = dag.GetOrAddNode("a", {});
  NodeId b = dag.GetOrAddNode("b", {});
  NodeId c = dag.GetOrAddNode("c", {});
  dag.SetRoot(r);
  dag.AddEdge(r, a);
  dag.AddEdge(a, b);
  dag.AddEdge(b, c);
  MaintenanceEngine engine;
  ASSERT_TRUE(engine.Rebuild(dag).ok());

  ASSERT_TRUE(dag.RemoveEdge(r, a).ok());
  MaintenanceEngine::BatchReport report = Merge(&engine, &dag);
  EXPECT_EQ(report.delta.removed_nodes.size(), 3u);
  EXPECT_EQ(report.delta.orphan_edges.size(), 2u);  // (a,b), (b,c)
  EXPECT_EQ(dag.num_nodes(), 1u);
  EXPECT_EQ(engine.reach().size(), 0u);
}

TEST(MergeDelete, SharedSubtreeSurvives) {
  // Example 6's shape: the CS320 subtree is shared; deleting it from one
  // parent keeps it alive under the other and only removes reachability
  // pairs along the severed path.
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  NodeId p1 = dag.GetOrAddNode("p", {Value::Int(1)});
  NodeId p2 = dag.GetOrAddNode("p", {Value::Int(2)});
  NodeId shared = dag.GetOrAddNode("s", {});
  NodeId leaf = dag.GetOrAddNode("l", {});
  dag.SetRoot(r);
  dag.AddEdge(r, p1);
  dag.AddEdge(r, p2);
  dag.AddEdge(p1, shared);
  dag.AddEdge(p2, shared);
  dag.AddEdge(shared, leaf);
  MaintenanceEngine engine;
  ASSERT_TRUE(engine.Rebuild(dag).ok());
  const Reachability& m = engine.reach();
  EXPECT_TRUE(m.IsAncestor(p1, leaf));

  ASSERT_TRUE(dag.RemoveEdge(p1, shared).ok());
  MaintenanceEngine::BatchReport report = Merge(&engine, &dag);
  EXPECT_TRUE(report.delta.removed_nodes.empty());
  EXPECT_TRUE(dag.alive(shared));
  EXPECT_FALSE(m.IsAncestor(p1, shared));
  EXPECT_FALSE(m.IsAncestor(p1, leaf));
  EXPECT_TRUE(m.IsAncestor(p2, leaf));  // the other path is intact
  ExpectStructuresMatchRecompute(dag, m, engine.topo(), "shared survive");
}

TEST(MergeDelete, RootNeverCollected) {
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  NodeId a = dag.GetOrAddNode("a", {});
  dag.SetRoot(r);
  dag.AddEdge(r, a);
  MaintenanceEngine engine;
  ASSERT_TRUE(engine.Rebuild(dag).ok());
  ASSERT_TRUE(dag.RemoveEdge(r, a).ok());
  Merge(&engine, &dag);
  EXPECT_TRUE(dag.alive(r));
  EXPECT_EQ(dag.num_nodes(), 1u);
}

TEST(CollectDescOrSelf, BasicAndDiamond) {
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  NodeId a = dag.GetOrAddNode("a", {});
  NodeId b = dag.GetOrAddNode("b", {});
  NodeId c = dag.GetOrAddNode("c", {});
  dag.SetRoot(r);
  dag.AddEdge(r, a);
  dag.AddEdge(r, b);
  dag.AddEdge(a, c);
  dag.AddEdge(b, c);
  auto all = CollectDescOrSelf(dag, {r});
  EXPECT_EQ(all.size(), 4u);  // no duplicates despite the diamond
  auto froma = CollectDescOrSelf(dag, {a});
  EXPECT_EQ(froma.size(), 2u);
}

}  // namespace
}  // namespace xvu
