#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "src/dag/dag_view.h"
#include "src/dag/reachability.h"
#include "src/dag/topo_order.h"
#include "tests/oracles/reachability_oracle.h"
#include "tests/test_util.h"

namespace xvu {
namespace {

using testing_util::RandomDag;

TEST(DagView, GetOrAddNodeDeduplicatesByTypeAndAttr) {
  DagView dag;
  NodeId a = dag.GetOrAddNode("course", {Value::Str("CS320")});
  NodeId b = dag.GetOrAddNode("course", {Value::Str("CS320")});
  NodeId c = dag.GetOrAddNode("course", {Value::Str("CS650")});
  NodeId d = dag.GetOrAddNode("prereq", {Value::Str("CS320")});
  EXPECT_EQ(a, b);  // the Skolem function gen_id
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);  // type participates in identity
  EXPECT_EQ(dag.num_nodes(), 3u);
}

TEST(DagView, EdgesAreSetsAndOrdered) {
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  NodeId x = dag.GetOrAddNode("x", {Value::Int(1)});
  NodeId y = dag.GetOrAddNode("y", {Value::Int(2)});
  EXPECT_TRUE(dag.AddEdge(r, x));
  EXPECT_TRUE(dag.AddEdge(r, y));
  EXPECT_FALSE(dag.AddEdge(r, x));  // set semantics
  EXPECT_EQ(dag.num_edges(), 2u);
  // Children keep insertion (document) order.
  ASSERT_EQ(dag.children(r).size(), 2u);
  EXPECT_EQ(dag.children(r)[0], x);
  EXPECT_EQ(dag.children(r)[1], y);
  EXPECT_EQ(dag.parents(x).size(), 1u);
}

TEST(DagView, RemoveEdgeAndNode) {
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  NodeId x = dag.GetOrAddNode("x", {});
  dag.AddEdge(r, x);
  // A node with incident edges cannot be removed.
  EXPECT_FALSE(dag.RemoveNode(x).ok());
  EXPECT_TRUE(dag.RemoveEdge(r, x).ok());
  EXPECT_FALSE(dag.RemoveEdge(r, x).ok());
  EXPECT_TRUE(dag.RemoveNode(x).ok());
  EXPECT_FALSE(dag.alive(x));
  EXPECT_EQ(dag.num_nodes(), 1u);
  // The (type, attr) slot is free again.
  NodeId x2 = dag.GetOrAddNode("x", {});
  EXPECT_NE(x2, x);
}

TEST(DagView, UncompressedTreeSizeCountsSharing) {
  // Diamond: root -> {a, b} -> c. As a tree, c appears twice.
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
  EXPECT_EQ(dag.num_nodes(), 4u);
  EXPECT_EQ(dag.UncompressedTreeSize(), 5u);  // r a c b c
}

TEST(DagView, ExponentialCompression) {
  // A chain of diamonds: DAG is linear, tree is exponential.
  DagView dag;
  NodeId prev = dag.GetOrAddNode("n", {Value::Int(0)});
  dag.SetRoot(prev);
  for (int i = 1; i <= 20; ++i) {
    NodeId l = dag.GetOrAddNode("l", {Value::Int(i)});
    NodeId r = dag.GetOrAddNode("r", {Value::Int(i)});
    NodeId next = dag.GetOrAddNode("n", {Value::Int(i)});
    dag.AddEdge(prev, l);
    dag.AddEdge(prev, r);
    dag.AddEdge(l, next);
    dag.AddEdge(r, next);
    prev = next;
  }
  EXPECT_EQ(dag.num_nodes(), 61u);
  EXPECT_GT(dag.UncompressedTreeSize(), 1u << 20);
}

TEST(DagView, ToXmlRendersAndTruncates) {
  DagView dag;
  NodeId r = dag.GetOrAddNode("db", {});
  NodeId c = dag.GetOrAddNode("course", {Value::Str("CS320")});
  NodeId t = dag.GetOrAddNode("cno", {Value::Str("CS320")});
  dag.MarkTextNode(t);
  dag.SetRoot(r);
  dag.AddEdge(r, c);
  dag.AddEdge(c, t);
  std::string xml = dag.ToXml();
  EXPECT_NE(xml.find("<db>"), std::string::npos);
  EXPECT_NE(xml.find("<cno>CS320</cno>"), std::string::npos);
  // Childless non-text nodes render as empty elements, not as text.
  DagView empty;
  NodeId e = empty.GetOrAddNode("prereq", {Value::Str("X")});
  empty.SetRoot(e);
  EXPECT_NE(empty.ToXml().find("<prereq/>"), std::string::npos);
  std::string truncated = dag.ToXml(1);
  EXPECT_NE(truncated.find("truncated"), std::string::npos);
}

TEST(TopoOrder, DescendantsFirstInvariant) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    DagView dag = RandomDag(200, 0.4, seed);
    auto topo = TopoOrder::Compute(dag);
    ASSERT_TRUE(topo.ok());
    EXPECT_TRUE(topo->Check(dag).ok()) << "seed " << seed;
  }
}

TEST(TopoOrder, DetectsCycle) {
  DagView dag;
  NodeId a = dag.GetOrAddNode("a", {});
  NodeId b = dag.GetOrAddNode("b", {});
  dag.SetRoot(a);
  dag.AddEdge(a, b);
  dag.AddEdge(b, a);
  EXPECT_FALSE(TopoOrder::Compute(dag).ok());
}

TEST(Reachability, MatchesNaiveOnRandomDags) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    DagView dag = RandomDag(150, 0.5, seed);
    auto topo = TopoOrder::Compute(dag);
    ASSERT_TRUE(topo.ok());
    Reachability fast = Reachability::Compute(dag, *topo);
    Reachability naive = oracles::NaiveReachability(dag);
    EXPECT_TRUE(fast == naive) << "seed " << seed;
  }
}

TEST(Reachability, StrictAndTransitive) {
  DagView dag;
  NodeId a = dag.GetOrAddNode("a", {});
  NodeId b = dag.GetOrAddNode("b", {});
  NodeId c = dag.GetOrAddNode("c", {});
  dag.SetRoot(a);
  dag.AddEdge(a, b);
  dag.AddEdge(b, c);
  auto topo = TopoOrder::Compute(dag);
  ASSERT_TRUE(topo.ok());
  Reachability m = Reachability::Compute(dag, *topo);
  EXPECT_TRUE(m.IsAncestor(a, b));
  EXPECT_TRUE(m.IsAncestor(a, c));  // transitive
  EXPECT_TRUE(m.IsAncestor(b, c));
  EXPECT_FALSE(m.IsAncestor(c, a));
  EXPECT_FALSE(m.IsAncestor(a, a));  // strict
  EXPECT_EQ(m.size(), 3u);
}

TEST(Reachability, InsertEraseBookkeeping) {
  Reachability m;
  EXPECT_TRUE(m.Insert(1, 2));
  EXPECT_FALSE(m.Insert(1, 2));  // duplicate
  EXPECT_FALSE(m.Insert(3, 3));  // reflexive pairs refused
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.IsAncestor(1, 2));
  EXPECT_FALSE(m.IsAncestor(2, 1));
  EXPECT_TRUE(m.Erase(1, 2));
  EXPECT_FALSE(m.Erase(1, 2));
  EXPECT_EQ(m.size(), 0u);
}

TEST(Reachability, RandomInsertEraseMatchesPairSetOracle) {
  // Ids are drawn over the whole range, so most edits land below a
  // list's last element (the non-append path), alongside appends.
  constexpr NodeId kIds = 40;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    Reachability m, twin;
    std::set<std::pair<NodeId, NodeId>> oracle;
    for (int step = 0; step < 3000; ++step) {
      NodeId a = static_cast<NodeId>(rng.Below(kIds));
      NodeId d = static_cast<NodeId>(rng.Below(kIds));
      if (rng.Chance(0.6)) {
        bool fresh = a != d && !oracle.count({a, d});
        ASSERT_EQ(m.Insert(a, d), fresh) << "seed " << seed;
        if (fresh) oracle.emplace(a, d);
      } else {
        ASSERT_EQ(m.Erase(a, d), oracle.erase({a, d}) > 0) << "seed " << seed;
      }
      ASSERT_EQ(m.size(), oracle.size());
    }
    std::vector<std::vector<NodeId>> anc(kIds), desc(kIds);
    for (const auto& [a, d] : oracle) {  // lexicographic: both ascending
      anc[d].push_back(a);
      desc[a].push_back(d);
      EXPECT_TRUE(m.IsAncestor(a, d));
    }
    for (NodeId v = 0; v < kIds; ++v) {
      EXPECT_EQ(m.Ancestors(v), anc[v]) << "seed " << seed << " node " << v;
      EXPECT_EQ(m.Descendants(v), desc[v]) << "seed " << seed << " node " << v;
    }
    // Equality is by content, not by edit history: the same pairs inserted
    // in descending order compare equal, and one pair fewer does not.
    for (auto it = oracle.rbegin(); it != oracle.rend(); ++it) {
      twin.Insert(it->first, it->second);
    }
    EXPECT_TRUE(m == twin);
    if (!oracle.empty()) {
      twin.Erase(oracle.begin()->first, oracle.begin()->second);
      EXPECT_FALSE(m == twin);
    }
  }
}

TEST(DagView, CanonicalEdgesStableUnderIdRenaming) {
  // Two DAGs with the same logical content built in different orders.
  DagView d1, d2;
  NodeId r1 = d1.GetOrAddNode("r", {});
  NodeId a1 = d1.GetOrAddNode("a", {Value::Int(1)});
  d1.SetRoot(r1);
  d1.AddEdge(r1, a1);

  NodeId a2 = d2.GetOrAddNode("a", {Value::Int(1)});
  NodeId r2 = d2.GetOrAddNode("r", {});
  d2.SetRoot(r2);
  d2.AddEdge(r2, a2);

  EXPECT_EQ(d1.CanonicalEdges(), d2.CanonicalEdges());
}

/// Deep structural equality through the public API — including exact
/// children order, parents-vector layout, node-id allocation, and the
/// journal tail — the "bit-identical" bar RewindTo is held to.
void ExpectIdentical(const DagView& a, const DagView& b) {
  ASSERT_EQ(a.capacity(), b.capacity());
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.version(), b.version());
  EXPECT_EQ(a.root(), b.root());
  for (NodeId id = 0; id < a.capacity(); ++id) {
    ASSERT_EQ(a.alive(id), b.alive(id)) << "node " << id;
    EXPECT_EQ(a.node(id).type, b.node(id).type);
    EXPECT_EQ(a.node(id).attr, b.node(id).attr);
    EXPECT_EQ(a.children(id), b.children(id)) << "children of " << id;
    EXPECT_EQ(a.parents(id), b.parents(id)) << "parents of " << id;
    if (a.alive(id)) {
      EXPECT_EQ(a.FindNode(a.node(id).type, a.node(id).attr), id);
      EXPECT_EQ(b.FindNode(b.node(id).type, b.node(id).attr), id);
    }
  }
  // Journal tails must agree so post-rewind incremental maintenance
  // replays the same window on both.
  std::vector<DagDelta> ja = a.JournalSince(0);
  std::vector<DagDelta> jb = b.JournalSince(0);
  ASSERT_EQ(ja.size(), jb.size());
  for (size_t i = 0; i < ja.size(); ++i) {
    EXPECT_EQ(ja[i].ToString(), jb[i].ToString());
  }
}

TEST(DagRewind, UndoesEveryMutationKind) {
  DagView dag = RandomDag(12, 0.3, 7);
  DagView snapshot = dag;
  const uint64_t v0 = dag.version();

  // One of each mutation kind, including an edge removal from the
  // middle of a child list (exercises the positional undo).
  NodeId r = dag.root();
  ASSERT_GE(dag.children(r).size(), 1u);
  NodeId mid = dag.children(r)[dag.children(r).size() / 2];
  ASSERT_TRUE(dag.RemoveEdge(r, mid).ok());
  NodeId fresh = dag.GetOrAddNode("fresh", {Value::Int(99)});
  dag.AddEdge(r, fresh);
  dag.SetRoot(fresh);
  ASSERT_TRUE(dag.RemoveEdge(r, fresh).ok());
  ASSERT_TRUE(dag.RemoveNode(fresh).ok());
  ASSERT_NE(dag.version(), v0);

  ASSERT_TRUE(dag.RewindTo(v0).ok());
  ExpectIdentical(dag, snapshot);
}

TEST(DagRewind, RetryAfterRewindMatchesNeverRewoundRun) {
  // Apply the same mutation sequence to a rewound DAG and to a pristine
  // copy: node ids, versions, and journals must match exactly.
  DagView dag = RandomDag(10, 0.25, 11);
  DagView pristine = dag;
  const uint64_t v0 = dag.version();

  auto mutate = [](DagView* d) {
    NodeId n1 = d->GetOrAddNode("m", {Value::Int(1)});
    NodeId n2 = d->GetOrAddNode("m", {Value::Int(2)});
    d->AddEdge(d->root(), n1);
    d->AddEdge(n1, n2);
  };
  mutate(&dag);  // first attempt, will be "faulted" and rewound
  ASSERT_TRUE(dag.RewindTo(v0).ok());
  mutate(&dag);       // the retry
  mutate(&pristine);  // the never-faulted reference
  ExpectIdentical(dag, pristine);
}

TEST(DagRewind, FuzzRandomMutationWindows) {
  Rng rng(123);
  for (int round = 0; round < 30; ++round) {
    DagView dag = RandomDag(8 + rng.Below(12), 0.3, 1000 + round);
    DagView snapshot = dag;
    const uint64_t v0 = dag.version();
    // Random mutation burst: adds, ordered removals, tombstones.
    for (int i = 0; i < 15; ++i) {
      switch (rng.Below(4)) {
        case 0:
          dag.GetOrAddNode("z", {Value::Int(rng.Range(0, 30))});
          break;
        case 1: {
          NodeId u = static_cast<NodeId>(rng.Below(dag.capacity()));
          NodeId v = static_cast<NodeId>(rng.Below(dag.capacity()));
          if (dag.alive(u) && dag.alive(v) && u != v && !dag.HasEdge(v, u)) {
            dag.AddEdge(u, v);
          }
          break;
        }
        case 2: {
          NodeId u = static_cast<NodeId>(rng.Below(dag.capacity()));
          if (dag.alive(u) && !dag.children(u).empty()) {
            dag.RemoveEdge(
                u, dag.children(u)[rng.Below(dag.children(u).size())]);
          }
          break;
        }
        case 3: {
          NodeId u = static_cast<NodeId>(rng.Below(dag.capacity()));
          if (dag.alive(u) && dag.children(u).empty() &&
              dag.parents(u).empty()) {
            dag.RemoveNode(u);
          }
          break;
        }
      }
    }
    ASSERT_TRUE(dag.RewindTo(v0).ok()) << "round " << round;
    ExpectIdentical(dag, snapshot);
  }
}

TEST(DagRewind, FutureVersionRejected) {
  DagView dag = RandomDag(5, 0.2, 3);
  Status s = dag.RewindTo(dag.version() + 1);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(DagRewind, EvictedWindowReportsUnavailable) {
  // A tiny journal capacity forces eviction; the rewind must refuse
  // rather than corrupt, and leave the DAG untouched.
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  dag.SetRoot(r);
  const uint64_t v0 = dag.version();
  for (int i = 0; i < 70000; ++i) {  // overflow kDefaultCapacity = 1<<16
    dag.GetOrAddNode("n", {Value::Int(i)});
  }
  (void)r;
  const uint64_t v_before = dag.version();
  Status s = dag.RewindTo(v0);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_EQ(dag.version(), v_before);  // untouched
}

}  // namespace
}  // namespace xvu
