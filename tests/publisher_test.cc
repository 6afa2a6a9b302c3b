#include <gtest/gtest.h>

#include <algorithm>

#include "src/atg/publisher.h"
#include "src/common/rng.h"
#include "src/dag/topo_order.h"
#include "src/workload/registrar.h"
#include "src/workload/synthetic.h"

namespace xvu {
namespace {

class PublisherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = MakeRegistrarDatabase();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(LoadRegistrarSample(&db_).ok());
    auto atg = MakeRegistrarAtg(db_);
    ASSERT_TRUE(atg.ok()) << atg.status().ToString();
    atg_ = std::move(*atg);
  }
  Database db_;
  Atg atg_;
};

TEST_F(PublisherTest, AtgValidates) {
  EXPECT_TRUE(atg_.Validate(db_).ok());
  EXPECT_TRUE(atg_.dtd().IsRecursive());
}

TEST_F(PublisherTest, PublishesRegistrarView) {
  Publisher pub(&atg_, &db_);
  auto dag = pub.PublishAll(nullptr);
  ASSERT_TRUE(dag.ok()) << dag.status().ToString();
  // 4 CS courses at top level; MA100 filtered out by dept = 'CS'.
  EXPECT_EQ(dag->children(dag->root()).size(), 4u);
  // Every course node exists exactly once (gen_id sharing).
  EXPECT_NE(dag->FindNode("course",
                          {Value::Str("CS320"),
                           Value::Str("Database Systems")}),
            kInvalidNode);
  // MA100 is not published anywhere.
  EXPECT_EQ(dag->FindNode("course",
                          {Value::Str("MA100"), Value::Str("Calculus")}),
            kInvalidNode);
}

TEST_F(PublisherTest, SubtreeSharingCompresses) {
  Publisher pub(&atg_, &db_);
  auto dag = pub.PublishAll(nullptr);
  ASSERT_TRUE(dag.ok());
  // CS140 hangs under prereq of CS320 and of CS240 and at top level:
  // one DAG node, three parents.
  NodeId cs140 = dag->FindNode(
      "course", {Value::Str("CS140"), Value::Str("Programming")});
  ASSERT_NE(cs140, kInvalidNode);
  EXPECT_EQ(dag->parents(cs140).size(), 3u);
  // The DAG is smaller than its tree expansion.
  EXPECT_GT(dag->UncompressedTreeSize(), dag->num_nodes());
}

TEST_F(PublisherTest, XmlRenderingContainsRecursiveHierarchy) {
  Publisher pub(&atg_, &db_);
  auto dag = pub.PublishAll(nullptr);
  ASSERT_TRUE(dag.ok());
  std::string xml = dag->ToXml();
  EXPECT_NE(xml.find("<cno>CS650</cno>"), std::string::npos);
  EXPECT_NE(xml.find("<prereq>"), std::string::npos);
  EXPECT_NE(xml.find("<name>Bob</name>"), std::string::npos);
}

TEST_F(PublisherTest, StoresRelationalCoding) {
  Publisher pub(&atg_, &db_);
  ViewStore store;
  auto dag = pub.PublishAll(&store);
  ASSERT_TRUE(dag.ok());
  // Edge views: db->course, prereq->course, takenBy->student.
  EXPECT_EQ(store.EdgeViewNames().size(), 3u);
  const Table* e = store.db().GetTable("edge_prereq_course");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->size(), 3u);  // three prereq pairs
  // gen tables: one row per DAG node of the type.
  const Table* g = store.db().GetTable("gen_course");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->size(), 4u);
  // Witness rows carry the extended keys.
  const EdgeViewInfo* info = store.GetEdgeView("edge_prereq_course");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->attr_arity, 2u);
  EXPECT_EQ(info->key_positions.size(), 2u);  // prereq + course occurrences
  EXPECT_TRUE(info->rule.IsKeyPreserving(db_));
}

TEST_F(PublisherTest, EdgeCountsMatchStore) {
  Publisher pub(&atg_, &db_);
  ViewStore store;
  auto dag = pub.PublishAll(&store);
  ASSERT_TRUE(dag.ok());
  // Every DAG edge between star-production types has at least one witness
  // row; sequence edges are not materialized as views.
  size_t star_edges = 0;
  dag->ForEachEdge([&](NodeId u, NodeId v) {
    const std::string& pt = dag->node(u).type;
    if (pt == "db" || pt == "prereq" || pt == "takenBy") {
      ++star_edges;
      EXPECT_FALSE(store
                       .EdgeRowsFor(ViewStore::EdgeViewName(
                                        pt, dag->node(v).type),
                                    static_cast<int64_t>(u),
                                    static_cast<int64_t>(v))
                       .empty());
    }
  });
  EXPECT_EQ(star_edges, store.TotalEdgeRows());
}

TEST_F(PublisherTest, CyclicSourceDataRejected) {
  // CS140 requires CS650: the prereq hierarchy becomes cyclic.
  ASSERT_TRUE(db_.GetTable("prereq")
                  ->Insert({Value::Str("CS140"), Value::Str("CS650")})
                  .ok());
  Publisher pub(&atg_, &db_);
  auto dag = pub.PublishAll(nullptr);
  EXPECT_FALSE(dag.ok());
  EXPECT_TRUE(dag.status().IsRejected());
}

TEST_F(PublisherTest, PublishSubtreeSharesExistingNodes) {
  Publisher pub(&atg_, &db_);
  auto dag = pub.PublishAll(nullptr);
  ASSERT_TRUE(dag.ok());
  size_t nodes_before = dag->num_nodes();
  // Publishing an already-present subtree is a no-op.
  auto sub = pub.PublishSubtree(
      "course", {Value::Str("CS320"), Value::Str("Database Systems")},
      &*dag, nullptr);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->new_nodes.empty());
  EXPECT_TRUE(sub->new_edges.empty());
  EXPECT_EQ(dag->num_nodes(), nodes_before);
}

TEST_F(PublisherTest, PublishSubtreeCreatesNewCourse) {
  // Add a course to the base, then publish its subtree incrementally.
  ASSERT_TRUE(
      db_.GetTable("course")
          ->Insert({Value::Str("CS999"), Value::Str("Capstone"),
                    Value::Str("CS")})
          .ok());
  ASSERT_TRUE(db_.GetTable("prereq")
                  ->Insert({Value::Str("CS999"), Value::Str("CS650")})
                  .ok());
  Publisher pub(&atg_, &db_);
  auto dag = pub.PublishAll(nullptr);
  ASSERT_TRUE(dag.ok());
  // PublishAll already includes CS999 (it reads the current db); to test
  // incremental creation, rebuild a view from a fresh database published
  // *before* the insert.
  auto db2 = MakeRegistrarDatabase();
  ASSERT_TRUE(db2.ok());
  ASSERT_TRUE(LoadRegistrarSample(&*db2).ok());
  Publisher pub2(&atg_, &*db2);
  auto dag2 = pub2.PublishAll(nullptr);
  ASSERT_TRUE(dag2.ok());
  // Now extend the base and publish just the new subtree.
  ASSERT_TRUE(
      db2->GetTable("course")
          ->Insert({Value::Str("CS999"), Value::Str("Capstone"),
                    Value::Str("CS")})
          .ok());
  ASSERT_TRUE(db2->GetTable("prereq")
                  ->Insert({Value::Str("CS999"), Value::Str("CS650")})
                  .ok());
  auto sub = pub2.PublishSubtree(
      "course", {Value::Str("CS999"), Value::Str("Capstone")}, &*dag2,
      nullptr);
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  EXPECT_FALSE(sub->cyclic);
  EXPECT_FALSE(sub->new_nodes.empty());
  // The new course's prereq child links to the *shared* CS650 node.
  NodeId cs650 = dag2->FindNode(
      "course", {Value::Str("CS650"), Value::Str("Advanced Databases")});
  ASSERT_NE(cs650, kInvalidNode);
  NodeId prereq999 = dag2->FindNode("prereq", {Value::Str("CS999")});
  ASSERT_NE(prereq999, kInvalidNode);
  EXPECT_TRUE(dag2->HasEdge(prereq999, cs650));
}

TEST_F(PublisherTest, PublishSubtreeDetectsCycleAmongFreshNodes) {
  // Publish first, then add two courses that require each other: neither
  // is in the view yet, so the cycle closes among the subtree's own fresh
  // nodes (CS998 -> prereq -> CS999 -> prereq -> CS998).
  Publisher pub(&atg_, &db_);
  auto dag = pub.PublishAll(nullptr);
  ASSERT_TRUE(dag.ok());
  Table* course = db_.GetTable("course");
  Table* prereq = db_.GetTable("prereq");
  ASSERT_TRUE(
      course->Insert({Value::Str("CS998"), Value::Str("Loop A"),
                      Value::Str("CS")})
          .ok());
  ASSERT_TRUE(
      course->Insert({Value::Str("CS999"), Value::Str("Loop B"),
                      Value::Str("CS")})
          .ok());
  ASSERT_TRUE(prereq->Insert({Value::Str("CS998"), Value::Str("CS999")}).ok());
  ASSERT_TRUE(prereq->Insert({Value::Str("CS999"), Value::Str("CS998")}).ok());
  auto sub = pub.PublishSubtree(
      "course", {Value::Str("CS998"), Value::Str("Loop A")}, &*dag, nullptr);
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  EXPECT_TRUE(sub->cyclic);
  EXPECT_FALSE(TopoOrder::Compute(*dag).ok());
  // The delta names the looping nodes, so the caller can undo them.
  NodeId cs999 =
      dag->FindNode("course", {Value::Str("CS999"), Value::Str("Loop B")});
  ASSERT_NE(cs999, kInvalidNode);
  EXPECT_NE(std::find(sub->new_nodes.begin(), sub->new_nodes.end(), cs999),
            sub->new_nodes.end());
  EXPECT_EQ(sub->new_nodes.front(), sub->root);
}

/// A synthetic C row (or F/CU row: same 16-column shape) with the given
/// key, filter bools and payload.
Tuple WideRow(int64_t id, bool b, int64_t payload) {
  Tuple row{Value::Int(id), Value::Bool(b), Value::Bool(b), Value::Bool(b),
            Value::Int(payload)};
  for (int i = 6; i <= 16; ++i) row.push_back(Value::Int(i));
  return row;
}

TEST(PublisherCycleFuzz, FreshNodeCheckMatchesWholeDagCheck) {
  // Synthetic recursive data: after the view is published, fresh C ids
  // get a random H hierarchy among themselves (all reachable from the
  // first), edges into the published ids, and sometimes a back edge
  // (possibly a self loop) that makes the subtree cyclic. The subtree's
  // verdict must equal a whole-DAG topological sort's.
  size_t cyclic = 0, acyclic = 0;
  for (uint64_t trial = 0; trial < 60; ++trial) {
    SyntheticSpec spec;
    spec.num_c = 40;
    spec.seed = 100 + trial;
    auto db = MakeSyntheticDatabase(spec);
    ASSERT_TRUE(db.ok());
    auto atg = MakeSyntheticAtg(*db);
    ASSERT_TRUE(atg.ok());
    Publisher pub(&*atg, &*db);
    auto dag = pub.PublishAll(nullptr);
    ASSERT_TRUE(dag.ok()) << dag.status().ToString();

    Rng rng(trial);
    const int64_t first = 1000;
    const int64_t k = 2 + static_cast<int64_t>(rng.Below(8));
    auto insert = [&](const char* table, Tuple row) {
      ASSERT_TRUE(db->GetTable(table)->Insert(std::move(row)).ok());
    };
    for (int64_t id = first; id < first + k; ++id) {
      insert("C", WideRow(id, true, id % spec.payload_domain));
      insert("F", WideRow(id, true, id % spec.payload_domain));
      insert("CU", WideRow(id, false, id % spec.payload_domain));
      if (id > first) {
        insert("H", {Value::Int(rng.Range(first, id - 1)), Value::Int(id)});
      }
      if (rng.Chance(0.5)) {
        (void)db->GetTable("H")->InsertIfAbsent(
            {Value::Int(id), Value::Int(rng.Range(2, 40))});
      }
    }
    if (rng.Chance(0.5)) {
      int64_t from = rng.Range(first, first + k - 1);
      int64_t to = rng.Range(first, from);
      (void)db->GetTable("H")->InsertIfAbsent(
          {Value::Int(from), Value::Int(to)});
    }

    auto sub = pub.PublishSubtree(
        "C", {Value::Int(first), Value::Int(first % spec.payload_domain)},
        &*dag, nullptr);
    ASSERT_TRUE(sub.ok()) << sub.status().ToString();
    ASSERT_FALSE(sub->new_nodes.empty());
    const bool globally_cyclic = !TopoOrder::Compute(*dag).ok();
    ASSERT_EQ(sub->cyclic, globally_cyclic) << "trial " << trial;
    ++(globally_cyclic ? cyclic : acyclic);
  }
  EXPECT_GT(cyclic, 5u);
  EXPECT_GT(acyclic, 5u);
}

TEST_F(PublisherTest, SubtreePropertyHolds) {
  // The subtree under a node is a function of (type, $A): republishing
  // must yield the same canonical edges.
  Publisher pub(&atg_, &db_);
  auto d1 = pub.PublishAll(nullptr);
  auto d2 = pub.PublishAll(nullptr);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d1->CanonicalEdges(), d2->CanonicalEdges());
}

}  // namespace
}  // namespace xvu
