// Tests for the incremental-publishing direction: raw relational updates
// propagated into the maintained view (UpdateSystem::ApplyRelationalUpdate).
// Oracle: after every propagation the view must equal σ(I') republished
// from scratch, with M and L matching recomputation.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/system.h"
#include "src/workload/registrar.h"
#include "src/workload/synthetic.h"

namespace xvu {
namespace {

Value S(const char* s) { return Value::Str(s); }

std::unique_ptr<UpdateSystem> MakeSystem() {
  auto db = MakeRegistrarDatabase();
  EXPECT_TRUE(db.ok());
  EXPECT_TRUE(LoadRegistrarSample(&*db).ok());
  auto atg = MakeRegistrarAtg(*db);
  EXPECT_TRUE(atg.ok());
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db));
  EXPECT_TRUE(sys.ok());
  return std::move(*sys);
}

void ExpectSynced(UpdateSystem& sys, const std::string& ctx) {
  auto fresh = sys.Republish();
  ASSERT_TRUE(fresh.ok()) << ctx;
  ASSERT_EQ(sys.dag().CanonicalEdges(), fresh->CanonicalEdges()) << ctx;
  auto topo = TopoOrder::Compute(sys.dag());
  ASSERT_TRUE(topo.ok()) << ctx;
  ASSERT_TRUE(sys.topo().Check(sys.dag()).ok()) << ctx;
  Reachability m = Reachability::Compute(sys.dag(), *topo);
  ASSERT_TRUE(sys.reachability() == m) << ctx;
}

RelationalUpdate Ins(const char* table, Tuple row) {
  RelationalUpdate u;
  u.ops.push_back(TableOp{TableOp::Kind::kInsert, table, std::move(row)});
  return u;
}

RelationalUpdate Del(const char* table, Tuple row) {
  RelationalUpdate u;
  u.ops.push_back(TableOp{TableOp::Kind::kDelete, table, std::move(row)});
  return u;
}

TEST(Propagate, InsertCourseAppearsAtTopLevel) {
  auto sys = MakeSystem();
  ASSERT_TRUE(sys->ApplyRelationalUpdate(
                     Ins("course", {S("CS500"), S("Compilers"), S("CS")}))
                  .ok());
  auto q = sys->Query("course[cno=\"CS500\"]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->selected.size(), 1u);
  ExpectSynced(*sys, "insert course");
}

TEST(Propagate, NonCsCourseDoesNotAppear) {
  auto sys = MakeSystem();
  ASSERT_TRUE(sys->ApplyRelationalUpdate(
                     Ins("course", {S("PH100"), S("Physics"), S("PHYS")}))
                  .ok());
  auto q = sys->Query("//course[cno=\"PH100\"]");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->selected.empty());
  ExpectSynced(*sys, "insert non-CS course");
}

TEST(Propagate, InsertPrereqCreatesEdgeUnderSharedNode) {
  auto sys = MakeSystem();
  ASSERT_TRUE(sys->ApplyRelationalUpdate(
                     Ins("prereq", {S("CS650"), S("CS240")}))
                  .ok());
  auto q = sys->Query("course[cno=\"CS650\"]/prereq/course[cno=\"CS240\"]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->selected.size(), 1u);
  ExpectSynced(*sys, "insert prereq");
}

TEST(Propagate, InsertEnrollAddsStudentEverywhereShared) {
  auto sys = MakeSystem();
  ASSERT_TRUE(sys->ApplyRelationalUpdate(
                     Ins("enroll", {S("S03"), S("CS320")}))
                  .ok());
  // The takenBy node of CS320 is shared wherever CS320 occurs; the edge
  // appears exactly once in the DAG.
  auto q = sys->Query("//course[cno=\"CS320\"]/takenBy/student[ssn=\"S03\"]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->selected.size(), 1u);
  ExpectSynced(*sys, "insert enroll");
}

TEST(Propagate, InsertIntoUnpublishedRegionIsInvisible) {
  auto sys = MakeSystem();
  // MA100 is not published (dept MATH); enrolments into it stay invisible.
  ASSERT_TRUE(sys->ApplyRelationalUpdate(
                     Ins("enroll", {S("S01"), S("MA100")}))
                  .ok());
  ExpectSynced(*sys, "insert invisible enroll");
}

TEST(Propagate, CascadedSubtreePublication) {
  auto sys = MakeSystem();
  // A new course that immediately has a prerequisite chain: inserting the
  // course tuple publishes its whole subtree against the updated base.
  RelationalUpdate u;
  u.ops.push_back(TableOp{TableOp::Kind::kInsert, "prereq",
                          {S("CS900"), S("CS650")}});
  u.ops.push_back(TableOp{TableOp::Kind::kInsert, "course",
                          {S("CS900"), S("Research"), S("CS")}});
  ASSERT_TRUE(sys->ApplyRelationalUpdate(u).ok());
  auto q = sys->Query(
      "course[cno=\"CS900\"]/prereq/course[cno=\"CS650\"]/prereq/"
      "course[cno=\"CS320\"]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->selected.size(), 1u);
  ExpectSynced(*sys, "cascaded subtree");
}

TEST(Propagate, DeleteEnrollRemovesEdgeAndCollects) {
  auto sys = MakeSystem();
  ASSERT_TRUE(sys->ApplyRelationalUpdate(
                     Del("enroll", {S("S03"), S("CS140")}))
                  .ok());
  auto q = sys->Query("//student[ssn=\"S03\"]");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->selected.empty());
  // S03's node was garbage collected (no other enrolments).
  EXPECT_EQ(sys->dag().FindNode("student", {S("S03"), S("Carol")}),
            kInvalidNode);
  ExpectSynced(*sys, "delete enroll");
}

TEST(Propagate, DeleteCourseTupleRemovesEveryOccurrence) {
  auto sys = MakeSystem();
  ASSERT_TRUE(sys->ApplyRelationalUpdate(
                     Del("course", {S("CS140"), S("Programming"), S("CS")}))
                  .ok());
  auto q = sys->Query("//course[cno=\"CS140\"]");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->selected.empty());
  ExpectSynced(*sys, "delete course tuple");
}

TEST(Propagate, DeletePrereqKeepsSharedSubtree) {
  auto sys = MakeSystem();
  ASSERT_TRUE(sys->ApplyRelationalUpdate(
                     Del("prereq", {S("CS650"), S("CS320")}))
                  .ok());
  auto under = sys->Query("course[cno=\"CS650\"]/prereq/course");
  ASSERT_TRUE(under.ok());
  EXPECT_TRUE(under->selected.empty());
  auto top = sys->Query("course[cno=\"CS320\"]");
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->selected.size(), 1u);
  ExpectSynced(*sys, "delete prereq");
}

TEST(Propagate, CyclicInsertionRejectedAndResynced) {
  auto sys = MakeSystem();
  Status st = sys->ApplyRelationalUpdate(
      Ins("prereq", {S("CS140"), S("CS650")}));
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
  // The cone guard rejects before the connect edge closes the cycle, so
  // maintenance never runs on a cyclic view.
  EXPECT_NE(st.message().find("makes the view cyclic"), std::string::npos)
      << st.ToString();
  // The offending tuple was rolled back and the view resynced.
  EXPECT_EQ(sys->database().GetTable("prereq")->FindByKey(
                {S("CS140"), S("CS650")}),
            nullptr);
  ExpectSynced(*sys, "cyclic rejected");
}

TEST(Propagate, CycleAmongFreshSubtreeNodesRejected) {
  // CS998 and CS999 (unpublished: not CS) require each other. Making
  // CS998 a prereq of CS650 publishes both, and the loop closes inside
  // the new subtree rather than through an existing node.
  auto sys = MakeSystem();
  ASSERT_TRUE(sys->ApplyRelationalUpdate(
                     Ins("course", {S("CS998"), S("Loop A"), S("MATH")}))
                  .ok());
  ASSERT_TRUE(sys->ApplyRelationalUpdate(
                     Ins("course", {S("CS999"), S("Loop B"), S("MATH")}))
                  .ok());
  ASSERT_TRUE(
      sys->ApplyRelationalUpdate(Ins("prereq", {S("CS998"), S("CS999")}))
          .ok());
  ASSERT_TRUE(
      sys->ApplyRelationalUpdate(Ins("prereq", {S("CS999"), S("CS998")}))
          .ok());
  ExpectSynced(*sys, "unpublished loop");
  Status st =
      sys->ApplyRelationalUpdate(Ins("prereq", {S("CS650"), S("CS998")}));
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
  EXPECT_NE(st.message().find("makes the view cyclic"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(sys->database().GetTable("prereq")->FindByKey(
                {S("CS650"), S("CS998")}),
            nullptr);
  ExpectSynced(*sys, "fresh-node cycle rejected");
}

TEST(Propagate, IdempotentInsertAndMissingDelete) {
  auto sys = MakeSystem();
  // Identical re-insert: no-op.
  ASSERT_TRUE(sys->ApplyRelationalUpdate(
                     Ins("student", {S("S01"), S("Alice")}))
                  .ok());
  // Conflicting payload: rejected.
  EXPECT_FALSE(sys->ApplyRelationalUpdate(
                      Ins("student", {S("S01"), S("Eve")}))
                   .ok());
  // Deleting a non-existent tuple: NotFound.
  EXPECT_FALSE(sys->ApplyRelationalUpdate(
                      Del("student", {S("S99"), S("Nobody")}))
                   .ok());
  ExpectSynced(*sys, "idempotence");
}

TEST(Propagate, RandomizedSyntheticBaseChurn) {
  SyntheticSpec spec;
  spec.num_c = 70;
  spec.payload_domain = 9;
  spec.seed = 5;
  auto db = MakeSyntheticDatabase(spec);
  ASSERT_TRUE(db.ok());
  auto atg = MakeSyntheticAtg(*db);
  ASSERT_TRUE(atg.ok());
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db));
  ASSERT_TRUE(sys.ok());
  Rng rng(17);
  int64_t fresh = 100000;
  std::vector<std::pair<int64_t, int64_t>> h_rows;
  (*sys)->database().GetTable("H")->ForEach([&](const Tuple& r) {
    h_rows.emplace_back(r[0].as_int(), r[1].as_int());
  });
  for (int i = 0; i < 25; ++i) {
    RelationalUpdate u;
    switch (rng.Below(4)) {
      case 0: {  // new recursion edge (h1 < h2 keeps it acyclic)
        int64_t p = rng.Range(1, 60);
        u.ops.push_back(TableOp{TableOp::Kind::kInsert, "H",
                                {Value::Int(p), Value::Int(++fresh)}});
        break;
      }
      case 1: {  // drop an existing recursion edge
        if (h_rows.empty()) continue;
        auto [a, b] = h_rows[rng.Below(h_rows.size())];
        u.ops.push_back(TableOp{TableOp::Kind::kDelete, "H",
                                {Value::Int(a), Value::Int(b)}});
        break;
      }
      case 2: {  // new buddy row for an existing group
        int64_t grp = rng.Range(1, 70);
        u.ops.push_back(
            TableOp{TableOp::Kind::kInsert, "G",
                    {Value::Int(++fresh), Value::Int(grp),
                     Value::Bool(rng.Chance(0.5))}});
        break;
      }
      default: {  // toggle a K row
        int64_t k = rng.Range(1, 70);
        const Tuple* existing =
            (*sys)->database().GetTable("K")->FindByKey({Value::Int(k)});
        if (existing != nullptr) {
          u.ops.push_back(TableOp{TableOp::Kind::kDelete, "K", *existing});
        } else {
          u.ops.push_back(TableOp{TableOp::Kind::kInsert, "K",
                                  {Value::Int(k),
                                   Value::Bool(rng.Chance(0.5))}});
        }
        break;
      }
    }
    Status st = (*sys)->ApplyRelationalUpdate(u);
    if (!st.ok()) {
      ASSERT_TRUE(st.IsRejected() ||
                  st.code() == StatusCode::kNotFound)
          << u.ToString() << st.ToString();
    }
    ExpectSynced(**sys, "churn op " + std::to_string(i) + ": " +
                            u.ToString());
  }
}

}  // namespace
}  // namespace xvu
