#include <gtest/gtest.h>

#include <algorithm>

#include "src/atg/publisher.h"
#include "src/viewupdate/delete.h"
#include "src/viewupdate/insert.h"
#include "src/viewupdate/minimal_delete.h"
#include "src/workload/registrar.h"

namespace xvu {
namespace {

Value S(const char* s) { return Value::Str(s); }

/// Published registrar state: base + store + dag.
class ViewUpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = MakeRegistrarDatabase();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(LoadRegistrarSample(&db_).ok());
    auto atg = MakeRegistrarAtg(db_);
    ASSERT_TRUE(atg.ok());
    atg_ = std::move(*atg);
    Publisher pub(&atg_, &db_);
    auto dag = pub.PublishAll(&store_);
    ASSERT_TRUE(dag.ok()) << dag.status().ToString();
    dag_ = std::move(*dag);
  }

  NodeId Node(const std::string& type, Tuple attr) {
    NodeId n = dag_.FindNode(type, attr);
    EXPECT_NE(n, kInvalidNode);
    return n;
  }

  /// All witness rows of edge (parent, child) as deletions.
  std::vector<ViewRowOp> EdgeDeletion(const std::string& ptype,
                                      NodeId parent, const std::string& ctype,
                                      NodeId child) {
    std::vector<ViewRowOp> out;
    std::string vn = ViewStore::EdgeViewName(ptype, ctype);
    for (Tuple& r : store_.EdgeRowsFor(vn, static_cast<int64_t>(parent),
                                       static_cast<int64_t>(child))) {
      out.push_back(ViewRowOp{vn, std::move(r)});
    }
    EXPECT_FALSE(out.empty());
    return out;
  }

  Database db_;
  Atg atg_;
  ViewStore store_;
  DagView dag_;
};

TEST_F(ViewUpdateTest, DeletableSourceResolvesKeys) {
  NodeId tb320 = Node("takenBy", {S("CS320")});
  NodeId s02 = Node("student", {S("S02"), S("Bob")});
  auto dv = EdgeDeletion("takenBy", tb320, "student", s02);
  ASSERT_EQ(dv.size(), 1u);
  const EdgeViewInfo* info = store_.GetEdgeView(dv[0].view_name);
  auto sources = DeletableSource(*info, dv[0].row);
  ASSERT_EQ(sources.size(), 2u);  // enroll, student
  EXPECT_EQ(sources[0].table, "enroll");
  EXPECT_EQ(sources[0].key, (Tuple{S("S02"), S("CS320")}));
  EXPECT_EQ(sources[1].table, "student");
  EXPECT_EQ(sources[1].key, Tuple{S("S02")});
}

TEST_F(ViewUpdateTest, DeletePicksUnpinnedSource) {
  // Removing S02 from CS320's takenBy must delete the enroll tuple, not
  // the student (S02 still appears under CS240).
  NodeId tb320 = Node("takenBy", {S("CS320")});
  NodeId s02 = Node("student", {S("S02"), S("Bob")});
  auto dr = TranslateGroupDeletion(
      store_, db_, EdgeDeletion("takenBy", tb320, "student", s02));
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  ASSERT_EQ(dr->ops.size(), 1u);
  EXPECT_EQ(dr->ops[0].table, "enroll");
  EXPECT_EQ(dr->ops[0].kind, TableOp::Kind::kDelete);
  EXPECT_EQ(dr->ops[0].row, (Tuple{S("S02"), S("CS320")}));
}

TEST_F(ViewUpdateTest, DeletePrereqEdge) {
  NodeId p650 = Node("prereq", {S("CS650")});
  NodeId c320 = Node("course", {S("CS320"), S("Database Systems")});
  auto dr = TranslateGroupDeletion(
      store_, db_, EdgeDeletion("prereq", p650, "course", c320));
  ASSERT_TRUE(dr.ok());
  ASSERT_EQ(dr->ops.size(), 1u);
  EXPECT_EQ(dr->ops[0].table, "prereq");
  EXPECT_EQ(dr->ops[0].row, (Tuple{S("CS650"), S("CS320")}));
}

TEST_F(ViewUpdateTest, DeleteRejectedWhenAllSourcesPinned) {
  // Removing CS320 from the top level: the only source is course(CS320),
  // pinned by the prereq edge under CS650.
  NodeId root = dag_.root();
  NodeId c320 = Node("course", {S("CS320"), S("Database Systems")});
  auto dr = TranslateGroupDeletion(
      store_, db_, EdgeDeletion("db", root, "course", c320));
  ASSERT_FALSE(dr.ok());
  EXPECT_TRUE(dr.status().IsRejected());
}

TEST_F(ViewUpdateTest, GroupDeletionSharesSources) {
  // Deleting both takenBy edges of S02 in one group: deleting the student
  // tuple once covers both (the paper's group semantics); Algorithm delete
  // may also pick the two enroll tuples — either way every ∆V row is
  // covered and no remaining row is disturbed.
  NodeId s02 = Node("student", {S("S02"), S("Bob")});
  std::vector<ViewRowOp> dv;
  for (const char* cno : {"CS320", "CS240"}) {
    NodeId tb = Node("takenBy", {S(cno)});
    auto rows = EdgeDeletion("takenBy", tb, "student", s02);
    dv.insert(dv.end(), rows.begin(), rows.end());
  }
  auto dr = TranslateGroupDeletion(store_, db_, dv);
  ASSERT_TRUE(dr.ok());
  EXPECT_LE(dr->ops.size(), 2u);
  EXPECT_GE(dr->ops.size(), 1u);
}

TEST_F(ViewUpdateTest, MinimalDeletionFindsSmallestDr) {
  NodeId s02 = Node("student", {S("S02"), S("Bob")});
  std::vector<ViewRowOp> dv;
  for (const char* cno : {"CS320", "CS240"}) {
    NodeId tb = Node("takenBy", {S(cno)});
    auto rows = EdgeDeletion("takenBy", tb, "student", s02);
    dv.insert(dv.end(), rows.begin(), rows.end());
  }
  auto dr = TranslateMinimalDeletion(store_, db_, dv);
  ASSERT_TRUE(dr.ok());
  // One deletion suffices: the student tuple sources both rows.
  ASSERT_EQ(dr->ops.size(), 1u);
  EXPECT_EQ(dr->ops[0].table, "student");
}

TEST_F(ViewUpdateTest, MinimalDeletionGreedyPath) {
  // Force the greedy branch with exact_threshold = 0; the result must
  // still cover all rows.
  NodeId s02 = Node("student", {S("S02"), S("Bob")});
  std::vector<ViewRowOp> dv;
  for (const char* cno : {"CS320", "CS240"}) {
    NodeId tb = Node("takenBy", {S(cno)});
    auto rows = EdgeDeletion("takenBy", tb, "student", s02);
    dv.insert(dv.end(), rows.begin(), rows.end());
  }
  MinimalDeleteOptions opts;
  opts.exact_threshold = 0;
  auto dr = TranslateMinimalDeletion(store_, db_, dv, opts);
  ASSERT_TRUE(dr.ok());
  EXPECT_EQ(dr->ops.size(), 1u);  // greedy also finds the shared student
}

TEST_F(ViewUpdateTest, InsertExistingCourseAsPrereq) {
  // Example 1: CS240 becomes a prerequisite of CS320. Only the prereq
  // tuple is new.
  NodeId p320 = Node("prereq", {S("CS320")});
  const EdgeViewInfo* info = store_.GetEdgeView("edge_prereq_course");
  ASSERT_NE(info, nullptr);
  // Extended row: (parent, child, cno, title, p.cno1, p.cno2).
  ViewRowOp op;
  op.view_name = info->name;
  op.row = ViewStore::MakeEdgeRow(
      static_cast<int64_t>(p320), -1,
      {S("CS240"), S("Data Structures"), S("CS320"), S("CS240")});
  InsertTranslation tr;
  Status st = TranslateGroupInsertion(store_, db_, {op}, &tr);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(tr.delta_r.ops.size(), 1u);
  EXPECT_EQ(tr.delta_r.ops[0].table, "prereq");
  EXPECT_EQ(tr.delta_r.ops[0].row, (Tuple{S("CS320"), S("CS240")}));
  EXPECT_FALSE(tr.used_sat);  // no finite-domain freedom here
}

TEST_F(ViewUpdateTest, InsertConflictingPayloadRejected) {
  // CS240 exists with title "Data Structures"; requiring another title
  // contradicts the base data.
  NodeId p320 = Node("prereq", {S("CS320")});
  ViewRowOp op;
  op.view_name = "edge_prereq_course";
  op.row = ViewStore::MakeEdgeRow(
      static_cast<int64_t>(p320), -1,
      {S("CS240"), S("Wrong Title"), S("CS320"), S("CS240")});
  InsertTranslation tr;
  Status st = TranslateGroupInsertion(store_, db_, {op}, &tr);
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
}

TEST_F(ViewUpdateTest, InsertNewCourseGetsFreshDept) {
  // A brand new course as a prerequisite: its dept column is a free
  // infinite-domain variable; the fresh-value policy keeps it out of the
  // CS top level (otherwise the db -> course edge view would gain an
  // unrequested row).
  NodeId p650 = Node("prereq", {S("CS650")});
  ViewRowOp op;
  op.view_name = "edge_prereq_course";
  op.row = ViewStore::MakeEdgeRow(
      static_cast<int64_t>(p650), -1,
      {S("CS500"), S("New Course"), S("CS650"), S("CS500")});
  InsertTranslation tr;
  Status st = TranslateGroupInsertion(store_, db_, {op}, &tr);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(tr.delta_r.ops.size(), 2u);
  const TableOp* course_op = nullptr;
  for (const TableOp& o : tr.delta_r.ops) {
    if (o.table == "course") course_op = &o;
  }
  ASSERT_NE(course_op, nullptr);
  EXPECT_EQ(course_op->row[0], S("CS500"));
  EXPECT_NE(course_op->row[2], S("CS"));  // fresh dept avoids a side effect
}

TEST_F(ViewUpdateTest, InsertAlreadyPresentEdgeIsNoOp) {
  NodeId p650 = Node("prereq", {S("CS650")});
  NodeId c320 = Node("course", {S("CS320"), S("Database Systems")});
  auto rows = store_.EdgeRowsFor("edge_prereq_course",
                                 static_cast<int64_t>(p650),
                                 static_cast<int64_t>(c320));
  ASSERT_EQ(rows.size(), 1u);
  InsertTranslation tr;
  Status st = TranslateGroupInsertion(
      store_, db_, {ViewRowOp{"edge_prereq_course", rows[0]}}, &tr);
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(tr.delta_r.empty());
}

TEST_F(ViewUpdateTest, GroupInsertionMergesSharedTemplates) {
  // Insert CS240 under both CS650's and CS320's prereq in one group: the
  // course template is shared, two prereq tuples are created.
  std::vector<ViewRowOp> dv;
  for (const char* parent : {"CS650", "CS320"}) {
    NodeId p = Node("prereq", {S(parent)});
    ViewRowOp op;
    op.view_name = "edge_prereq_course";
    op.row = ViewStore::MakeEdgeRow(
        static_cast<int64_t>(p), -1,
        {S("CS240"), S("Data Structures"), S(parent), S("CS240")});
    dv.push_back(std::move(op));
  }
  InsertTranslation tr;
  Status st = TranslateGroupInsertion(store_, db_, dv, &tr);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(tr.delta_r.ops.size(), 2u);
  for (const TableOp& o : tr.delta_r.ops) EXPECT_EQ(o.table, "prereq");
}

}  // namespace
}  // namespace xvu
