#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/core/system.h"
#include "src/workload/registrar.h"
#include "src/xpath/normal_form.h"
#include "src/xpath/parser.h"

namespace xvu {
namespace {

Value S(const char* s) { return Value::Str(s); }

std::unique_ptr<UpdateSystem> MakeSystem(
    UpdateSystem::Options options = UpdateSystem::Options()) {
  auto db = MakeRegistrarDatabase();
  EXPECT_TRUE(db.ok());
  EXPECT_TRUE(LoadRegistrarSample(&*db).ok());
  auto atg = MakeRegistrarAtg(*db);
  EXPECT_TRUE(atg.ok());
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db), options);
  EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  return std::move(*sys);
}

/// After an accepted batch: the incrementally maintained DAG must equal a
/// republication from the updated base, and M/L must match recomputation.
void ExpectConsistent(UpdateSystem& sys) {
  auto fresh = sys.Republish();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(sys.dag().CanonicalEdges(), fresh->CanonicalEdges())
      << "batched view diverged from σ(∆R(I))";
  EXPECT_TRUE(sys.topo().Check(sys.dag()).ok());
  auto topo = TopoOrder::Compute(sys.dag());
  ASSERT_TRUE(topo.ok());
  EXPECT_TRUE(sys.reachability() == Reachability::Compute(sys.dag(), *topo));
}

/// Every base table of `a` holds exactly the rows of its peer in `b`.
void ExpectSameDatabase(const Database& a, const Database& b) {
  ASSERT_EQ(a.TableNames(), b.TableNames());
  EXPECT_EQ(a.TotalRows(), b.TotalRows());
  for (const std::string& name : a.TableNames()) {
    const Table* ta = a.GetTable(name);
    const Table* tb = b.GetTable(name);
    ta->ForEach([&](const Tuple& row) {
      const Tuple* found = tb->FindByKey(tb->schema().KeyOf(row));
      ASSERT_NE(found, nullptr) << name << TupleToString(row);
      EXPECT_EQ(*found, row) << name;
    });
  }
}

Path P(const std::string& xpath) {
  auto p = ParseXPath(xpath);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

TEST(PathEvalCache, HitMissAndInvalidationAcrossVersions) {
  PathEvalCache cache;
  EvalResult r;
  r.selected = {1, 2, 3};
  EXPECT_EQ(cache.Lookup("//a", 7), nullptr);  // cold miss
  cache.Store("//a", 7, r);
  const EvalResult* hit = cache.Lookup("//a", 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->selected, r.selected);
  // Same key at a newer DAG version: the stale entry is evicted.
  EXPECT_EQ(cache.Lookup("//a", 8), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(Pipeline, NormalFormKeyIsSyntaxInsensitive) {
  // ε-steps and filter splitting normalize away: both spellings share one
  // cache slot.
  EXPECT_EQ(NormalFormKey(P("//student[ssn=\"S01\"]")),
            NormalFormKey(P(".///student[ssn=\"S01\"]")));
  EXPECT_NE(NormalFormKey(P("//student[ssn=\"S01\"]")),
            NormalFormKey(P("//student[ssn=\"S02\"]")));
}

TEST(Pipeline, EmptyBatchIsANoOp) {
  auto sys = MakeSystem();
  auto before = sys->dag().CanonicalEdges();
  EXPECT_TRUE(sys->ApplyBatch(UpdateBatch()).ok());
  EXPECT_EQ(sys->dag().CanonicalEdges(), before);
}

TEST(Pipeline, SharedPathEvaluatesOnceAndMaintainsOnce) {
  auto sys = MakeSystem();
  const size_t n = 8;
  UpdateBatch batch;
  for (size_t i = 0; i < n; ++i) {
    std::string ssn = "S9" + std::to_string(i);
    batch.Insert("student", {S(ssn.c_str()), S("Batch Student")},
                 P("course[cno=\"CS650\"]/takenBy"));
  }
  Status st = sys->ApplyBatch(batch);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const UpdateStats& us = sys->last_stats();
  EXPECT_EQ(us.batch_ops, n);
  EXPECT_EQ(us.distinct_paths, 1u);
  EXPECT_EQ(us.xpath_evaluations, 1u);
  EXPECT_EQ(us.xpath_cache_hits, n - 1);
  EXPECT_EQ(us.maintenance_passes, 1u);
  // All n students landed under CS650's takenBy.
  auto q = sys->Query("course[cno=\"CS650\"]/takenBy/student");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->selected.size(), 1u + n);  // S01 + the batch
  ExpectConsistent(*sys);
}

TEST(Pipeline, BatchedEqualsSequentialOnIndependentOps) {
  auto batched = MakeSystem();
  auto sequential = MakeSystem();

  UpdateBatch batch;
  batch.Insert("course", {S("CS100"), S("Intro")},
               P("course[cno=\"CS240\"]/prereq"));
  batch.Insert("student", {S("S07"), S("Grace Hopper")},
               P("course[cno=\"CS650\"]/takenBy"));
  batch.Delete(P("//student[ssn=\"S03\"]"));
  Status st = batched->ApplyBatch(batch);
  ASSERT_TRUE(st.ok()) << st.ToString();

  ASSERT_TRUE(sequential
                  ->ApplyInsert("course", {S("CS100"), S("Intro")},
                                P("course[cno=\"CS240\"]/prereq"))
                  .ok());
  ASSERT_TRUE(sequential
                  ->ApplyInsert("student", {S("S07"), S("Grace Hopper")},
                                P("course[cno=\"CS650\"]/takenBy"))
                  .ok());
  ASSERT_TRUE(
      sequential->ApplyDelete(P("//student[ssn=\"S03\"]")).ok());

  EXPECT_EQ(batched->dag().CanonicalEdges(),
            sequential->dag().CanonicalEdges());
  ExpectSameDatabase(batched->database(), sequential->database());
  ExpectConsistent(*batched);
}

TEST(Pipeline, MixedBatchDeletesAndInsertsAtomically) {
  auto sys = MakeSystem();
  UpdateBatch batch;
  batch.Delete(P("//student[ssn=\"S02\"]"));
  batch.Insert("student", {S("S08"), S("Ada")},
               P("course[cno=\"CS240\"]/takenBy"));
  Status st = sys->ApplyBatch(batch);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(sys->last_stats().maintenance_passes, 1u);
  auto gone = sys->Query("//student[ssn=\"S02\"]");
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->selected.empty());
  auto added = sys->Query("course[cno=\"CS240\"]/takenBy/student");
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(added->selected.size(), 1u);  // S02 replaced by S08
  ExpectConsistent(*sys);
}

TEST(Pipeline, CacheIsDeltaPatchedAcrossDagVersions) {
  auto sys = MakeSystem();
  UpdateBatch b1;
  b1.Insert("student", {S("S07"), S("Grace")},
            P("course[cno=\"CS650\"]/takenBy"));
  ASSERT_TRUE(sys->ApplyBatch(b1).ok());
  EXPECT_EQ(sys->last_stats().xpath_evaluations, 1u);

  // Same path again: b1 mutated the DAG with additions only, so the
  // cached node-set is patched forward through the ∆V journal instead of
  // being invalidated and re-evaluated.
  UpdateBatch b2;
  b2.Insert("student", {S("S08"), S("Edsger")},
            P("course[cno=\"CS650\"]/takenBy"));
  ASSERT_TRUE(sys->ApplyBatch(b2).ok());
  EXPECT_EQ(sys->last_stats().xpath_evaluations, 0u);
  EXPECT_EQ(sys->last_stats().delta_patches, 1u);
  EXPECT_EQ(sys->last_stats().xpath_cache_hits, 0u);
  EXPECT_GE(sys->eval_cache().stats().delta_patches, 1u);
  ExpectConsistent(*sys);

  // A rejected batch leaves the DAG untouched; resubmitting reuses its
  // cached evaluation as an exact hit.
  UpdateBatch rejected;
  rejected.Delete(P("//student[ssn=\"NOPE\"]"));
  EXPECT_FALSE(sys->ApplyBatch(rejected).ok());
  EXPECT_EQ(sys->last_stats().xpath_evaluations, 1u);
  EXPECT_FALSE(sys->ApplyBatch(rejected).ok());
  EXPECT_EQ(sys->last_stats().xpath_evaluations, 0u);
  EXPECT_EQ(sys->last_stats().xpath_cache_hits, 1u);
}

TEST(Pipeline, DeletionWindowsAreDeltaPatched) {
  auto sys = MakeSystem();
  UpdateBatch b1;
  b1.Insert("student", {S("S07"), S("Grace")},
            P("course[cno=\"CS650\"]/takenBy"));
  ASSERT_TRUE(sys->ApplyBatch(b1).ok());

  // A deletion makes the journal window non-monotone; the general
  // patcher subtracts the exact cone instead of re-evaluating, so the
  // cached entry for the insert path survives the window.
  UpdateBatch b2;
  b2.Delete(P("//student[ssn=\"S03\"]"));
  ASSERT_TRUE(sys->ApplyBatch(b2).ok());

  UpdateBatch b3;
  b3.Insert("student", {S("S09"), S("Barbara")},
            P("course[cno=\"CS650\"]/takenBy"));
  ASSERT_TRUE(sys->ApplyBatch(b3).ok());
  EXPECT_EQ(sys->last_stats().xpath_evaluations, 0u);
  EXPECT_EQ(sys->last_stats().delta_patches, 1u);
  EXPECT_EQ(sys->last_stats().fallback_evals, 0u);
  ExpectConsistent(*sys);
}

TEST(Pipeline, SnapshotVersionTracksTheReadEpochInvariant) {
  // UpdateStats::snapshot_version is the pre-write dag version the batch
  // evaluated against. After a committed write the maintenance cursor,
  // the dag version, and the published read epoch all coincide — and sit
  // strictly past the recorded snapshot_version.
  auto sys = MakeSystem();
  for (int i = 0; i < 3; ++i) {
    const uint64_t pre = sys->dag().version();
    UpdateBatch batch;
    batch.Insert("student", {S(("S8" + std::to_string(i)).c_str()), S("V")},
                 P("course[cno=\"CS650\"]/takenBy"));
    if (i > 0) batch.Delete(P("//student[ssn=\"S8" + std::to_string(i - 1) +
                              "\"]"));
    ASSERT_TRUE(sys->ApplyBatch(batch).ok());

    EXPECT_EQ(sys->last_stats().snapshot_version, pre);
    EXPECT_EQ(sys->maintenance_engine().maintained_version(),
              sys->dag().version());
    EXPECT_EQ(sys->read_epoch(), sys->dag().version());
    EXPECT_GT(sys->dag().version(), sys->last_stats().snapshot_version);
  }

  // The per-op entry points record the same invariant.
  const uint64_t pre_op = sys->dag().version();
  ASSERT_TRUE(sys->ApplyInsert("student", {S("S99"), S("Op")},
                               P("course[cno=\"CS240\"]/takenBy"))
                  .ok());
  EXPECT_EQ(sys->last_stats().snapshot_version, pre_op);
  EXPECT_EQ(sys->read_epoch(), sys->dag().version());
  EXPECT_GT(sys->read_epoch(), pre_op);

  // A rejected batch rewinds: version, cursor and epoch all return to
  // the recorded snapshot_version.
  const uint64_t pre_bad = sys->dag().version();
  UpdateBatch bad;
  bad.Delete(P("//student[ssn=\"S99\"]"));
  bad.Delete(P("//student[ssn=\"S99\"]"));
  ASSERT_FALSE(sys->ApplyBatch(bad).ok());
  EXPECT_EQ(sys->last_stats().snapshot_version, pre_bad);
  EXPECT_EQ(sys->dag().version(), pre_bad);
  EXPECT_EQ(sys->read_epoch(), pre_bad);
  EXPECT_EQ(sys->maintenance_engine().maintained_version(), pre_bad);
}

TEST(Pipeline, RejectsDoubleDeleteOfSameEdge) {
  auto sys = MakeSystem();
  auto before = sys->dag().CanonicalEdges();
  size_t rows_before = sys->database().TotalRows();
  UpdateBatch batch;
  batch.Delete(P("//student[ssn=\"S02\"]"));
  batch.Delete(P("//student[ssn=\"S02\"]"));
  Status st = sys->ApplyBatch(batch);
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
  EXPECT_EQ(sys->dag().CanonicalEdges(), before);
  EXPECT_EQ(sys->database().TotalRows(), rows_before);
}

TEST(Pipeline, RejectsInsertIntoDeletedSubtree) {
  auto sys = MakeSystem();
  auto before = sys->dag().CanonicalEdges();
  UpdateBatch batch;
  batch.Delete(P("course[cno=\"CS650\"]/prereq/course[cno=\"CS320\"]"));
  batch.Insert("student", {S("S07"), S("Grace")},
               P("//course[cno=\"CS320\"]/takenBy"));
  Status st = sys->ApplyBatch(batch);
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
  EXPECT_EQ(sys->dag().CanonicalEdges(), before);
}

TEST(Pipeline, RejectsDeleteInsideDeletedSubtree) {
  auto sys = MakeSystem();
  auto before = sys->dag().CanonicalEdges();
  UpdateBatch batch;
  batch.Delete(P("course[cno=\"CS650\"]/prereq/course[cno=\"CS320\"]"));
  batch.Delete(P("course[cno=\"CS650\"]/prereq/course[cno=\"CS320\"]"
                 "/prereq/course[cno=\"CS140\"]"));
  Status st = sys->ApplyBatch(batch);
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
  EXPECT_EQ(sys->dag().CanonicalEdges(), before);
}

TEST(Pipeline, RejectsDuplicateInsertRows) {
  auto sys = MakeSystem();
  auto before = sys->dag().CanonicalEdges();
  size_t rows_before = sys->database().TotalRows();
  UpdateBatch batch;
  batch.Insert("student", {S("S07"), S("Grace")},
               P("course[cno=\"CS650\"]/takenBy"));
  batch.Insert("student", {S("S07"), S("Grace")},
               P("course[cno=\"CS650\"]/takenBy"));
  Status st = sys->ApplyBatch(batch);
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
  EXPECT_EQ(sys->dag().CanonicalEdges(), before);
  EXPECT_EQ(sys->database().TotalRows(), rows_before);
}

TEST(Pipeline, OneBadOpRejectsTheWholeBatch) {
  auto sys = MakeSystem();
  auto before = sys->dag().CanonicalEdges();
  size_t rows_before = sys->database().TotalRows();
  UpdateBatch batch;
  batch.Insert("student", {S("S07"), S("Grace")},
               P("course[cno=\"CS650\"]/takenBy"));
  batch.Delete(P("//student[ssn=\"NOPE\"]"));  // selects nothing
  Status st = sys->ApplyBatch(batch);
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
  EXPECT_EQ(sys->dag().CanonicalEdges(), before);
  EXPECT_EQ(sys->database().TotalRows(), rows_before);
}

TEST(Pipeline, SubtreeCyclicAmongFreshNodesRollsBackBitIdentically) {
  // Two unpublished MATH courses require each other. Inserting one under
  // CS650's prereq publishes a subtree whose fresh nodes close a loop;
  // the op is rejected and the whole write undone.
  auto db = MakeRegistrarDatabase();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(LoadRegistrarSample(&*db).ok());
  Table* course = db->GetTable("course");
  Table* prereq = db->GetTable("prereq");
  ASSERT_TRUE(course->Insert({S("CS998"), S("Loop A"), S("MATH")}).ok());
  ASSERT_TRUE(course->Insert({S("CS999"), S("Loop B"), S("MATH")}).ok());
  ASSERT_TRUE(prereq->Insert({S("CS998"), S("CS999")}).ok());
  ASSERT_TRUE(prereq->Insert({S("CS999"), S("CS998")}).ok());
  auto atg = MakeRegistrarAtg(*db);
  ASSERT_TRUE(atg.ok());
  auto created = UpdateSystem::Create(std::move(*atg), std::move(*db));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  UpdateSystem& sys = **created;
  ASSERT_TRUE(sys.Query("//course[cno=\"CS998\"]")->selected.empty());

  const std::string before = sys.DebugFingerprint();
  UpdateBatch batch;
  batch.Insert("course", {S("CS998"), S("Loop A")},
               P("course[cno=\"CS650\"]/prereq"));
  Status st = sys.ApplyBatch(batch);
  ASSERT_TRUE(st.IsRejected()) << st.ToString();
  // Caught by the subtree publication itself, not the later cone guard.
  EXPECT_NE(st.message().find("subtree of"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("makes the view cyclic"), std::string::npos)
      << st.ToString();
  // The rejected op's evaluation stays cached (valid at the restored
  // version); everything before the cache section is bit-identical.
  const std::string after = sys.DebugFingerprint();
  EXPECT_EQ(after.substr(0, after.rfind("[cache]")),
            before.substr(0, before.rfind("[cache]")));
  ExpectConsistent(sys);
}

TEST(Pipeline, TextualStatementsViaAdd) {
  auto sys = MakeSystem();
  UpdateBatch batch;
  ASSERT_TRUE(batch
                  .Add("insert student(S07, \"Grace Hopper\") into "
                       "course[cno=\"CS650\"]/takenBy",
                       sys->atg())
                  .ok());
  ASSERT_TRUE(batch.Add("delete //student[ssn=\"S03\"]", sys->atg()).ok());
  Status st = sys->ApplyBatch(batch);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectConsistent(*sys);
}

TEST(Pipeline, SingleOpsOnDistinctPathsKeepTheCacheBounded) {
  // Single ops run as a batch of one, so each stores its path's traced
  // evaluation in the shared cache. Every write compacts the cache to its
  // bound before its own store, so 64 distinct paths never leave more
  // than kDefaultMaxEntries + 1 entries behind.
  auto sys = MakeSystem();
  for (int i = 0; i < 64; ++i) {
    const std::string ssn = "N" + std::to_string(100 + i);
    const std::string path =
        "//course[cno=\"CS650\"]/takenBy[not(student[ssn=\"" + ssn + "\"])]";
    Status st = sys->ApplyInsert("student", {S(ssn.c_str()), S("Bounded")},
                                 P(path));
    ASSERT_TRUE(st.ok()) << path << ": " << st.ToString();
    EXPECT_EQ(sys->last_stats().batch_ops, 1u);
    ASSERT_LE(sys->eval_cache().size(),
              PathEvalCache::kDefaultMaxEntries + 1)
        << "after op " << i;
  }
  ExpectConsistent(*sys);
}

}  // namespace
}  // namespace xvu
