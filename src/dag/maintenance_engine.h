#ifndef XVU_DAG_MAINTENANCE_ENGINE_H_
#define XVU_DAG_MAINTENANCE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/dag/dag_view.h"
#include "src/dag/journal.h"
#include "src/dag/maintenance.h"
#include "src/dag/reachability.h"
#include "src/dag/topo_order.h"

namespace xvu {

/// How a batch's auxiliary-structure maintenance is performed.
enum class MaintenanceStrategy {
  /// Pick per batch by the cost model on |journal| vs |V|.
  kAuto,
  /// Replay the ∆V journal through a generalized multi-op ∆(M,L) merge
  /// (Fig.7/8 steps consolidated over the whole batch), emitting true
  /// m_inserted/m_deleted deltas.
  kIncrementalMerge,
  /// Garbage-collect + rebuild L (Kahn) and M (Algorithm Reach) wholesale.
  kFullRebuild,
};

const char* MaintenanceStrategyName(MaintenanceStrategy s);

/// Owner of the auxiliary structures M (reachability) and L (topological
/// order) of Section 3.1, and of the strategy that keeps them in sync with
/// the DAG after updates.
///
/// The engine tracks the DAG version its structures are valid for
/// (`maintained_version`). A batch's mutations land in the DagView's ∆V
/// journal; MaintainBatch then either replays `JournalSince(
/// maintained_version)` incrementally or rebuilds wholesale, per strategy.
/// Each replay is driven purely by its journal window, so it is a
/// self-contained unit of work; today it always runs synchronously in the
/// update pipeline, and after a committed write the cursor, the DAG
/// version, and the published MVCC read epoch (UpdateSystem::read_epoch,
/// docs/architecture.md §MVCC snapshots) all coincide — snapshot states
/// copy M and L at acquisition, relying on exactly that invariant.
/// Executing the replay on a background worker behind the cursor is
/// designed but not implemented — ROADMAP "Async maintenance service"
/// tracks it; the cursor would then trail the epoch instead of equaling
/// it.
class MaintenanceEngine {
 public:
  struct BatchOptions {
    MaintenanceStrategy strategy = MaintenanceStrategy::kAuto;
  };

  struct BatchReport {
    MaintenanceStrategy used = MaintenanceStrategy::kFullRebuild;
    size_t journal_entries_replayed = 0;
    MaintenanceDelta delta;
  };

  /// Recomputes L and M from scratch and syncs the journal cursor.
  Status Rebuild(const DagView& dag);

  const TopoOrder& topo() const { return topo_; }
  const Reachability& reach() const { return reach_; }
  /// DAG version the structures are currently valid for.
  uint64_t maintained_version() const { return maintained_version_; }

  /// Batch maintenance: garbage-collects unreachable nodes and brings M
  /// and L to dag->version(), choosing the strategy per `options`. Both
  /// strategies produce identical M, L (bit-identical: the incremental
  /// path re-derives L with the same Kahn pass over the cleaned DAG) and
  /// view; the incremental path additionally fills the report delta's
  /// m_inserted/m_deleted with the true ∆M pairs.
  ///
  /// A forced kIncrementalMerge silently degrades to kFullRebuild when the
  /// journal window is not covered (report->used tells the truth).
  Status MaintainBatch(DagView* dag, const BatchOptions& options,
                       BatchReport* report);

 private:
  /// MaintainBatch's body; the public wrapper adds the trace span and the
  /// per-strategy registry counters.
  Status MaintainBatchImpl(DagView* dag, const BatchOptions& options,
                           BatchReport* report);

  /// The generalized multi-op ∆(M,L) merge. Consolidates the journal into
  /// its net structural effect, garbage-collects within the region the
  /// window can have cut loose (desc-or-self of the net-removed edges'
  /// children, plus the fresh nodes), recomputes ancestor sets over the
  /// affected region only (new-DAG desc-or-self of the changed edges'
  /// child endpoints and new nodes), and re-derives L with one Kahn pass.
  Status IncrementalMerge(DagView* dag, const std::vector<DagDelta>& journal,
                          MaintenanceDelta* delta);

  TopoOrder topo_;
  Reachability reach_;
  uint64_t maintained_version_ = 0;
};

}  // namespace xvu

#endif  // XVU_DAG_MAINTENANCE_ENGINE_H_
