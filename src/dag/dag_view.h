#ifndef XVU_DAG_DAG_VIEW_H_
#define XVU_DAG_DAG_VIEW_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/dag/journal.h"

namespace xvu {

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// The DAG compression of an XML view (Section 2.3).
///
/// Every node is identified by its element type and the value of its
/// semantic attribute `$A`; the Skolem function gen_id of the paper is the
/// (type, $A) -> NodeId index kept here, so a subtree shared by many tree
/// positions is stored exactly once (the *subtree property* of
/// schema-directed publishing: the subtree under a node is a function of
/// its semantic attribute).
///
/// Children are ordered (document order; insertions append, i.e. become the
/// rightmost child as required by the update semantics of Section 2.1).
/// Edges have set semantics: at most one (u, v) edge exists, mirroring the
/// edge relations edge_A_B.
class DagView {
 public:
  struct Node {
    std::string type;
    Tuple attr;
    /// True for pcdata-typed nodes: ToXml renders the attribute as text
    /// content (set by the publisher from the DTD production).
    bool is_text = false;
  };

  void MarkTextNode(NodeId id) { nodes_[id].is_text = true; }

  NodeId root() const { return root_; }
  void SetRoot(NodeId r);

  /// Monotone structural version: bumped by every node/edge mutation.
  /// Memoized XPath evaluations (PathEvalCache) are keyed on it — two
  /// evaluations at the same version see the same DAG.
  uint64_t version() const { return version_; }

  /// The ∆V change journal: every structural mutation is recorded as a
  /// DagDelta tagged with the version it produced. Downstream layers
  /// (MaintenanceEngine, PathEvalCache) replay it instead of re-deriving
  /// their state from the whole view.
  ///
  /// JournalSince(v) returns the mutations that took the DAG from version
  /// v to version(); callers must check JournalCovers(v) first — the
  /// journal is bounded, and a cursor older than its retention window must
  /// fall back to full recomputation.
  bool JournalCovers(uint64_t since) const {
    return journal_.Covers(since);
  }
  std::vector<DagDelta> JournalSince(uint64_t since) const {
    return journal_.Since(since);
  }
  size_t JournalCountSince(uint64_t since) const {
    return journal_.CountSince(since);
  }
  /// MVCC retention: protects journal entries with version > `floor` from
  /// capacity eviction (DagJournal::SetRetainFloor) so pinned read epochs
  /// keep a replayable window while writers commit.
  void SetJournalRetainFloor(uint64_t floor) {
    journal_.SetRetainFloor(floor);
  }
  uint64_t journal_retain_floor() const { return journal_.retain_floor(); }

  /// Creates the node for (type, attr), or returns the existing one.
  NodeId GetOrAddNode(const std::string& type, const Tuple& attr);

  /// Returns the node for (type, attr) or kInvalidNode.
  NodeId FindNode(const std::string& type, const Tuple& attr) const;

  bool alive(NodeId id) const { return id < nodes_.size() && !dead_[id]; }
  const Node& node(NodeId id) const { return nodes_[id]; }

  /// Ordered children of `id`.
  const std::vector<NodeId>& children(NodeId id) const {
    return children_[id];
  }
  /// Parents of `id` (unordered).
  const std::vector<NodeId>& parents(NodeId id) const { return parents_[id]; }

  /// Appends edge (parent, child) as parent's rightmost child.
  /// Returns false (and changes nothing) if the edge already exists.
  bool AddEdge(NodeId parent, NodeId child);

  bool HasEdge(NodeId parent, NodeId child) const;

  /// Removes edge (parent, child). NotFound if absent.
  Status RemoveEdge(NodeId parent, NodeId child);

  /// Tombstones a node; it must have no incident edges.
  Status RemoveNode(NodeId id);

  /// Structurally rewinds the DAG to an earlier `version` by reverse-
  /// replaying the ∆V journal window, then truncates the journal so the
  /// undone mutations are gone from it too. Unlike rolling back through
  /// the forward mutators (which appends compensating deltas, burns
  /// versions, and leaks tombstoned node ids), RewindTo restores the
  /// node-id allocator, the version counter, child order, parent-vector
  /// layout, and the journal tail bit-identically — a retried batch
  /// after a rewind behaves exactly like a never-faulted run.
  ///
  /// Returns kUnavailable (state untouched) when the bounded journal
  /// has evicted part of the window; callers then fall back to a full
  /// resync. kInvalidArgument for a future version.
  Status RewindTo(uint64_t version);

  /// Number of live nodes.
  size_t num_nodes() const { return live_nodes_; }
  /// Number of edges (DAG edges, not tree occurrences).
  size_t num_edges() const { return num_edges_; }
  /// Upper bound over node ids ever allocated (for dense arrays).
  size_t capacity() const { return nodes_.size(); }

  /// All live node ids.
  std::vector<NodeId> LiveNodes() const;

  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (NodeId u = 0; u < nodes_.size(); ++u) {
      if (dead_[u]) continue;
      for (NodeId v : children_[u]) fn(u, v);
    }
  }

  /// String value of a node: its attribute fields joined by space.
  /// (For pcdata-typed nodes this is the text content.)
  std::string TextOf(NodeId id) const;

  /// Number of tree nodes the DAG expands to (the uncompressed XML view
  /// size), computed in O(|V|) by DP; saturates at SIZE_MAX on overflow.
  size_t UncompressedTreeSize() const;

  /// Unfolds the DAG into XML text, stopping after `max_nodes` expanded
  /// nodes (shared subtrees are fully expanded at each occurrence, so this
  /// can be exponentially larger than the DAG).
  std::string ToXml(size_t max_nodes = 100000) const;

  /// Edge multiset keyed by ((type, attr), (type, attr)) — id-independent
  /// representation used to compare an incrementally maintained view with
  /// a freshly republished one.
  std::set<std::pair<std::string, std::string>> CanonicalEdges() const;

  /// A canonical string for (type, attr) — also used in CanonicalEdges().
  std::string CanonicalKey(NodeId id) const;

 private:
  void Unindex(NodeId id);

  std::vector<Node> nodes_;
  std::vector<uint8_t> dead_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<std::vector<NodeId>> parents_;
  /// The gen_id index: per type, TupleHash(attr) -> node ids. The attrs
  /// are compared in nodes_, not stored a second time.
  std::map<std::string, std::unordered_multimap<size_t, NodeId>> gen_;
  NodeId root_ = kInvalidNode;
  size_t num_edges_ = 0;
  size_t live_nodes_ = 0;
  uint64_t version_ = 0;
  DagJournal journal_;
};

}  // namespace xvu

#endif  // XVU_DAG_DAG_VIEW_H_
