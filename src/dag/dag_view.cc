#include "src/dag/dag_view.h"

#include <algorithm>
#include <limits>

#include "src/common/str_util.h"

namespace xvu {

void DagView::SetRoot(NodeId r) {
  if (root_ == r) return;
  DagDelta d;
  d.kind = DagDelta::Kind::kRootChanged;
  d.node = r;
  d.prev_root = root_;
  root_ = r;
  ++version_;
  d.version = version_;
  journal_.Append(d);
}

NodeId DagView::GetOrAddNode(const std::string& type, const Tuple& attr) {
  NodeId existing = FindNode(type, attr);
  if (existing != kInvalidNode) return existing;
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{type, attr});
  dead_.push_back(0);
  children_.emplace_back();
  parents_.emplace_back();
  gen_[type].emplace(TupleHash()(attr), id);
  ++live_nodes_;
  ++version_;
  DagDelta d;
  d.kind = DagDelta::Kind::kNodeAdded;
  d.node = id;
  d.version = version_;
  journal_.Append(d);
  return id;
}

NodeId DagView::FindNode(const std::string& type, const Tuple& attr) const {
  auto tit = gen_.find(type);
  if (tit == gen_.end()) return kInvalidNode;
  auto range = tit->second.equal_range(TupleHash()(attr));
  for (auto it = range.first; it != range.second; ++it) {
    if (nodes_[it->second].attr == attr) return it->second;
  }
  return kInvalidNode;
}

void DagView::Unindex(NodeId id) {
  auto& per_type = gen_[nodes_[id].type];
  auto range = per_type.equal_range(TupleHash()(nodes_[id].attr));
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second == id) {
      per_type.erase(it);
      return;
    }
  }
}

bool DagView::AddEdge(NodeId parent, NodeId child) {
  if (HasEdge(parent, child)) return false;
  children_[parent].push_back(child);
  parents_[child].push_back(parent);
  ++num_edges_;
  ++version_;
  DagDelta d;
  d.kind = DagDelta::Kind::kEdgeAdded;
  d.parent = parent;
  d.child = child;
  d.version = version_;
  journal_.Append(d);
  return true;
}

bool DagView::HasEdge(NodeId parent, NodeId child) const {
  const auto& cs = children_[parent];
  return std::find(cs.begin(), cs.end(), child) != cs.end();
}

Status DagView::RemoveEdge(NodeId parent, NodeId child) {
  auto& cs = children_[parent];
  auto it = std::find(cs.begin(), cs.end(), child);
  if (it == cs.end()) {
    return Status::NotFound("edge (" + std::to_string(parent) + "," +
                            std::to_string(child) + ") not in DAG");
  }
  DagDelta d;
  d.kind = DagDelta::Kind::kEdgeRemoved;
  d.parent = parent;
  d.child = child;
  d.child_pos = static_cast<uint32_t>(it - cs.begin());
  cs.erase(it);
  // Parents are unordered (see the header contract), so the linear find
  // can finish with an O(1) swap-erase instead of shifting the tail.
  auto& ps = parents_[child];
  auto pit = std::find(ps.begin(), ps.end(), parent);
  d.parent_pos = static_cast<uint32_t>(pit - ps.begin());
  *pit = ps.back();
  ps.pop_back();
  --num_edges_;
  ++version_;
  d.version = version_;
  journal_.Append(d);
  return Status::OK();
}

Status DagView::RemoveNode(NodeId id) {
  if (!alive(id)) return Status::NotFound("node already dead");
  if (!children_[id].empty() || !parents_[id].empty()) {
    return Status::InvalidArgument("node " + std::to_string(id) +
                                   " still has incident edges");
  }
  dead_[id] = 1;
  Unindex(id);
  --live_nodes_;
  ++version_;
  DagDelta d;
  d.kind = DagDelta::Kind::kNodeRemoved;
  d.node = id;
  d.version = version_;
  journal_.Append(d);
  return Status::OK();
}

Status DagView::RewindTo(uint64_t version) {
  if (version > version_) {
    return Status::InvalidArgument(
        "cannot rewind to future version " + std::to_string(version) +
        " (current " + std::to_string(version_) + ")");
  }
  if (version == version_) return Status::OK();
  // Every mutation bumps the version by exactly one and appends exactly
  // one entry, so the window must hold exactly version_ - version
  // deltas; anything else means eviction ate part of it.
  std::vector<DagDelta> window = journal_.Since(version);
  if (!journal_.Covers(version) ||
      window.size() != version_ - version) {
    return Status::Unavailable(
        "journal window for rewind to v" + std::to_string(version) +
        " was evicted (retained " + std::to_string(window.size()) +
        " of " + std::to_string(version_ - version) + " entries)");
  }
  for (auto it = window.rbegin(); it != window.rend(); ++it) {
    const DagDelta& d = *it;
    switch (d.kind) {
      case DagDelta::Kind::kNodeAdded: {
        // Reverse replay has already undone every later mutation, so
        // the node is the most recently allocated id and isolated.
        if (static_cast<size_t>(d.node) + 1 != nodes_.size() ||
            dead_[d.node] || !children_[d.node].empty() ||
            !parents_[d.node].empty()) {
          return Status::Internal("rewind: node " + std::to_string(d.node) +
                                  " is not the last isolated allocation");
        }
        Unindex(d.node);
        nodes_.pop_back();
        dead_.pop_back();
        children_.pop_back();
        parents_.pop_back();
        --live_nodes_;
        break;
      }
      case DagDelta::Kind::kNodeRemoved: {
        if (alive(d.node)) {
          return Status::Internal("rewind: node " + std::to_string(d.node) +
                                  " to resurrect is alive");
        }
        dead_[d.node] = 0;
        gen_[nodes_[d.node].type].emplace(TupleHash()(nodes_[d.node].attr),
                                          d.node);
        ++live_nodes_;
        break;
      }
      case DagDelta::Kind::kEdgeAdded: {
        auto& cs = children_[d.parent];
        auto& ps = parents_[d.child];
        if (cs.empty() || cs.back() != d.child || ps.empty() ||
            ps.back() != d.parent) {
          return Status::Internal(
              "rewind: edge (" + std::to_string(d.parent) + "," +
              std::to_string(d.child) + ") is not the newest entry");
        }
        cs.pop_back();
        ps.pop_back();
        --num_edges_;
        break;
      }
      case DagDelta::Kind::kEdgeRemoved: {
        auto& cs = children_[d.parent];
        auto& ps = parents_[d.child];
        if (d.child_pos > cs.size() || d.parent_pos > ps.size()) {
          return Status::Internal("rewind: recorded edge positions exceed "
                                  "current adjacency sizes");
        }
        cs.insert(cs.begin() + d.child_pos, d.child);
        // Invert the swap-erase: the evicted slot's occupant moved to
        // the back unless the parent itself was last.
        if (d.parent_pos == ps.size()) {
          ps.push_back(d.parent);
        } else {
          ps.push_back(ps[d.parent_pos]);
          ps[d.parent_pos] = d.parent;
        }
        ++num_edges_;
        break;
      }
      case DagDelta::Kind::kRootChanged:
        root_ = d.prev_root;
        break;
    }
  }
  version_ = version;
  journal_.TruncateAfter(version);
  return Status::OK();
}

std::vector<NodeId> DagView::LiveNodes() const {
  std::vector<NodeId> out;
  out.reserve(live_nodes_);
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (!dead_[i]) out.push_back(i);
  }
  return out;
}

std::string DagView::TextOf(NodeId id) const {
  const Node& n = nodes_[id];
  std::string out;
  for (size_t i = 0; i < n.attr.size(); ++i) {
    if (i > 0) out += " ";
    out += n.attr[i].ToString();
  }
  return out;
}

size_t DagView::UncompressedTreeSize() const {
  // sizes[v] = 1 + sum over children (with multiplicity 1 per edge).
  // Process in reverse topological order via memoized DFS.
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  std::vector<size_t> memo(nodes_.size(), 0);
  std::vector<uint8_t> done(nodes_.size(), 0);
  // Iterative DFS to avoid stack depth issues.
  if (root_ == kInvalidNode) return 0;
  std::vector<std::pair<NodeId, size_t>> stack = {{root_, 0}};
  while (!stack.empty()) {
    auto& [v, ci] = stack.back();
    if (ci == 0 && done[v]) {
      stack.pop_back();
      continue;
    }
    if (ci < children_[v].size()) {
      NodeId c = children_[v][ci];
      ++ci;
      if (!done[c]) stack.push_back({c, 0});
      continue;
    }
    size_t total = 1;
    for (NodeId c : children_[v]) {
      if (memo[c] == kMax || total > kMax - memo[c]) {
        total = kMax;
        break;
      }
      total += memo[c];
    }
    memo[v] = total;
    done[v] = 1;
    stack.pop_back();
  }
  return memo[root_];
}

namespace {

void ToXmlRec(const DagView& dag, NodeId v, int depth, size_t max_nodes,
              size_t* count, std::string* out) {
  if (*count >= max_nodes) return;
  ++*count;
  std::string indent(static_cast<size_t>(depth) * 2, ' ');
  const DagView::Node& n = dag.node(v);
  if (n.is_text) {
    *out += indent + "<" + n.type + ">" + XmlEscape(dag.TextOf(v)) + "</" +
            n.type + ">\n";
    return;
  }
  if (dag.children(v).empty()) {
    *out += indent + "<" + n.type + "/>\n";
    return;
  }
  *out += indent + "<" + n.type + ">\n";
  for (NodeId c : dag.children(v)) {
    ToXmlRec(dag, c, depth + 1, max_nodes, count, out);
    if (*count >= max_nodes) {
      *out += indent + "  <!-- truncated -->\n";
      break;
    }
  }
  *out += indent + "</" + n.type + ">\n";
}

}  // namespace

std::string DagView::ToXml(size_t max_nodes) const {
  if (root_ == kInvalidNode) return "";
  std::string out;
  size_t count = 0;
  ToXmlRec(*this, root_, 0, max_nodes, &count, &out);
  return out;
}

std::string DagView::CanonicalKey(NodeId id) const {
  const Node& n = nodes_[id];
  return n.type + TupleToString(n.attr);
}

std::set<std::pair<std::string, std::string>> DagView::CanonicalEdges()
    const {
  std::set<std::pair<std::string, std::string>> out;
  ForEachEdge([&](NodeId u, NodeId v) {
    out.emplace(CanonicalKey(u), CanonicalKey(v));
  });
  return out;
}

}  // namespace xvu
