#include "src/dag/reachability.h"

namespace xvu {

const std::unordered_set<NodeId> Reachability::kEmpty{};

void Reachability::EnsureCapacity(NodeId v) {
  if (v >= anc_.size()) {
    anc_.resize(v + 1);
    desc_.resize(v + 1);
  }
}

Reachability Reachability::Compute(const DagView& dag,
                                   const TopoOrder& order) {
  Reachability m;
  m.anc_.resize(dag.capacity());
  m.desc_.resize(dag.capacity());
  const std::vector<NodeId>& L = order.order();
  // Backward scan: L is descendants-first, so scanning from the end visits
  // ancestors before their descendants; each node's parents are thus fully
  // resolved when the node is processed (Fig.4 lines 2-5).
  for (size_t k = L.size(); k > 0; --k) {
    NodeId d = L[k - 1];
    auto& ad = m.anc_[d];
    for (NodeId p : dag.parents(d)) {
      ad.insert(p);
      const auto& ap = m.anc_[p];
      ad.insert(ap.begin(), ap.end());
    }
    for (NodeId a : ad) m.desc_[a].insert(d);
    m.size_ += ad.size();
  }
  return m;
}

Reachability Reachability::ComputeNaive(const DagView& dag) {
  Reachability m;
  m.anc_.resize(dag.capacity());
  m.desc_.resize(dag.capacity());
  // Per-node DFS collecting all descendants.
  for (NodeId a : dag.LiveNodes()) {
    std::vector<NodeId> stack(dag.children(a).begin(), dag.children(a).end());
    auto& da = m.desc_[a];
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      if (!da.insert(v).second) continue;
      for (NodeId c : dag.children(v)) stack.push_back(c);
    }
    for (NodeId d : da) m.anc_[d].insert(a);
    m.size_ += da.size();
  }
  return m;
}

bool Reachability::IsAncestor(NodeId a, NodeId d) const {
  return d < anc_.size() && anc_[d].count(a) > 0;
}

const std::unordered_set<NodeId>& Reachability::Ancestors(NodeId d) const {
  return d < anc_.size() ? anc_[d] : kEmpty;
}

const std::unordered_set<NodeId>& Reachability::Descendants(NodeId a) const {
  return a < desc_.size() ? desc_[a] : kEmpty;
}

void Reachability::Reserve(size_t cap) {
  if (cap > anc_.size()) {
    anc_.resize(cap);
    desc_.resize(cap);
  }
}

bool Reachability::Insert(NodeId a, NodeId d) {
  if (a == d) return false;
  EnsureCapacity(std::max(a, d));
  if (!anc_[d].insert(a).second) return false;
  desc_[a].insert(d);
  ++size_;
  return true;
}

bool Reachability::Erase(NodeId a, NodeId d) {
  if (d >= anc_.size() || anc_[d].erase(a) == 0) return false;
  desc_[a].erase(d);
  --size_;
  return true;
}

bool Reachability::operator==(const Reachability& o) const {
  if (size_ != o.size_) return false;
  size_t n = std::max(anc_.size(), o.anc_.size());
  for (NodeId v = 0; v < n; ++v) {
    const auto& a = v < anc_.size() ? anc_[v] : kEmpty;
    const auto& b = v < o.anc_.size() ? o.anc_[v] : kEmpty;
    if (a != b) return false;
  }
  return true;
}

}  // namespace xvu
