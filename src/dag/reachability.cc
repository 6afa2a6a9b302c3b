#include "src/dag/reachability.h"

#include <algorithm>

namespace xvu {

const std::vector<NodeId> Reachability::kEmpty{};

namespace {

/// Inserts v into the ascending list; false if already present.
bool SortedInsert(std::vector<NodeId>* list, NodeId v) {
  auto it = list->empty() || list->back() < v
                ? list->end()
                : std::lower_bound(list->begin(), list->end(), v);
  if (it != list->end() && *it == v) return false;
  list->insert(it, v);
  return true;
}

/// Erases v from the ascending list; false if absent.
bool SortedErase(std::vector<NodeId>* list, NodeId v) {
  auto it = std::lower_bound(list->begin(), list->end(), v);
  if (it == list->end() || *it != v) return false;
  list->erase(it);
  return true;
}

}  // namespace

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
      ad.push_back(p);
      const auto& ap = m.anc_[p];
      ad.insert(ad.end(), ap.begin(), ap.end());
    }
    std::sort(ad.begin(), ad.end());
    ad.erase(std::unique(ad.begin(), ad.end()), ad.end());
    ad.shrink_to_fit();
    m.size_ += ad.size();
  }
  // Filled in ascending d, the descendant lists come out sorted.
  for (NodeId d = 0; d < m.anc_.size(); ++d) {
    for (NodeId a : m.anc_[d]) m.desc_[a].push_back(d);
  }
  return m;
}

bool Reachability::IsAncestor(NodeId a, NodeId d) const {
  return d < anc_.size() &&
         std::binary_search(anc_[d].begin(), anc_[d].end(), a);
}

const std::vector<NodeId>& Reachability::Ancestors(NodeId d) const {
  return d < anc_.size() ? anc_[d] : kEmpty;
}

const std::vector<NodeId>& Reachability::Descendants(NodeId a) const {
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
  if (!SortedInsert(&anc_[d], a)) return false;
  SortedInsert(&desc_[a], d);
  ++size_;
  return true;
}

bool Reachability::Erase(NodeId a, NodeId d) {
  if (d >= anc_.size() || !SortedErase(&anc_[d], a)) return false;
  SortedErase(&desc_[a], d);
  --size_;
  return true;
}

bool Reachability::operator==(const Reachability& o) const {
  if (size_ != o.size_) return false;
  size_t n = std::max(anc_.size(), o.anc_.size());
  for (NodeId v = 0; v < n; ++v) {
    if (Ancestors(v) != o.Ancestors(v)) return false;
  }
  return true;
}

}  // namespace xvu
