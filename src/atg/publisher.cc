#include "src/atg/publisher.h"

#include <cassert>

namespace xvu {

namespace {

/// Kahn cycle check over the subgraph induced by the live nodes with ids
/// in [lo, capacity). lo = 0 checks the whole DAG: the published view
/// must be acyclic, since a cycle means the XML view is an infinite tree.
bool AcyclicFrom(const DagView& dag, NodeId lo) {
  std::vector<size_t> indeg(dag.capacity() - lo, 0);
  std::vector<NodeId> ready;
  size_t live = 0, seen = 0;
  for (NodeId v = lo; v < dag.capacity(); ++v) {
    if (!dag.alive(v)) continue;
    ++live;
    for (NodeId p : dag.parents(v)) indeg[v - lo] += p >= lo;
    if (indeg[v - lo] == 0) ready.push_back(v);
  }
  while (!ready.empty()) {
    NodeId u = ready.back();
    ready.pop_back();
    ++seen;
    for (NodeId c : dag.children(u)) {
      if (c >= lo && --indeg[c - lo] == 0) ready.push_back(c);
    }
  }
  return seen == live;
}

}  // namespace

Status Publisher::RegisterViews(ViewStore* store) const {
  const Dtd& dtd = atg_->dtd();
  for (const std::string& type : dtd.Types()) {
    const std::vector<Column>* attrs = atg_->AttrSchema(type);
    std::vector<Column> fields = attrs == nullptr ? std::vector<Column>{}
                                                  : *attrs;
    XVU_RETURN_NOT_OK(store->RegisterGenTable(type, fields));
    const Production* prod = dtd.GetProduction(type);
    if (prod->kind != ContentKind::kStar) continue;
    const SpjQuery* rule = atg_->StarRule(type);
    if (rule == nullptr) {
      return Status::InvalidArgument("star production of " + type +
                                     " has no rule query");
    }
    const std::string& child = prod->children[0];
    const std::vector<Column>* child_attrs = atg_->AttrSchema(child);
    EdgeViewInfo info;
    info.name = ViewStore::EdgeViewName(type, child);
    info.parent_type = type;
    info.child_type = child;
    info.rule = *rule;
    info.attr_arity = child_attrs == nullptr ? 0 : child_attrs->size();
    XVU_ASSIGN_OR_RETURN(info.key_positions, rule->KeyOutputPositions(*db_));
    XVU_RETURN_NOT_OK(store->RegisterEdgeView(std::move(info)));
  }
  return Status::OK();
}

Result<NodeId> Publisher::GetOrCreate(Ctx* ctx, const std::string& type,
                                      const Tuple& attr, bool* created) {
  NodeId existing = ctx->dag->FindNode(type, attr);
  if (existing != kInvalidNode) {
    *created = false;
    return existing;
  }
  NodeId id = ctx->dag->GetOrAddNode(type, attr);
  *created = true;
  const Production* prod = atg_->dtd().GetProduction(type);
  if (prod != nullptr && prod->kind == ContentKind::kPcdata) {
    ctx->dag->MarkTextNode(id);
  }
  if (ctx->store != nullptr) {
    XVU_RETURN_NOT_OK(ctx->store->AddGenRow(type, id, attr));
  }
  if (ctx->delta != nullptr) ctx->delta->new_nodes.push_back(id);
  return id;
}

Status Publisher::LinkChild(Ctx* ctx, NodeId parent,
                            const std::string& child_type,
                            const Tuple& child_attr) {
  bool created = false;
  XVU_ASSIGN_OR_RETURN(NodeId child,
                       GetOrCreate(ctx, child_type, child_attr, &created));
  bool added = ctx->dag->AddEdge(parent, child);
  if (added && ctx->delta != nullptr) {
    ctx->delta->new_edges.emplace_back(parent, child);
  }
  // Newly created nodes are expanded later from the worklist; recursion is
  // avoided so that deep (recursive-DTD) views cannot overflow the stack.
  if (created) ctx->pending.push_back(child);
  return Status::OK();
}

Status Publisher::Generate(Ctx* ctx, NodeId node) {
  const DagView::Node& n = ctx->dag->node(node);
  const std::string type = n.type;  // copy: dag may reallocate
  const Tuple attr = n.attr;
  const Production* prod = atg_->dtd().GetProduction(type);
  if (prod == nullptr) {
    return Status::Internal("no production for type " + type);
  }
  switch (prod->kind) {
    case ContentKind::kPcdata:
    case ContentKind::kEmpty:
      return Status::OK();
    case ContentKind::kSequence: {
      for (const std::string& c : prod->children) {
        const std::vector<size_t>* proj = atg_->SequenceProjection(type, c);
        if (proj == nullptr) {
          return Status::Internal("missing sequence projection " + type +
                                  " -> " + c);
        }
        Tuple child_attr;
        child_attr.reserve(proj->size());
        for (size_t idx : *proj) child_attr.push_back(attr[idx]);
        XVU_RETURN_NOT_OK(LinkChild(ctx, node, c, child_attr));
      }
      return Status::OK();
    }
    case ContentKind::kAlternation: {
      const Atg::AlternationRule* ar = atg_->GetAlternationRule(type);
      if (ar == nullptr) {
        return Status::Internal("missing alternation rule for " + type);
      }
      size_t branch = ar->choose(attr);
      if (branch >= prod->children.size()) {
        return Status::Internal("alternation selector out of range for " +
                                type);
      }
      Tuple child_attr;
      for (size_t idx : ar->projections[branch]) {
        child_attr.push_back(attr[idx]);
      }
      return LinkChild(ctx, node, prod->children[branch], child_attr);
    }
    case ContentKind::kStar: {
      const SpjQuery* rule = atg_->StarRule(type);
      if (rule == nullptr) {
        return Status::Internal("missing star rule for " + type);
      }
      const std::string& child_type = prod->children[0];
      const std::vector<Column>* child_attrs = atg_->AttrSchema(child_type);
      size_t attr_arity = child_attrs == nullptr ? 0 : child_attrs->size();
      std::vector<SpjQuery::WitnessedRow> local_rows;
      const std::vector<SpjQuery::WitnessedRow>* rows_ptr = nullptr;
      if (ctx->bulk) {
        auto it = ctx->bulk_cache.find(type);
        if (it == ctx->bulk_cache.end()) {
          XVU_ASSIGN_OR_RETURN(auto grouped, rule->EvalGroupedByParams(*db_));
          it = ctx->bulk_cache.emplace(type, std::move(grouped)).first;
        }
        Tuple key(attr.begin(),
                  attr.begin() +
                      static_cast<std::ptrdiff_t>(rule->num_params()));
        auto git = it->second.find(key);
        static const std::vector<SpjQuery::WitnessedRow> kNoRows;
        rows_ptr = git == it->second.end() ? &kNoRows : &git->second;
      } else {
        XVU_ASSIGN_OR_RETURN(local_rows, rule->EvalWithWitness(*db_, attr));
        rows_ptr = &local_rows;
      }
      for (const SpjQuery::WitnessedRow& wr : *rows_ptr) {
        Tuple child_attr(wr.projected.begin(),
                         wr.projected.begin() +
                             static_cast<std::ptrdiff_t>(attr_arity));
        XVU_RETURN_NOT_OK(LinkChild(ctx, node, child_type, child_attr));
        if (ctx->store != nullptr) {
          NodeId child = ctx->dag->FindNode(child_type, child_attr);
          XVU_RETURN_NOT_OK(ctx->store->AddEdgeRow(
              ViewStore::EdgeViewName(type, child_type),
              ViewStore::MakeEdgeRow(static_cast<int64_t>(node),
                                     static_cast<int64_t>(child),
                                     wr.projected)));
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled production kind");
}

Status Publisher::Drain(Ctx* ctx) {
  while (!ctx->pending.empty()) {
    NodeId next = ctx->pending.back();
    ctx->pending.pop_back();
    XVU_RETURN_NOT_OK(Generate(ctx, next));
  }
  return Status::OK();
}

Result<DagView> Publisher::PublishAll(ViewStore* store) {
  XVU_RETURN_NOT_OK(atg_->Validate(*db_));
  if (store != nullptr) XVU_RETURN_NOT_OK(RegisterViews(store));
  DagView dag;
  Ctx ctx;
  ctx.dag = &dag;
  ctx.store = store;
  ctx.bulk = true;
  bool created = false;
  XVU_ASSIGN_OR_RETURN(NodeId root,
                       GetOrCreate(&ctx, atg_->dtd().root(), Tuple{},
                                   &created));
  dag.SetRoot(root);
  XVU_RETURN_NOT_OK(Generate(&ctx, root));
  XVU_RETURN_NOT_OK(Drain(&ctx));
  if (!AcyclicFrom(dag, 0)) {
    return Status::Rejected(
        "published view is cyclic (infinite XML tree); source data violates "
        "the DAG assumption");
  }
  return dag;
}

Result<Publisher::SubtreeResult> Publisher::PublishSubtree(
    const std::string& type, const Tuple& attr, DagView* dag,
    ViewStore* store) {
  SubtreeResult delta;
  Ctx ctx;
  ctx.dag = dag;
  ctx.store = store;
  ctx.delta = &delta;
  bool created = false;
  XVU_ASSIGN_OR_RETURN(NodeId root, GetOrCreate(&ctx, type, attr, &created));
  delta.root = root;
  if (created) {
    XVU_RETURN_NOT_OK(Generate(&ctx, root));
    XVU_RETURN_NOT_OK(Drain(&ctx));
    // Ids are allocated ascending, so the nodes created here are exactly
    // those from `root` up. Only they are Generate()d: every added edge
    // starts at one of them, and none enters one from outside. The DAG
    // was acyclic before (callers' cone guards keep it so), so any new
    // cycle lies among the created nodes.
    delta.cyclic = !AcyclicFrom(*dag, root);
    assert(delta.cyclic == !AcyclicFrom(*dag, 0));
  }
  return delta;
}

}  // namespace xvu
