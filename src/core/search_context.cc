#include "core/search_context.h"

#include <algorithm>

#include "util/logging.h"

namespace krcore {

// ---------------------------------------------------------------------------
// VertexList
// ---------------------------------------------------------------------------

void VertexList::Init(VertexId n) {
  next_.assign(static_cast<size_t>(n) + 1, kNil);
  prev_.assign(static_cast<size_t>(n) + 1, kNil);
  head_ = n;  // sentinel slot
  next_[head_] = head_;
  prev_[head_] = head_;
  size_ = 0;
}

void VertexList::PushFront(VertexId u) {
  KRCORE_DCHECK(prev_[u] == kNil);
  VertexId first = next_[head_];
  next_[head_] = u;
  prev_[u] = head_;
  next_[u] = first;
  prev_[first] = u;
  ++size_;
}

void VertexList::Remove(VertexId u) {
  KRCORE_DCHECK(prev_[u] != kNil);
  VertexId p = prev_[u];
  VertexId n = next_[u];
  next_[p] = n;
  prev_[n] = p;
  prev_[u] = kNil;
  next_[u] = kNil;
  --size_;
}

VertexId VertexList::First() const {
  VertexId f = next_[head_];
  return f == head_ ? kInvalidVertex : f;
}

VertexId VertexList::Next(VertexId u) const {
  VertexId n = next_[u];
  return n == head_ ? kInvalidVertex : n;
}

std::vector<VertexId> VertexList::Materialize() const {
  std::vector<VertexId> out;
  out.reserve(size_);
  for (VertexId u = First(); u != kInvalidVertex; u = Next(u)) {
    out.push_back(u);
  }
  return out;
}

// ---------------------------------------------------------------------------
// SearchContext
// ---------------------------------------------------------------------------

SearchContext::SearchContext(const ComponentContext& comp, uint32_t k,
                             bool track_excluded)
    : comp_(&comp), k_(k), track_excluded_(track_excluded) {
  const VertexId n = comp.size();
  state_.assign(n, VertexState::kInC);
  m_list_.Init(n);
  c_list_.Init(n);
  e_list_.Init(n);
  deg_mc_.resize(n);
  deg_m_.assign(n, 0);
  dp_c_.resize(n);
  dp_m_.assign(n, 0);
  dp_e_.assign(n, 0);
  bfs_mark_.assign(n, 0);

  for (VertexId u = 0; u < n; ++u) {
    deg_mc_[u] = comp.graph.degree(u);
    dp_c_[u] = comp.dissimilar.degree(u);
    if (dp_c_[u] == 0) ++sf_count_;
    c_list_.PushFront(u);
  }
  dp_pairs_c_ = comp.num_dissimilar_pairs();
  edges_mc_ = comp.graph.num_edges();

  // The component comes from the k-core, so the degree invariant (Eq. 2)
  // holds from the start.
  for (VertexId u = 0; u < n; ++u) KRCORE_DCHECK(deg_mc_[u] >= k_);
}

SearchContext SearchContext::Fork() const {
  KRCORE_DCHECK(!dead_);
  SearchContext copy(*this);
  copy.trail_.clear();
  copy.peel_queue_.clear();
  copy.bfs_stack_.clear();
  return copy;
}

// ---- low-level journaled mutators ----------------------------------------

void SearchContext::ApplyState(VertexId u, VertexState s) {
  VertexState old = state_[u];
  if (old == s) return;
  // SF(C) accounting: u leaves / enters the C set.
  if (old == VertexState::kInC) {
    c_list_.Remove(u);
    if (dp_c_[u] == 0) --sf_count_;
  } else if (old == VertexState::kInM) {
    m_list_.Remove(u);
  } else if (old == VertexState::kInE) {
    e_list_.Remove(u);
  }
  state_[u] = s;
  if (s == VertexState::kInC) {
    c_list_.PushFront(u);
    if (dp_c_[u] == 0) ++sf_count_;
  } else if (s == VertexState::kInM) {
    m_list_.PushFront(u);
  } else if (s == VertexState::kInE) {
    e_list_.PushFront(u);
  }
}

void SearchContext::ChangeState(VertexId u, VertexState s) {
  trail_.push_back({Op::kState, u, static_cast<int64_t>(state_[u])});
  ApplyState(u, s);
}

void SearchContext::ApplyDpC(VertexId u, int32_t d) {
  if (state_[u] == VertexState::kInC) {
    if (dp_c_[u] == 0) --sf_count_;
    dp_c_[u] += d;
    if (dp_c_[u] == 0) ++sf_count_;
  } else {
    dp_c_[u] += d;
  }
}

void SearchContext::AdjustDegMc(VertexId u, int32_t d) {
  trail_.push_back({Op::kDegMc, u, d});
  deg_mc_[u] += d;
}

void SearchContext::AdjustDegM(VertexId u, int32_t d) {
  trail_.push_back({Op::kDegM, u, d});
  deg_m_[u] += d;
}

void SearchContext::AdjustDpC(VertexId u, int32_t d) {
  trail_.push_back({Op::kDpC, u, d});
  ApplyDpC(u, d);
}

void SearchContext::AdjustDpM(VertexId u, int32_t d) {
  trail_.push_back({Op::kDpM, u, d});
  dp_m_[u] += d;
}

void SearchContext::AdjustDpE(VertexId u, int32_t d) {
  trail_.push_back({Op::kDpE, u, d});
  dp_e_[u] += d;
}

void SearchContext::AdjustPairsC(int64_t d) {
  trail_.push_back({Op::kPairsC, 0, d});
  dp_pairs_c_ += d;
}

void SearchContext::AdjustEdgesMc(int64_t d) {
  trail_.push_back({Op::kEdgesMc, 0, d});
  edges_mc_ += d;
}

void SearchContext::RewindTo(size_t mark) {
  while (trail_.size() > mark) {
    TrailEntry e = trail_.back();
    trail_.pop_back();
    switch (e.op) {
      case Op::kState:
        ApplyState(e.u, static_cast<VertexState>(e.delta));
        break;
      case Op::kDegMc:
        deg_mc_[e.u] -= static_cast<int32_t>(e.delta);
        break;
      case Op::kDegM:
        deg_m_[e.u] -= static_cast<int32_t>(e.delta);
        break;
      case Op::kDpC:
        ApplyDpC(e.u, -static_cast<int32_t>(e.delta));
        break;
      case Op::kDpM:
        dp_m_[e.u] -= static_cast<int32_t>(e.delta);
        break;
      case Op::kDpE:
        dp_e_[e.u] -= static_cast<int32_t>(e.delta);
        break;
      case Op::kPairsC:
        dp_pairs_c_ -= e.delta;
        break;
      case Op::kEdgesMc:
        edges_mc_ -= e.delta;
        break;
    }
  }
  dead_ = false;
  mc_connected_ = false;
  peel_queue_.clear();
}

// ---- discard / move primitives --------------------------------------------

void SearchContext::DiscardFromC(VertexId u) {
  KRCORE_DCHECK(state_[u] == VertexState::kInC);
  mc_connected_ = false;
  // Destination: E keeps discarded vertices that are similar to all of M
  // (Sec 5.2's definition of the relevant excluded set).
  bool to_e = track_excluded_ && dp_m_[u] == 0;
  ChangeState(u, to_e ? VertexState::kInE : VertexState::kRemoved);

  // u leaves C: DP(C) loses the pairs (u, x in C); dp_c drops for every
  // dissimilar vertex regardless of its state (E members consult dp_c in
  // the Theorem 5/6 checks).
  AdjustPairsC(-static_cast<int64_t>(dp_c_[u]));
  for (VertexId x : comp_->dissimilar[u]) AdjustDpC(x, -1);
  if (to_e) {
    for (VertexId x : comp_->dissimilar[u]) AdjustDpE(x, +1);
  }

  // u leaves M ∪ C: neighbors lose structure degree; under-k candidates are
  // queued for peeling (Thm 2); an under-k M vertex kills the branch.
  AdjustEdgesMc(-static_cast<int64_t>(deg_mc_[u]));
  for (VertexId v : comp_->graph.neighbors(u)) {
    VertexState sv = state_[v];
    if (sv == VertexState::kInC || sv == VertexState::kInM) {
      AdjustDegMc(v, -1);
      if (deg_mc_[v] < k_) {
        if (sv == VertexState::kInM) {
          dead_ = true;
        } else {
          peel_queue_.push_back(v);
        }
      }
    }
  }
}

void SearchContext::DropFromE(VertexId u) {
  KRCORE_DCHECK(state_[u] == VertexState::kInE);
  ChangeState(u, VertexState::kRemoved);
  for (VertexId x : comp_->dissimilar[u]) AdjustDpE(x, -1);
}

void SearchContext::MoveToM(VertexId u) {
  KRCORE_DCHECK(state_[u] == VertexState::kInC);
  ChangeState(u, VertexState::kInM);

  // u leaves C (same DP(C) bookkeeping as a discard, but u stays in M ∪ C).
  AdjustPairsC(-static_cast<int64_t>(dp_c_[u]));
  for (VertexId x : comp_->dissimilar[u]) AdjustDpC(x, -1);

  // deg(·, M) grows for u's neighbors.
  for (VertexId v : comp_->graph.neighbors(u)) AdjustDegM(v, +1);

  // Similarity pruning (Thm 3): u's dissimilar vertices cannot coexist with
  // M anymore — candidates are discarded, E members dropped.
  for (VertexId x : comp_->dissimilar[u]) {
    AdjustDpM(x, +1);
    if (state_[x] == VertexState::kInC) {
      DiscardFromC(x);
    } else if (state_[x] == VertexState::kInE) {
      DropFromE(x);
    }
    if (dead_) return;
  }
}

void SearchContext::DrainPeel() {
  while (!peel_queue_.empty() && !dead_) {
    VertexId v = peel_queue_.back();
    peel_queue_.pop_back();
    if (state_[v] != VertexState::kInC) continue;  // already handled
    if (deg_mc_[v] >= k_) continue;                // stale entry
    DiscardFromC(v);
  }
  if (dead_) peel_queue_.clear();
}

void SearchContext::EnforceConnectivity() {
  while (!dead_) {
    if (mc_connected_ || m_list_.empty()) return;
    // Graph search over M ∪ C starting from one M vertex. It stops as soon
    // as every member is marked: the rest of the stack cannot change the
    // verdict, and a disconnected M ∪ C always runs to exhaustion.
    if (++bfs_epoch_ == 0) {
      std::fill(bfs_mark_.begin(), bfs_mark_.end(), 0);
      bfs_epoch_ = 1;
    }
    bfs_stack_.clear();
    const VertexId members = m_list_.size() + c_list_.size();
    VertexId start = m_list_.First();
    bfs_mark_[start] = bfs_epoch_;
    bfs_stack_.push_back(start);
    VertexId marked = 1;
    while (!bfs_stack_.empty() && marked < members) {
      VertexId u = bfs_stack_.back();
      bfs_stack_.pop_back();
      for (VertexId v : comp_->graph.neighbors(u)) {
        VertexState sv = state_[v];
        if ((sv == VertexState::kInC || sv == VertexState::kInM) &&
            bfs_mark_[v] != bfs_epoch_) {
          bfs_mark_[v] = bfs_epoch_;
          bfs_stack_.push_back(v);
          ++marked;
        }
      }
    }
    if (marked == members) {
      mc_connected_ = true;
      return;
    }

    // Any unreached M vertex can never re-connect: the branch is dead.
    for (VertexId u = m_list_.First(); u != kInvalidVertex;
         u = m_list_.Next(u)) {
      if (bfs_mark_[u] != bfs_epoch_) {
        dead_ = true;
        return;
      }
    }
    // Unreached candidates cannot join any connected core containing M.
    std::vector<VertexId> unreachable;
    for (VertexId u = c_list_.First(); u != kInvalidVertex;
         u = c_list_.Next(u)) {
      if (bfs_mark_[u] != bfs_epoch_) unreachable.push_back(u);
    }
    for (VertexId u : unreachable) {
      if (state_[u] == VertexState::kInC) DiscardFromC(u);
      if (dead_) return;
    }
    DrainPeel();
    if (peel_queue_.empty() && unreachable.empty()) return;
  }
}

// ---- public branching ops --------------------------------------------------

bool SearchContext::Expand(VertexId u) {
  KRCORE_DCHECK(!dead_);
  MoveToM(u);
  DrainPeel();
  if (!dead_) EnforceConnectivity();
  return !dead_;
}

bool SearchContext::Shrink(VertexId u) {
  KRCORE_DCHECK(!dead_);
  DiscardFromC(u);
  DrainPeel();
  if (!dead_) EnforceConnectivity();
  return !dead_;
}

bool SearchContext::PromoteSimilarityFree(uint64_t* promotions) {
  bool changed = true;
  while (changed && !dead_) {
    changed = false;
    VertexId next = c_list_.First();
    while (next != kInvalidVertex && !dead_) {
      VertexId u = next;
      next = c_list_.Next(u);
      if (dp_c_[u] == 0 && deg_m_[u] >= k_) {
        // Remark 1: u is similarity free and already structurally supported
        // by M alone; it belongs to every (k,r)-core derivable from (M, C).
        // Promoting u removes nothing from C (dp_c == 0 means no similarity
        // victims; membership of M ∪ C is unchanged), so `next` stays valid
        // and the outer fixpoint loop picks up newly eligible vertices.
        MoveToM(u);
        if (promotions != nullptr) ++*promotions;
        changed = true;
      }
    }
  }
  if (!dead_) EnforceConnectivity();
  return !dead_;
}

std::vector<VertexId> SearchContext::MaterializeMC() const {
  std::vector<VertexId> out;
  out.reserve(m_list_.size() + c_list_.size());
  for (VertexId u = m_list_.First(); u != kInvalidVertex; u = m_list_.Next(u)) {
    out.push_back(u);
  }
  for (VertexId u = c_list_.First(); u != kInvalidVertex; u = c_list_.Next(u)) {
    out.push_back(u);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace krcore
