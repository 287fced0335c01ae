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
  tree_parent_.resize(n);
  tree_children_.resize(n);
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
  KRCORE_DCHECK(peel_queue_.empty() && bfs_stack_.empty() &&
                unreachable_.empty());
  return SearchContext(*this);
}

size_t SearchContext::Journal::Bytes(size_t record_words) const {
  size_t bytes = trail.capacity() * sizeof(TrailEntry) +
                 checkpoints.capacity() * sizeof(Checkpoint);
  for (size_t i = 0; i < slabs.size(); ++i) {
    bytes += (size_t{kFirstSlabRecords} << i) * record_words * sizeof(uint32_t);
  }
  return bytes;
}

// ---- membership and counter primitives ------------------------------------

void SearchContext::Relink(VertexId u, VertexState s) {
  // Indexed by VertexState; removed vertices are on no list.
  VertexList* const lists[] = {&c_list_, &m_list_, &e_list_, nullptr};
  if (VertexList* from = lists[static_cast<int>(state_[u])]) from->Remove(u);
  state_[u] = s;
  if (VertexList* to = lists[static_cast<int>(s)]) to->PushFront(u);
}

void SearchContext::ChangeState(VertexId u, VertexState s) {
  const VertexState old = state_[u];
  KRCORE_DCHECK(old != s && s != VertexState::kInC);
  journal_.trail.push_back({u, old});
  // SF(C) accounting: u leaves the C set.
  if (old == VertexState::kInC && dp_c_[u] == 0) --sf_count_;
  Relink(u, s);
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

// ---- backtracking ----------------------------------------------------------

size_t SearchContext::Mark() {
  KRCORE_DCHECK(!dead_);
  auto& checkpoints = journal_.checkpoints;
  auto& slabs = journal_.slabs;
  // The next record follows the top checkpoint's, in its slab or the next.
  uint32_t slab = 0, slot = 0;
  if (!checkpoints.empty()) {
    slab = checkpoints.back().slab;
    slot = checkpoints.back().slot + 1;
    if (slot == kFirstSlabRecords << slab) {
      ++slab;
      slot = 0;
    }
  }
  const size_t record_words = RecordWords();
  if (slab == slabs.size()) {
    // Default-initialized: pages are touched only when a record is written.
    slabs.emplace_back(
        new uint32_t[(size_t{kFirstSlabRecords} << slab) * record_words]);
  }
  uint32_t* out = slabs[slab].get() + slot * record_words;
  ForEachRecordArray(mc_connected_, [&out](const std::vector<uint32_t>& a) {
    std::copy(a.begin(), a.end(), out);
    out += a.size();
  });
  checkpoints.push_back({journal_.trail.size(), dp_pairs_c_, edges_mc_,
                         sf_count_, mc_connected_, slab, slot});
  return checkpoints.size() - 1;
}

void SearchContext::RewindTo(size_t mark) {
  auto& checkpoints = journal_.checkpoints;
  KRCORE_DCHECK(mark < checkpoints.size());
  const Checkpoint cp = checkpoints[mark];
  checkpoints.resize(mark);

  // Membership: replay the trail LIFO. A restored vertex goes to the front
  // of its list, so list order (which Choose() tie-breaks read) is a
  // function of the op sequence, not of the mark-time order.
  auto& trail = journal_.trail;
  while (trail.size() > cp.trail_size) {
    const TrailEntry e = trail.back();
    trail.pop_back();
    Relink(e.u, e.old);
  }
  // Counters, and the proof's tree when the proof held at Mark().
  const uint32_t* in =
      journal_.slabs[cp.slab].get() + cp.slot * RecordWords();
  ForEachRecordArray(cp.mc_connected, [&in](std::vector<uint32_t>& a) {
    std::copy(in, in + a.size(), a.begin());
    in += a.size();
  });
  dp_pairs_c_ = cp.dp_pairs_c;
  edges_mc_ = cp.edges_mc;
  sf_count_ = cp.sf_count;
  mc_connected_ = cp.mc_connected;
  dead_ = false;
  peel_queue_.clear();
}

// ---- discard / move primitives --------------------------------------------

void SearchContext::DiscardFromC(VertexId u) {
  KRCORE_DCHECK(state_[u] == VertexState::kInC);
  // The tree minus a leaf still spans the rest of M ∪ C. u is a candidate,
  // so it is never the root (an M vertex).
  if (mc_connected_) {
    if (tree_children_[u] == 0) {
      --tree_children_[tree_parent_[u]];
    } else {
      mc_connected_ = false;
    }
  }
  // Destination: E keeps discarded vertices that are similar to all of M
  // (Sec 5.2's definition of the relevant excluded set).
  bool to_e = track_excluded_ && dp_m_[u] == 0;
  ChangeState(u, to_e ? VertexState::kInE : VertexState::kRemoved);

  // u leaves C: DP(C) loses the pairs (u, x in C); dp_c drops for every
  // dissimilar vertex regardless of its state (E members consult dp_c in
  // the Theorem 5/6 checks).
  dp_pairs_c_ -= dp_c_[u];
  for (VertexId x : comp_->dissimilar[u]) ApplyDpC(x, -1);
  if (to_e) {
    for (VertexId x : comp_->dissimilar[u]) ++dp_e_[x];
  }

  // u leaves M ∪ C: neighbors lose structure degree; under-k candidates are
  // queued for peeling (Thm 2); an under-k M vertex kills the branch.
  edges_mc_ -= deg_mc_[u];
  for (VertexId v : comp_->graph.neighbors(u)) {
    VertexState sv = state_[v];
    if (sv == VertexState::kInC || sv == VertexState::kInM) {
      if (--deg_mc_[v] < k_) {
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
  for (VertexId x : comp_->dissimilar[u]) --dp_e_[x];
}

void SearchContext::MoveToM(VertexId u) {
  KRCORE_DCHECK(state_[u] == VertexState::kInC);
  ChangeState(u, VertexState::kInM);

  // u leaves C (same DP(C) bookkeeping as a discard, but u stays in M ∪ C).
  dp_pairs_c_ -= dp_c_[u];
  for (VertexId x : comp_->dissimilar[u]) ApplyDpC(x, -1);

  // deg(·, M) grows for u's neighbors.
  for (VertexId v : comp_->graph.neighbors(u)) ++deg_m_[v];

  // Similarity pruning (Thm 3): u's dissimilar vertices cannot coexist with
  // M anymore — candidates are discarded, E members dropped.
  for (VertexId x : comp_->dissimilar[u]) {
    ++dp_m_[x];
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
    // Graph search over M ∪ C starting from one M vertex, recording its
    // spanning tree. It stops as soon as every member is marked: the rest
    // of the stack cannot change the verdict, and a disconnected M ∪ C
    // always runs to exhaustion.
    if (++bfs_epoch_ == 0) {
      std::fill(bfs_mark_.begin(), bfs_mark_.end(), 0);
      bfs_epoch_ = 1;
    }
    const VertexId members = m_list_.size() + c_list_.size();
    VertexId start = m_list_.First();
    bfs_mark_[start] = bfs_epoch_;
    tree_parent_[start] = kInvalidVertex;
    tree_children_[start] = 0;
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
          tree_parent_[v] = u;
          tree_children_[v] = 0;
          ++tree_children_[u];
          bfs_stack_.push_back(v);
          ++marked;
        }
      }
    }
    bfs_stack_.clear();
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
    for (VertexId u = c_list_.First(); u != kInvalidVertex;
         u = c_list_.Next(u)) {
      if (bfs_mark_[u] != bfs_epoch_) unreachable_.push_back(u);
    }
    const bool discarded = !unreachable_.empty();
    for (VertexId u : unreachable_) {
      if (state_[u] == VertexState::kInC) DiscardFromC(u);
      if (dead_) break;
    }
    unreachable_.clear();
    if (dead_) return;
    DrainPeel();
    if (peel_queue_.empty() && !discarded) return;
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
