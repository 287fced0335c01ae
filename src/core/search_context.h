#ifndef KRCORE_CORE_SEARCH_CONTEXT_H_
#define KRCORE_CORE_SEARCH_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/krcore_types.h"
#include "core/pipeline.h"

namespace krcore {

/// Intrusive doubly-linked list over a fixed vertex universe, with O(1)
/// insert/remove. Used to iterate the M / C / E sets without scanning all
/// vertices. Removal anywhere and front-insertion are both reversible, so
/// SearchContext's membership trail can undo them.
class VertexList {
 public:
  void Init(VertexId n);
  void PushFront(VertexId u);
  void Remove(VertexId u);
  bool Contains(VertexId u) const { return prev_[u] != kNil; }
  VertexId size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Iteration: for (v = list.First(); v != kInvalidVertex; v = list.Next(v))
  VertexId First() const;
  VertexId Next(VertexId u) const;

  /// Copies the members into a vector (unspecified order).
  std::vector<VertexId> Materialize() const;

 private:
  static constexpr VertexId kNil = kInvalidVertex;
  // Slot n is the sentinel head.
  std::vector<VertexId> next_, prev_;
  VertexId head_ = kNil;
  VertexId size_ = 0;
};

/// Per-vertex search state (Table 1's M, C, E plus discarded).
enum class VertexState : uint8_t {
  kInC = 0,      // candidate
  kInM = 1,      // chosen
  kInE = 2,      // excluded but similar to all of M (relevant for Thm 5/6)
  kRemoved = 3,  // discarded and irrelevant
};

/// Branch-and-bound state for one component, implementing the candidate
/// pruning rules (Thms 2 and 3), the similarity/degree invariants
/// (Equations 1 and 2), the retention rule (Thm 4 / Remark 1) and the
/// excluded-set maintenance that Theorems 5 and 6 rely on.
///
/// Backtracking mixes trailing and copying: membership changes go on a trail
/// and are replayed LIFO, while Mark() copies the per-vertex counters and
/// RewindTo() copies them back, so a node pays O(#state changes + n) instead
/// of one journal entry per ±1. All ids are component-local.
class SearchContext {
 public:
  /// `track_excluded` keeps E and the dp_e counters up to date (needed by
  /// early termination and the smart maximal check; BasicEnum turns it off).
  SearchContext(const ComponentContext& comp, uint32_t k, bool track_excluded);

  SearchContext(SearchContext&&) = default;
  SearchContext& operator=(SearchContext&&) = default;

  /// Deep copy of the current live state with an *empty* journal (no trail,
  /// no checkpoints, no slab storage): the copy behaves exactly like the
  /// original under any op sequence, but its Mark()/RewindTo() horizon
  /// starts at the fork point. This is what the parallel drivers hand to a
  /// forked subtree task — the task explores its branch on the copy while
  /// the original backtracks independently. Must not be called on a dead
  /// context.
  SearchContext Fork() const;

  const ComponentContext& component() const { return *comp_; }
  uint32_t k() const { return k_; }

  // ---- set access -------------------------------------------------------
  VertexState state(VertexId u) const { return state_[u]; }
  const VertexList& m_list() const { return m_list_; }
  const VertexList& c_list() const { return c_list_; }
  const VertexList& e_list() const { return e_list_; }

  /// Structure degree of u w.r.t. M ∪ C (valid while u ∈ M ∪ C; frozen at
  /// discard time otherwise).
  uint32_t deg_mc(VertexId u) const { return deg_mc_[u]; }
  /// Number of u's neighbors currently in M (maintained for every vertex).
  uint32_t deg_m(VertexId u) const { return deg_m_[u]; }
  /// DP(u, C): number of u's dissimilar vertices currently in C.
  uint32_t dp_c(VertexId u) const { return dp_c_[u]; }
  /// DP(u, M).
  uint32_t dp_m(VertexId u) const { return dp_m_[u]; }
  /// DP(u, E) — only maintained when track_excluded is on.
  uint32_t dp_e(VertexId u) const { return dp_e_[u]; }

  /// DP(C): number of dissimilar pairs with both endpoints in C.
  uint64_t dissimilar_pairs_c() const { return dp_pairs_c_; }
  /// |E(M ∪ C)|: edges with both endpoints in M ∪ C.
  uint64_t edges_mc() const { return edges_mc_; }
  /// |SF(C)|: candidates similar to every other candidate (Thm 4).
  VertexId sf_count() const { return sf_count_; }

  bool dead() const { return dead_; }

  /// True iff u ∈ C and u is similarity-free w.r.t. C.
  bool InSfC(VertexId u) const {
    return state_[u] == VertexState::kInC && dp_c_[u] == 0;
  }

  /// C == SF(C): per Theorem 4, M ∪ C is then a (k,r)-core.
  bool CandidatesAllSimilarityFree() const {
    return sf_count_ == c_list_.size();
  }

  // ---- branching operations ---------------------------------------------
  /// Expand branch: moves u from C to M, applies similarity pruning (Thm 3)
  /// against u, then the structure-peel cascade (Thm 2), then the
  /// M-connectivity reduction. Returns false iff the branch died (an M
  /// vertex lost the structure constraint or M became disconnected).
  bool Expand(VertexId u);

  /// Shrink branch: discards u from C (into E when similar to all of M and
  /// excluded tracking is on), then cascades. Returns false iff dead.
  bool Shrink(VertexId u);

  /// Remark 1: repeatedly moves every u ∈ SF(C) with deg(u, M) >= k straight
  /// into M. Returns false iff a cascade killed the branch. The number of
  /// promotions performed is added to *promotions (may be null).
  bool PromoteSimilarityFree(uint64_t* promotions);

  // ---- backtracking -------------------------------------------------------
  /// Pushes a checkpoint of the current state and returns its token.
  size_t Mark();
  /// Restores the exact state at Mark() and pops that checkpoint and every
  /// later one, so each token is rewound at most once; clears the dead flag.
  void RewindTo(size_t mark);

  /// Members of M ∪ C (sorted ascending).
  std::vector<VertexId> MaterializeMC() const;

 private:
  friend class SearchContextTestPeer;

  // Fork() is the only copy entry point. The member-wise copy leaves the
  // journal empty (see Journal) and the scratch buffers are empty between
  // ops, so a fork copies live state only.
  SearchContext(const SearchContext&) = default;
  SearchContext& operator=(const SearchContext&) = delete;

  /// A membership change: u's state before it.
  struct TrailEntry {
    VertexId u;
    VertexState old;
  };
  /// The scalars of one Mark(); its per-vertex arrays live in a slab record.
  struct Checkpoint {
    size_t trail_size;
    uint64_t dp_pairs_c, edges_mc;
    VertexId sf_count;
    bool mc_connected;
    uint32_t slab, slot;  // record position: journal_.slabs[slab], slot-th
  };
  /// Backtracking storage: the membership trail, the checkpoint stack and
  /// the slabs holding the checkpoints' arrays. Slab i holds
  /// kFirstSlabRecords << i records; a slab is allocated once, kept across
  /// rewinds and never reallocated. Copying yields an empty journal, so a
  /// fork carries none of its parent's storage.
  struct Journal {
    Journal() = default;
    Journal(const Journal&) {}
    Journal& operator=(const Journal&) = delete;
    Journal(Journal&&) = default;
    Journal& operator=(Journal&&) = default;

    /// Heap bytes held (capacity, not use).
    size_t Bytes(size_t record_words) const;

    std::vector<TrailEntry> trail;
    std::vector<Checkpoint> checkpoints;
    std::vector<std::unique_ptr<uint32_t[]>> slabs;
  };
  static constexpr uint32_t kFirstSlabRecords = 4;

  /// Moves u into state s: the trail entry, SF(C) accounting, list links.
  /// Branch ops never move a vertex back into C; only RewindTo does.
  void ChangeState(VertexId u, VertexState s);
  /// Moves u between the M / C / E lists; shared by ChangeState and the
  /// trail replay in RewindTo.
  void Relink(VertexId u, VertexState s);
  /// dp_c_[u] += d with SF(C) accounting.
  void ApplyDpC(VertexId u, int32_t d);
  /// Calls f on each per-vertex array a checkpoint record holds, in record
  /// order: the counters (dp_e_ only while tracked), then, when `with_tree`,
  /// the connectivity proof's tree.
  template <typename F>
  void ForEachRecordArray(bool with_tree, F&& f) {
    for (std::vector<uint32_t>* a : {&deg_mc_, &deg_m_, &dp_c_, &dp_m_}) f(*a);
    if (track_excluded_) f(dp_e_);
    if (with_tree) {
      f(tree_parent_);
      f(tree_children_);
    }
  }
  /// uint32 words in one slab record: every array ForEachRecordArray visits.
  size_t RecordWords() const {
    return (track_excluded_ ? 7 : 6) * static_cast<size_t>(state_.size());
  }

  /// Discards u from C: destination E or Removed, dp/deg updates, enqueues
  /// under-degree neighbors. Never called for M vertices.
  void DiscardFromC(VertexId u);
  /// Drops u out of E (it became dissimilar to M).
  void DropFromE(VertexId u);
  /// Moves u from C to M with all counter updates and similarity pruning.
  void MoveToM(VertexId u);
  /// Processes the pending structure-peel worklist until empty or dead.
  void DrainPeel();
  /// Discards C vertices unreachable from M (when M is non-empty); kills the
  /// branch when M itself is not connected within M ∪ C. Loops with DrainPeel
  /// until a fixpoint. Returns at once while mc_connected_ holds; otherwise
  /// a connected verdict records the search's spanning tree as the proof.
  void EnforceConnectivity();

  const ComponentContext* comp_;
  uint32_t k_;
  bool track_excluded_;

  std::vector<VertexState> state_;
  VertexList m_list_, c_list_, e_list_;
  std::vector<uint32_t> deg_mc_, deg_m_;
  std::vector<uint32_t> dp_c_, dp_m_, dp_e_;
  uint64_t dp_pairs_c_ = 0;
  uint64_t edges_mc_ = 0;
  VertexId sf_count_ = 0;
  bool dead_ = false;
  // The connectivity proof: set when the connectivity search reached all of
  // M ∪ C from a non-empty M, with its spanning tree (tree_parent_, rooted
  // at an M vertex, and each member's child count). Moving a vertex from C
  // to M keeps the vertex set, so the proof stands; discarding a tree leaf
  // keeps it too (the rest of the tree still spans); discarding an inner
  // vertex clears it. Checkpoints save and restore the proof with its tree.
  bool mc_connected_ = false;
  std::vector<VertexId> tree_parent_;
  std::vector<uint32_t> tree_children_;

  Journal journal_;
  // Scratch, empty between ops on a live context.
  std::vector<VertexId> peel_queue_;
  std::vector<VertexId> bfs_stack_;
  std::vector<VertexId> unreachable_;
  // Connectivity search marks: bfs_mark_[u] == bfs_epoch_ iff reached.
  std::vector<uint32_t> bfs_mark_;
  uint32_t bfs_epoch_ = 0;
};

}  // namespace krcore

#endif  // KRCORE_CORE_SEARCH_CONTEXT_H_
