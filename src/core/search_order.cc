#include "core/search_order.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/logging.h"

namespace krcore {
namespace {

/// Returns the highest-degree eligible candidate — also the rule used at the
/// initial stage (M = ∅) for the measurement-based orders (Sec 7.1).
VertexId HighestDegreeCandidate(const SearchContext& ctx,
                                bool restrict_to_non_sf) {
  const VertexList& c = ctx.c_list();
  VertexId best = kInvalidVertex;
  uint32_t best_deg = 0;
  for (VertexId u = c.First(); u != kInvalidVertex; u = c.Next(u)) {
    if (restrict_to_non_sf && ctx.dp_c(u) == 0) continue;
    uint32_t d = ctx.deg_mc(u);
    if (best == kInvalidVertex || d > best_deg ||
        (d == best_deg && u < best)) {
      best = u;
      best_deg = d;
    }
  }
  return best;
}

}  // namespace

const SearchOrderPolicy::Victims& SearchOrderPolicy::VictimsOf(
    const SearchContext& ctx, VertexId x) {
  Victims& v = victims_[x];
  if (v.stamp != memo_epoch_) {
    v.stamp = memo_epoch_;
    v.count = 0;
    v.dp_sum = 0;
    for (VertexId y : ctx.component().graph.neighbors(x)) {
      if (ctx.state(y) == VertexState::kInC && ctx.deg_mc(y) == ctx.k()) {
        ++v.count;
        v.dp_sum += ctx.dp_c(y);
      }
    }
  }
  return v;
}

SearchOrderPolicy::DeltaEstimate SearchOrderPolicy::EstimateDeltas(
    const SearchContext& ctx, VertexId u) {
  const ComponentContext& comp = ctx.component();
  const uint64_t k = ctx.k();
  const double total_dp = static_cast<double>(ctx.dissimilar_pairs_c());
  const double total_edges = static_cast<double>(ctx.edges_mc());
  DeltaEstimate est;

  // The drops are sums of integer counters, accumulated exactly as integers
  // and converted once (exact below 2^53), so memoized sums give the same
  // doubles as summing term by term.

  // --- Expand branch: the directly pruned vertices are u's dissimilar
  // candidates (Thm 3) — dp_c(u) of them; second hop: their neighbors in C
  // that would fall below degree k (Thm 2). The Sec 7.2 estimate only looks
  // two hops out; we additionally subsample large pruned sets (the first
  // kSampleCap in row order, extrapolating linearly) so a node's ordering
  // never costs more than O(|C| * kSampleCap * d).
  {
    constexpr uint32_t kSampleCap = 24;
    const uint32_t pruned = ctx.dp_c(u);
    uint64_t dp_sum = 0, edge_sum = 0;
    uint32_t sampled = 0;
    for (VertexId x : comp.dissimilar[u]) {
      if (sampled == kSampleCap) break;
      if (ctx.state(x) != VertexState::kInC) continue;
      const Victims& v = VictimsOf(ctx, x);
      dp_sum += ctx.dp_c(x) + v.dp_sum;
      edge_sum += ctx.deg_mc(x) + k * v.count;
      ++sampled;
    }
    double dp_drop = static_cast<double>(dp_sum);
    double edge_drop = static_cast<double>(edge_sum);
    if (sampled > 0 && sampled < pruned) {
      double scale = static_cast<double>(pruned) / sampled;
      dp_drop *= scale;
      edge_drop *= scale;
    }
    // u itself leaves C (its dissimilar pairs leave DP(C) as well).
    dp_drop += ctx.dp_c(u);
    est.d1_expand = total_dp > 0.0 ? std::min(1.0, dp_drop / total_dp) : 0.0;
    est.d2_expand =
        total_edges > 0.0 ? std::min(1.0, edge_drop / total_edges) : 0.0;
  }

  // --- Shrink branch: u is removed; second hop: u's neighbors in C at the
  // degree boundary.
  {
    const Victims& v = VictimsOf(ctx, u);
    double dp_drop = static_cast<double>(ctx.dp_c(u) + v.dp_sum);
    double edge_drop = static_cast<double>(ctx.deg_mc(u) + k * v.count);
    est.d1_shrink = total_dp > 0.0 ? std::min(1.0, dp_drop / total_dp) : 0.0;
    est.d2_shrink =
        total_edges > 0.0 ? std::min(1.0, edge_drop / total_edges) : 0.0;
  }
  return est;
}

BranchChoice SearchOrderPolicy::Choose(const SearchContext& ctx,
                                       bool restrict_to_non_sf,
                                       bool sum_branches) {
  const VertexList& c = ctx.c_list();
  KRCORE_DCHECK(!c.empty());

  BranchChoice choice;
  // Fixed branch orders short-circuit the per-branch scoring below.
  auto FinalizeBranch = [this](BranchChoice ch, bool adaptive_expand_first) {
    switch (branch_order_) {
      case BranchOrder::kAdaptive:
        ch.expand_first = adaptive_expand_first;
        break;
      case BranchOrder::kExpandFirst:
        ch.expand_first = true;
        break;
      case BranchOrder::kShrinkFirst:
        ch.expand_first = false;
        break;
    }
    return ch;
  };

  if (order_ == VertexOrder::kRandom) {
    std::vector<VertexId>& eligible = scratch_eligible_;
    eligible.clear();
    for (VertexId u = c.First(); u != kInvalidVertex; u = c.Next(u)) {
      if (restrict_to_non_sf && ctx.dp_c(u) == 0) continue;
      eligible.push_back(u);
    }
    KRCORE_DCHECK(!eligible.empty());
    choice.vertex = eligible[rng_.NextBounded(eligible.size())];
    return FinalizeBranch(choice, true);
  }

  if (order_ == VertexOrder::kDegree) {
    choice.vertex = HighestDegreeCandidate(ctx, restrict_to_non_sf);
    return FinalizeBranch(choice, true);
  }

  // Measurement-based orders. Initial stage: highest degree (Sec 7.1).
  if (ctx.m_list().empty()) {
    choice.vertex = HighestDegreeCandidate(ctx, restrict_to_non_sf);
    return FinalizeBranch(choice, true);
  }

  // Open a fresh memo epoch; stamps restart from 0 when the epoch wraps.
  if (victims_.size() < ctx.component().size()) {
    victims_.resize(ctx.component().size());
  }
  if (++memo_epoch_ == 0) {
    for (Victims& v : victims_) v.stamp = 0;
    memo_epoch_ = 1;
  }

  double best_score = -1e300;
  double best_tiebreak = 1e300;
  bool best_expand_first = true;
  for (VertexId u = c.First(); u != kInvalidVertex; u = c.Next(u)) {
    if (restrict_to_non_sf && ctx.dp_c(u) == 0) continue;
    DeltaEstimate est = EstimateDeltas(ctx, u);
    double score = 0.0, tiebreak = 0.0;
    bool expand_first = true;
    switch (order_) {
      case VertexOrder::kDelta1: {
        double se = est.d1_expand, ss = est.d1_shrink;
        score = sum_branches ? se + ss : std::max(se, ss);
        expand_first = se >= ss;
        break;
      }
      case VertexOrder::kDelta2: {
        // Prefer the smallest relative edge loss.
        double se = -est.d2_expand, ss = -est.d2_shrink;
        score = sum_branches ? se + ss : std::max(se, ss);
        expand_first = se >= ss;
        break;
      }
      case VertexOrder::kDelta1ThenDelta2: {
        double se = est.d1_expand, ss = est.d1_shrink;
        score = sum_branches ? se + ss : std::max(se, ss);
        tiebreak = sum_branches ? est.d2_expand + est.d2_shrink
                                : std::min(est.d2_expand, est.d2_shrink);
        expand_first = se >= ss;
        break;
      }
      case VertexOrder::kLambdaCombo: {
        double se = lambda_ * est.d1_expand - est.d2_expand;
        double ss = lambda_ * est.d1_shrink - est.d2_shrink;
        score = sum_branches ? se + ss : std::max(se, ss);
        expand_first = se >= ss;
        break;
      }
      default:
        KRCORE_CHECK(false) << "unhandled order";
    }
    if (score > best_score ||
        (score == best_score && tiebreak < best_tiebreak)) {
      best_score = score;
      best_tiebreak = tiebreak;
      choice.vertex = u;
      best_expand_first = expand_first;
    }
  }
  KRCORE_DCHECK(choice.vertex != kInvalidVertex);
  return FinalizeBranch(choice, best_expand_first);
}

}  // namespace krcore
