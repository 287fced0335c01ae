#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/pipeline.h"
#include "core/search_context.h"
#include "core/search_order.h"
#include "test_helpers.h"

namespace krcore {
namespace {

using test::MakeGrouped;

ComponentContext PrepareSingle(const test::GroupedSimilarity& fixture,
                               uint32_t k) {
  auto oracle = fixture.MakeOracle();
  PipelineOptions opts;
  opts.k = k;
  std::vector<ComponentContext> comps;
  Status s = PrepareComponents(fixture.graph, oracle, opts, &comps);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(comps.size(), 1u);
  return std::move(comps[0]);
}

/// A component with one dissimilar pair so measurement orders have signal:
/// two K4s sharing two vertices; the outer corners are dissimilar.
struct Fixture {
  ComponentContext comp;
  SearchContext ctx;
  Fixture(ComponentContext c, uint32_t k)
      : comp(std::move(c)), ctx(comp, k, true) {}
};

ComponentContext MakeSignalComponent() {
  std::vector<uint32_t> groups{1, 1, 0, 0, 2, 2};
  auto fixture = MakeGrouped(
      6,
      {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
       {0, 4}, {0, 5}, {1, 4}, {1, 5}, {4, 5}},
      groups);
  std::vector<GeoPoint> pts{{0.9, 0}, {0.9, 0.1}, {0, 0},
                            {0, 0.1}, {1.8, 0},  {1.8, 0.1}};
  fixture.attributes = AttributeTable::ForGeo(std::move(pts));
  return PrepareSingle(fixture, 2);
}

TEST(SearchOrder, AllOrdersReturnEligibleVertices) {
  auto comp = MakeSignalComponent();
  SearchContext ctx(comp, 2, true);
  for (VertexOrder order :
       {VertexOrder::kRandom, VertexOrder::kDegree, VertexOrder::kDelta1,
        VertexOrder::kDelta2, VertexOrder::kDelta1ThenDelta2,
        VertexOrder::kLambdaCombo}) {
    SearchOrderPolicy policy(order, BranchOrder::kAdaptive, 5.0, 3);
    BranchChoice choice = policy.Choose(ctx, /*restrict_to_non_sf=*/true,
                                        /*sum_branches=*/false);
    ASSERT_NE(choice.vertex, kInvalidVertex);
    EXPECT_EQ(ctx.state(choice.vertex), VertexState::kInC);
    EXPECT_GT(ctx.dp_c(choice.vertex), 0u)
        << "restricted choice must avoid SF(C)";
  }
}

TEST(SearchOrder, UnrestrictedChoiceMayPickSfVertices) {
  // All-similar K4: every vertex is similarity free; unrestricted mode
  // (BasicEnum) must still pick something.
  auto fixture = MakeGrouped(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, {0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  SearchOrderPolicy policy(VertexOrder::kDelta1ThenDelta2,
                           BranchOrder::kAdaptive, 5.0, 3);
  BranchChoice choice = policy.Choose(ctx, /*restrict_to_non_sf=*/false,
                                      /*sum_branches=*/true);
  EXPECT_NE(choice.vertex, kInvalidVertex);
}

TEST(SearchOrder, FixedBranchOrdersRespected) {
  auto comp = MakeSignalComponent();
  SearchContext ctx(comp, 2, true);
  SearchOrderPolicy expand(VertexOrder::kDegree, BranchOrder::kExpandFirst,
                           5.0, 3);
  EXPECT_TRUE(expand.Choose(ctx, true, false).expand_first);
  SearchOrderPolicy shrink(VertexOrder::kDegree, BranchOrder::kShrinkFirst,
                           5.0, 3);
  EXPECT_FALSE(shrink.Choose(ctx, true, false).expand_first);
}

TEST(SearchOrder, DegreePicksHighestDegree) {
  auto comp = MakeSignalComponent();
  SearchContext ctx(comp, 2, true);
  SearchOrderPolicy policy(VertexOrder::kDegree, BranchOrder::kAdaptive, 5.0,
                           3);
  BranchChoice choice = policy.Choose(ctx, /*restrict_to_non_sf=*/true,
                                      /*sum_branches=*/true);
  // Eligible (conflicted) vertices are the corners (parents 2,3,4,5); all
  // have equal degree 3, so the tie-break picks the smallest id.
  uint32_t chosen_deg = ctx.deg_mc(choice.vertex);
  const VertexList& c = ctx.c_list();
  for (VertexId u = c.First(); u != kInvalidVertex; u = c.Next(u)) {
    if (ctx.dp_c(u) > 0) EXPECT_LE(ctx.deg_mc(u), chosen_deg);
  }
}

TEST(SearchOrder, RandomIsSeedDeterministic) {
  auto comp = MakeSignalComponent();
  SearchContext ctx(comp, 2, true);
  SearchOrderPolicy a(VertexOrder::kRandom, BranchOrder::kAdaptive, 5.0, 11);
  SearchOrderPolicy b(VertexOrder::kRandom, BranchOrder::kAdaptive, 5.0, 11);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a.Choose(ctx, true, true).vertex,
              b.Choose(ctx, true, true).vertex);
  }
}

TEST(SearchOrder, InitialStageUsesDegreeForMeasurementOrders) {
  // With M empty the measurement orders fall back to highest degree
  // (Sec 7.1). Construct signal component; M empty initially.
  auto comp = MakeSignalComponent();
  SearchContext ctx(comp, 2, true);
  SearchOrderPolicy measured(VertexOrder::kLambdaCombo, BranchOrder::kAdaptive,
                             5.0, 3);
  SearchOrderPolicy degree(VertexOrder::kDegree, BranchOrder::kAdaptive, 5.0,
                           3);
  EXPECT_EQ(measured.Choose(ctx, true, false).vertex,
            degree.Choose(ctx, true, false).vertex);
}

// ---------------------------------------------------------------------------
// Heuristic pinning: the ordering kernel may get faster, never different.
// ---------------------------------------------------------------------------

constexpr VertexOrder kAllOrders[] = {
    VertexOrder::kRandom, VertexOrder::kDegree, VertexOrder::kDelta1,
    VertexOrder::kDelta2, VertexOrder::kDelta1ThenDelta2,
    VertexOrder::kLambdaCombo};

/// The seeded fixtures the golden counters were recorded on.
Dataset GoldenDataset(bool geo) {
  return geo ? test::MakeRandomGeo(140, 800, 4)
             : test::MakeRandomKeyword(100, 500, 2);
}
double GoldenRadius(bool geo) { return geo ? 0.5 : 0.15; }

struct GoldenRow {
  bool geo;
  VertexOrder order;
  bool maximum;  // AdvMax when true, AdvEnum otherwise
  uint64_t search_nodes, expand_branches, shrink_branches, promotions,
      early_terminations, maximal_check_nodes, bound_recomputes;
};

/// Recorded with 1-thread AdvEnum / AdvMax (k = 3) before the search kernel
/// memoized its two-hop sums and connectivity proof. Any drift means a
/// branching decision changed; an intended heuristic change must re-record
/// this table and say why.
const GoldenRow kGolden[] = {
    {true, VertexOrder::kRandom, false, 977, 968, 968, 4, 0, 9, 0},
    {true, VertexOrder::kRandom, true, 705, 652, 652, 7, 2, 0, 162},
    {true, VertexOrder::kDegree, false, 485, 477, 477, 10, 1, 6, 0},
    {true, VertexOrder::kDegree, true, 461, 414, 414, 9, 0, 0, 135},
    {true, VertexOrder::kDelta1, false, 214, 208, 208, 0, 0, 5, 0},
    {true, VertexOrder::kDelta1, true, 341, 296, 296, 1, 0, 0, 82},
    {true, VertexOrder::kDelta2, false, 18030, 17905, 17905, 248, 116, 9, 0},
    {true, VertexOrder::kDelta2, true, 1144, 1097, 1097, 3, 0, 0, 191},
    {true, VertexOrder::kDelta1ThenDelta2, false, 213, 207, 207, 0, 0, 5, 0},
    {true, VertexOrder::kDelta1ThenDelta2, true, 635, 576, 576, 4, 0, 0, 129},
    {true, VertexOrder::kLambdaCombo, false, 318, 312, 312, 0, 0, 5, 0},
    {true, VertexOrder::kLambdaCombo, true, 702, 637, 637, 6, 1, 0, 185},
    {false, VertexOrder::kRandom, false, 174, 172, 172, 0, 0, 1, 0},
    {false, VertexOrder::kRandom, true, 173, 166, 166, 0, 0, 0, 45},
    {false, VertexOrder::kDegree, false, 105, 103, 103, 0, 0, 1, 0},
    {false, VertexOrder::kDegree, true, 105, 103, 103, 0, 0, 0, 34},
    {false, VertexOrder::kDelta1, false, 65, 63, 63, 0, 0, 1, 0},
    {false, VertexOrder::kDelta1, true, 108, 106, 106, 0, 0, 0, 25},
    {false, VertexOrder::kDelta2, false, 414, 412, 412, 7, 0, 1, 0},
    {false, VertexOrder::kDelta2, true, 248, 246, 246, 1, 0, 0, 36},
    {false, VertexOrder::kDelta1ThenDelta2, false, 68, 66, 66, 0, 0, 1, 0},
    {false, VertexOrder::kDelta1ThenDelta2, true, 155, 153, 153, 0, 0, 0, 27},
    {false, VertexOrder::kLambdaCombo, false, 71, 69, 69, 0, 0, 1, 0},
    {false, VertexOrder::kLambdaCombo, true, 157, 155, 155, 0, 0, 0, 42},
};

/// The table row a run produced, printed with every mismatch so an
/// intended heuristic change can re-record the table.
std::string FormatRow(bool geo, VertexOrder order, bool maximum,
                      const MiningStats& s) {
  static const char* const kNames[] = {"kRandom", "kDegree", "kDelta1",
                                       "kDelta2", "kDelta1ThenDelta2",
                                       "kLambdaCombo"};
  std::string row = std::string("{") + (geo ? "true" : "false") +
                    ", VertexOrder::" + kNames[static_cast<int>(order)] +
                    ", " + (maximum ? "true" : "false");
  for (uint64_t v : {s.search_nodes, s.expand_branches, s.shrink_branches,
                     s.promotions, s.early_terminations,
                     s.maximal_check_nodes, s.bound_recomputes}) {
    row += ", " + std::to_string(v);
  }
  return row + "},";
}

TEST(SearchOrderGolden, CountersMatchRecordedHeuristics) {
  constexpr uint32_t kK = 3;
  size_t checked = 0;
  for (bool geo : {true, false}) {
    Dataset dataset = GoldenDataset(geo);
    SimilarityOracle oracle(&dataset.attributes, dataset.metric,
                            GoldenRadius(geo));
    for (VertexOrder order : kAllOrders) {
      for (bool maximum : {false, true}) {
        MiningStats stats;
        if (maximum) {
          MaxOptions opts = AdvMaxOptions(kK);
          opts.order = order;
          auto result = FindMaximumCore(dataset.graph, oracle, opts);
          ASSERT_TRUE(result.status.ok());
          stats = result.stats;
        } else {
          EnumOptions opts = AdvEnumOptions(kK);
          opts.order = order;
          auto result = EnumerateMaximalCores(dataset.graph, oracle, opts);
          ASSERT_TRUE(result.status.ok());
          stats = result.stats;
        }
        std::string actual = FormatRow(geo, order, maximum, stats);
        const GoldenRow* row = nullptr;
        for (const GoldenRow& g : kGolden) {
          if (g.geo == geo && g.order == order && g.maximum == maximum) {
            row = &g;
          }
        }
        ASSERT_NE(row, nullptr) << "no golden row; actual:\n    " << actual;
        ++checked;
        EXPECT_EQ(stats.search_nodes, row->search_nodes) << actual;
        EXPECT_EQ(stats.expand_branches, row->expand_branches) << actual;
        EXPECT_EQ(stats.shrink_branches, row->shrink_branches) << actual;
        EXPECT_EQ(stats.promotions, row->promotions) << actual;
        EXPECT_EQ(stats.early_terminations, row->early_terminations)
            << actual;
        EXPECT_EQ(stats.maximal_check_nodes, row->maximal_check_nodes)
            << actual;
        EXPECT_EQ(stats.bound_recomputes, row->bound_recomputes) << actual;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

/// A test-local copy of the un-memoized Sec 7.2 ordering (per-candidate
/// two-hop scans, pruned set counted by a full row scan) — the slow oracle
/// the production policy must agree with bit for bit.
class ReferencePolicy {
 public:
  ReferencePolicy(VertexOrder order, BranchOrder branch_order, double lambda,
                  uint64_t seed)
      : order_(order), branch_order_(branch_order), lambda_(lambda),
        rng_(seed) {}

  BranchChoice Choose(const SearchContext& ctx, bool restrict_to_non_sf,
                      bool sum_branches) {
    const VertexList& c = ctx.c_list();
    BranchChoice choice;
    auto finalize = [this](BranchChoice ch, bool adaptive_expand_first) {
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
      std::vector<VertexId> eligible;
      for (VertexId u = c.First(); u != kInvalidVertex; u = c.Next(u)) {
        if (restrict_to_non_sf && ctx.dp_c(u) == 0) continue;
        eligible.push_back(u);
      }
      choice.vertex = eligible[rng_.NextBounded(eligible.size())];
      return finalize(choice, true);
    }
    if (order_ == VertexOrder::kDegree || ctx.m_list().empty()) {
      uint32_t best_deg = 0;
      for (VertexId u = c.First(); u != kInvalidVertex; u = c.Next(u)) {
        if (restrict_to_non_sf && ctx.dp_c(u) == 0) continue;
        uint32_t d = ctx.deg_mc(u);
        if (choice.vertex == kInvalidVertex || d > best_deg ||
            (d == best_deg && u < choice.vertex)) {
          choice.vertex = u;
          best_deg = d;
        }
      }
      return finalize(choice, true);
    }
    double best_score = -1e300;
    double best_tiebreak = 1e300;
    bool best_expand_first = true;
    for (VertexId u = c.First(); u != kInvalidVertex; u = c.Next(u)) {
      if (restrict_to_non_sf && ctx.dp_c(u) == 0) continue;
      Deltas est = EstimateDeltas(ctx, u);
      double score = 0.0, tiebreak = 0.0;
      double se = 0.0, ss = 0.0;
      switch (order_) {
        case VertexOrder::kDelta1:
        case VertexOrder::kDelta1ThenDelta2:
          se = est.d1_expand;
          ss = est.d1_shrink;
          break;
        case VertexOrder::kDelta2:
          se = -est.d2_expand;
          ss = -est.d2_shrink;
          break;
        default:
          se = lambda_ * est.d1_expand - est.d2_expand;
          ss = lambda_ * est.d1_shrink - est.d2_shrink;
          break;
      }
      score = sum_branches ? se + ss : std::max(se, ss);
      if (order_ == VertexOrder::kDelta1ThenDelta2) {
        tiebreak = sum_branches ? est.d2_expand + est.d2_shrink
                                : std::min(est.d2_expand, est.d2_shrink);
      }
      if (score > best_score ||
          (score == best_score && tiebreak < best_tiebreak)) {
        best_score = score;
        best_tiebreak = tiebreak;
        choice.vertex = u;
        best_expand_first = se >= ss;
      }
    }
    return finalize(choice, best_expand_first);
  }

 private:
  struct Deltas {
    double d1_expand = 0.0, d2_expand = 0.0;
    double d1_shrink = 0.0, d2_shrink = 0.0;
  };

  Deltas EstimateDeltas(const SearchContext& ctx, VertexId u) {
    const ComponentContext& comp = ctx.component();
    const double total_dp = static_cast<double>(ctx.dissimilar_pairs_c());
    const double total_edges = static_cast<double>(ctx.edges_mc());
    Deltas est;
    {
      constexpr size_t kSampleCap = 24;
      std::vector<VertexId> removed;
      for (VertexId x : comp.dissimilar[u]) {
        if (ctx.state(x) == VertexState::kInC) removed.push_back(x);
      }
      double dp_drop = 0.0, edge_drop = 0.0;
      size_t sampled = std::min(removed.size(), kSampleCap);
      for (size_t i = 0; i < sampled; ++i) {
        VertexId x = removed[i];
        dp_drop += ctx.dp_c(x);
        edge_drop += ctx.deg_mc(x);
        for (VertexId y : comp.graph.neighbors(x)) {
          if (ctx.state(y) == VertexState::kInC &&
              ctx.deg_mc(y) == ctx.k()) {
            dp_drop += ctx.dp_c(y);
            edge_drop += ctx.deg_mc(y);
          }
        }
      }
      if (sampled > 0 && sampled < removed.size()) {
        double scale = static_cast<double>(removed.size()) / sampled;
        dp_drop *= scale;
        edge_drop *= scale;
      }
      dp_drop += ctx.dp_c(u);
      est.d1_expand =
          total_dp > 0.0 ? std::min(1.0, dp_drop / total_dp) : 0.0;
      est.d2_expand =
          total_edges > 0.0 ? std::min(1.0, edge_drop / total_edges) : 0.0;
    }
    {
      double dp_drop = ctx.dp_c(u);
      double edge_drop = ctx.deg_mc(u);
      for (VertexId y : comp.graph.neighbors(u)) {
        if (ctx.state(y) == VertexState::kInC && ctx.deg_mc(y) == ctx.k()) {
          dp_drop += ctx.dp_c(y);
          edge_drop += ctx.deg_mc(y);
        }
      }
      est.d1_shrink =
          total_dp > 0.0 ? std::min(1.0, dp_drop / total_dp) : 0.0;
      est.d2_shrink =
          total_edges > 0.0 ? std::min(1.0, edge_drop / total_edges) : 0.0;
    }
    return est;
  }

  VertexOrder order_;
  BranchOrder branch_order_;
  double lambda_;
  Rng rng_;
};

/// Differential check: on random reachable search states, the production
/// policy picks the same vertex and branch as the reference copy for every
/// vertex order, branch order, eligibility rule and scoring flavour.
class ChooseDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChooseDifferential, MatchesReferencePolicyOnRandomStates) {
  const uint64_t seed = GetParam();
  const bool geo = seed % 2 == 0;
  // Every other geo fixture is dense with a wide radius: candidates that
  // are all similar to M can still be dissimilar to more of C than the
  // ordering samples, so the extrapolated estimate is exercised too.
  const bool dense = seed % 4 == 0;
  Dataset dataset = geo ? (dense ? test::MakeRandomGeo(200, 1000, seed)
                                 : test::MakeRandomGeo(60, 300, seed))
                        : test::MakeRandomKeyword(60, 300, seed);
  const double r = geo ? (dense ? 0.6 : 0.5) : 0.25;
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, r);
  PipelineOptions popts;
  popts.k = 2;
  std::vector<ComponentContext> comps;
  ASSERT_TRUE(PrepareComponents(dataset.graph, oracle, popts, &comps).ok());

  struct Pair {
    SearchOrderPolicy fast;
    ReferencePolicy slow;
    bool restrict_to_non_sf, sum_branches;
  };
  size_t compared = 0, measured = 0, sampled_states = 0;
  for (const ComponentContext& comp : comps) {
    std::vector<Pair> pairs;
    for (VertexOrder order : kAllOrders) {
      for (BranchOrder branch :
           {BranchOrder::kAdaptive, BranchOrder::kExpandFirst,
            BranchOrder::kShrinkFirst}) {
        for (bool restrict_to_non_sf : {true, false}) {
          for (bool sum_branches : {true, false}) {
            pairs.push_back({SearchOrderPolicy(order, branch, 5.0, seed),
                             ReferencePolicy(order, branch, 5.0, seed),
                             restrict_to_non_sf, sum_branches});
          }
        }
      }
    }
    SearchContext ctx(comp, 2, true);
    Rng rng(seed * 1009 + 5);
    std::vector<size_t> marks;
    for (int step = 0; step < 160; ++step) {
      const VertexList& c = ctx.c_list();
      bool any_eligible = false, over_cap = false;
      for (VertexId u = c.First(); u != kInvalidVertex; u = c.Next(u)) {
        any_eligible |= ctx.dp_c(u) > 0;
        over_cap |= ctx.dp_c(u) > 24;
      }
      if (!ctx.m_list().empty() && over_cap) ++sampled_states;
      for (Pair& p : pairs) {
        if (c.empty() || (p.restrict_to_non_sf && !any_eligible)) continue;
        BranchChoice a = p.fast.Choose(ctx, p.restrict_to_non_sf,
                                       p.sum_branches);
        BranchChoice b = p.slow.Choose(ctx, p.restrict_to_non_sf,
                                       p.sum_branches);
        ASSERT_EQ(a.vertex, b.vertex) << "seed=" << seed << " step=" << step;
        ASSERT_EQ(a.expand_first, b.expand_first)
            << "seed=" << seed << " step=" << step;
        ++compared;
        if (!ctx.m_list().empty()) ++measured;
      }
      // Random walk over reachable states: branch ops with AdvEnum/AdvMax's
      // promotion step, and rewinds.
      if ((rng.NextDouble() < 0.25 || c.empty()) && !marks.empty()) {
        ctx.RewindTo(marks.back());
        marks.pop_back();
        continue;
      }
      if (c.empty()) break;
      auto members = c.Materialize();
      std::sort(members.begin(), members.end());
      VertexId u = members[rng.NextBounded(members.size())];
      marks.push_back(ctx.Mark());
      bool alive = rng.NextBernoulli(0.5) ? ctx.Expand(u) : ctx.Shrink(u);
      if (alive && rng.NextBernoulli(0.5)) {
        alive = ctx.PromoteSimilarityFree(nullptr);
      }
      if (!alive) {
        ctx.RewindTo(marks.back());
        marks.pop_back();
      }
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_GT(measured, 0u) << "no state with M non-empty was compared";
  if (dense) {
    EXPECT_GT(sampled_states, 0u) << "sampling cap never exercised";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChooseDifferential,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace krcore
