#include <gtest/gtest.h>

#include <algorithm>

#include "core/pipeline.h"
#include "core/search_context.h"
#include "test_helpers.h"

namespace krcore {

/// Reads SearchContext's private backtracking state.
class SearchContextTestPeer {
 public:
  /// Heap bytes held by the trail, the checkpoint stack and the slabs.
  static size_t JournalBytes(const SearchContext& ctx) {
    return ctx.journal_.Bytes(ctx.RecordWords());
  }

  static bool HasProof(const SearchContext& ctx) { return ctx.mc_connected_; }

  /// When the connectivity proof is set, checks that its stored tree spans
  /// M ∪ C over graph edges: one root, in M; every other member's parent is
  /// a member and a graph neighbour; parent chains reach the root; and the
  /// child counts match.
  static void ExpectProofSpans(const SearchContext& ctx) {
    if (!ctx.mc_connected_) return;
    const ComponentContext& comp = ctx.component();
    const VertexId n = comp.size();
    auto in_mc = [&](VertexId v) {
      return ctx.state(v) == VertexState::kInC ||
             ctx.state(v) == VertexState::kInM;
    };
    std::vector<uint32_t> children(n, 0);
    VertexId roots = 0, members = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (!in_mc(v)) continue;
      ++members;
      const VertexId p = ctx.tree_parent_[v];
      if (p == kInvalidVertex) {
        ++roots;
        EXPECT_EQ(ctx.state(v), VertexState::kInM) << "root " << v;
        continue;
      }
      if (p >= n) {
        ADD_FAILURE() << "parent of " << v << " out of range";
        continue;
      }
      EXPECT_TRUE(in_mc(p)) << "parent of " << v << " left M ∪ C";
      auto nbrs = comp.graph.neighbors(v);
      EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), p), nbrs.end())
          << "tree edge " << v << "-" << p << " is not a graph edge";
      ++children[p];
    }
    EXPECT_EQ(roots, 1u);
    for (VertexId v = 0; v < n; ++v) {
      if (!in_mc(v)) continue;
      EXPECT_EQ(ctx.tree_children_[v], children[v]) << "child count of " << v;
      VertexId x = v;
      for (VertexId hops = 0; hops < members && x < n; ++hops) {
        x = ctx.tree_parent_[x];
      }
      EXPECT_EQ(x, kInvalidVertex) << "parent chain of " << v << " cycles";
    }
  }
};

namespace {

using test::MakeGrouped;

/// Prepares a single component from the grouped fixture; fails the test if
/// preprocessing does not yield exactly one component.
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

/// Cross-checks every maintained counter against a from-scratch recompute.
void CheckInvariants(const SearchContext& ctx) {
  const ComponentContext& comp = ctx.component();
  const VertexId n = comp.size();
  uint64_t pairs_c = 0, edges_mc = 0;
  VertexId sf = 0;
  for (VertexId u = 0; u < n; ++u) {
    uint32_t deg_mc = 0, deg_m = 0;
    for (VertexId v : comp.graph.neighbors(u)) {
      VertexState sv = ctx.state(v);
      if (sv == VertexState::kInC || sv == VertexState::kInM) ++deg_mc;
      if (sv == VertexState::kInM) ++deg_m;
    }
    uint32_t dp_c = 0, dp_m = 0, dp_e = 0;
    for (VertexId v : comp.dissimilar[u]) {
      VertexState sv = ctx.state(v);
      dp_c += sv == VertexState::kInC;
      dp_m += sv == VertexState::kInM;
      dp_e += sv == VertexState::kInE;
    }
    VertexState su = ctx.state(u);
    EXPECT_EQ(ctx.deg_m(u), deg_m) << "deg_m mismatch at " << u;
    EXPECT_EQ(ctx.dp_c(u), dp_c) << "dp_c mismatch at " << u;
    EXPECT_EQ(ctx.dp_m(u), dp_m) << "dp_m mismatch at " << u;
    if (su == VertexState::kInC || su == VertexState::kInM) {
      EXPECT_EQ(ctx.deg_mc(u), deg_mc) << "deg_mc mismatch at " << u;
      EXPECT_EQ(ctx.dp_e(u), dp_e) << "dp_e mismatch at " << u;
      edges_mc += deg_mc;
      if (su == VertexState::kInC) {
        pairs_c += dp_c;
        if (dp_c == 0) ++sf;
      }
      // Invariants (Eq 1, Eq 2).
      EXPECT_GE(deg_mc, ctx.k());
      if (su == VertexState::kInM) {
        EXPECT_EQ(dp_c + dp_m, 0u);
      }
    }
    if (su == VertexState::kInE) {
      EXPECT_EQ(dp_m, 0u) << "E member dissimilar to M at " << u;
    }
  }
  EXPECT_EQ(ctx.dissimilar_pairs_c(), pairs_c / 2);
  EXPECT_EQ(ctx.edges_mc(), edges_mc / 2);
  EXPECT_EQ(ctx.sf_count(), sf);

  // The connectivity reduction: a live context with M non-empty keeps
  // M ∪ C connected (checked by a from-scratch graph search).
  if (!ctx.dead() && !ctx.m_list().empty()) {
    auto in_mc = [&](VertexId v) {
      VertexState sv = ctx.state(v);
      return sv == VertexState::kInC || sv == VertexState::kInM;
    };
    std::vector<bool> seen(n, false);
    std::vector<VertexId> stack{ctx.m_list().First()};
    seen[stack.back()] = true;
    size_t reached = 0;
    while (!stack.empty()) {
      VertexId u = stack.back();
      stack.pop_back();
      ++reached;
      for (VertexId v : comp.graph.neighbors(u)) {
        if (in_mc(v) && !seen[v]) {
          seen[v] = true;
          stack.push_back(v);
        }
      }
    }
    EXPECT_EQ(reached, ctx.m_list().size() + ctx.c_list().size())
        << "M ∪ C is disconnected";
  }
  SearchContextTestPeer::ExpectProofSpans(ctx);
}

TEST(VertexList, BasicOperations) {
  VertexList list;
  list.Init(5);
  EXPECT_TRUE(list.empty());
  list.PushFront(2);
  list.PushFront(4);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_TRUE(list.Contains(2));
  EXPECT_FALSE(list.Contains(3));
  auto members = list.Materialize();
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<VertexId>{2, 4}));
  list.Remove(4);
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list.First(), 2u);
  EXPECT_EQ(list.Next(2), kInvalidVertex);
}

TEST(VertexList, RemoveMiddleAndReinsert) {
  VertexList list;
  list.Init(4);
  list.PushFront(0);
  list.PushFront(1);
  list.PushFront(2);
  list.Remove(1);
  list.PushFront(1);
  auto members = list.Materialize();
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<VertexId>{0, 1, 2}));
}

TEST(SearchContext, InitialStateAllCandidates) {
  auto fixture = MakeGrouped(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}},
                             {0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  EXPECT_EQ(ctx.c_list().size(), 4u);
  EXPECT_TRUE(ctx.m_list().empty());
  EXPECT_TRUE(ctx.e_list().empty());
  EXPECT_TRUE(ctx.CandidatesAllSimilarityFree());
  CheckInvariants(ctx);
}

TEST(SearchContext, ExpandMovesToMAndPrunesDissimilar) {
  // C4 where the diagonal pair (0,2) is dissimilar (see pipeline test).
  auto fixture = MakeGrouped(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}},
                             {0, 0, 0, 0});
  std::vector<GeoPoint> pts{{0.0, 0.0}, {0.9, 0.0}, {1.8, 0.0}, {0.9, 0.0}};
  fixture.attributes = AttributeTable::ForGeo(std::move(pts));
  auto comp = PrepareSingle(fixture, 2);
  // Find the local id of parent 0.
  VertexId l0 = kInvalidVertex;
  for (VertexId i = 0; i < comp.size(); ++i) {
    if (comp.to_parent[i] == 0) l0 = i;
  }
  SearchContext ctx(comp, 2, true);
  // Expanding 0 forces its dissimilar partner out; the C4 then collapses
  // (remaining vertices drop below degree 2), killing the branch.
  EXPECT_FALSE(ctx.Expand(l0));
}

TEST(SearchContext, ExpandKeepsBranchAliveWhenSupported) {
  // Two triangles sharing an edge: 0-1-2 and 1-2-3; pair (0,3) dissimilar.
  auto fixture = MakeGrouped(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}},
                             {0, 0, 0, 0});
  std::vector<GeoPoint> pts{{0.0, 0.0}, {0.9, 0.0}, {0.9, 0.3}, {1.8, 0.0}};
  fixture.attributes = AttributeTable::ForGeo(std::move(pts));
  auto comp = PrepareSingle(fixture, 2);
  VertexId l0 = kInvalidVertex, l3 = kInvalidVertex;
  for (VertexId i = 0; i < comp.size(); ++i) {
    if (comp.to_parent[i] == 0) l0 = i;
    if (comp.to_parent[i] == 3) l3 = i;
  }
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Expand(l0));
  EXPECT_EQ(ctx.state(l0), VertexState::kInM);
  // 3 was discarded (dissimilar to M) — not into E.
  EXPECT_EQ(ctx.state(l3), VertexState::kRemoved);
  EXPECT_EQ(ctx.c_list().size(), 2u);
  CheckInvariants(ctx);
  // Now C == SF(C): remaining triangle is a (2,r)-core.
  EXPECT_TRUE(ctx.CandidatesAllSimilarityFree());
}

TEST(SearchContext, ShrinkSendsSimilarVertexToE) {
  // K4, all similar: shrinking any vertex puts it in E; remaining triangle
  // still satisfies k=2.
  auto fixture = MakeGrouped(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, {0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Shrink(0));
  EXPECT_EQ(ctx.state(0), VertexState::kInE);
  EXPECT_EQ(ctx.e_list().size(), 1u);
  EXPECT_EQ(ctx.c_list().size(), 3u);
  CheckInvariants(ctx);
}

TEST(SearchContext, ShrinkWithoutExcludedTrackingRemoves) {
  auto fixture = MakeGrouped(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, {0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, /*track_excluded=*/false);
  ASSERT_TRUE(ctx.Shrink(0));
  EXPECT_EQ(ctx.state(0), VertexState::kRemoved);
  EXPECT_TRUE(ctx.e_list().empty());
}

TEST(SearchContext, StructurePeelCascades) {
  // Pentagon with a chord: 0-1-2-3-4-0 plus 1-3. Shrinking 0 drops 4 (deg 1)
  // then... 4's removal drops nothing else; remaining 1,2,3 triangle-ish:
  // deg(1)=2 (2,3), deg(2)=2 (1,3), deg(3)=2 (1,2): alive.
  auto fixture = MakeGrouped(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}}, {0, 0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Shrink(0));
  EXPECT_EQ(ctx.state(4), VertexState::kInE);  // peeled, similar to empty M
  EXPECT_EQ(ctx.c_list().size(), 3u);
  CheckInvariants(ctx);
}

TEST(SearchContext, DeadWhenMVertexLosesSupport) {
  // Triangle: expand all three, then... no shrink can occur. Instead: C4,
  // expand 0 and 1 (adjacent), then shrink 2 -> 0 or 1 drops below k=2.
  auto fixture = MakeGrouped(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}},
                             {0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Expand(0));
  ASSERT_TRUE(ctx.Expand(1));
  EXPECT_FALSE(ctx.Shrink(2));
  EXPECT_TRUE(ctx.dead());
}

TEST(SearchContext, RewindRestoresEverything) {
  auto fixture = MakeGrouped(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}}, {0, 0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  CheckInvariants(ctx);
  size_t mark = ctx.Mark();

  ASSERT_TRUE(ctx.Shrink(0));
  CheckInvariants(ctx);
  size_t mark2 = ctx.Mark();
  ASSERT_TRUE(ctx.Expand(1));
  CheckInvariants(ctx);
  ctx.RewindTo(mark2);
  CheckInvariants(ctx);
  EXPECT_EQ(ctx.c_list().size(), 3u);
  ctx.RewindTo(mark);
  CheckInvariants(ctx);
  EXPECT_EQ(ctx.c_list().size(), 5u);
  EXPECT_TRUE(ctx.m_list().empty());
  EXPECT_TRUE(ctx.e_list().empty());
  for (VertexId u = 0; u < comp.size(); ++u) {
    EXPECT_EQ(ctx.state(u), VertexState::kInC);
  }
}

TEST(SearchContext, RewindAfterDeadBranch) {
  auto fixture = MakeGrouped(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}},
                             {0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  size_t mark = ctx.Mark();
  ASSERT_TRUE(ctx.Expand(0));
  ASSERT_TRUE(ctx.Expand(1));
  EXPECT_FALSE(ctx.Shrink(2));
  ctx.RewindTo(mark);
  EXPECT_FALSE(ctx.dead());
  CheckInvariants(ctx);
  EXPECT_EQ(ctx.c_list().size(), 4u);
}

TEST(SearchContext, PromotionMovesSupportedSfVertices) {
  // K4: expand 0 and 1; vertices 2, 3 are similarity free with deg(u,M)=2
  // — promotion should move both into M (k=2).
  auto fixture = MakeGrouped(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, {0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Expand(0));
  ASSERT_TRUE(ctx.Expand(1));
  uint64_t promotions = 0;
  ASSERT_TRUE(ctx.PromoteSimilarityFree(&promotions));
  EXPECT_EQ(promotions, 2u);
  EXPECT_EQ(ctx.m_list().size(), 4u);
  EXPECT_TRUE(ctx.c_list().empty());
  CheckInvariants(ctx);
}

TEST(SearchContext, ConnectivityReductionDiscardsDetachedCandidates) {
  // Two triangles, all similar, connected via a single vertex x of degree 2
  // to each side... Simplest: build one component with a cut vertex whose
  // expansion then removal disconnects. Use: triangles {0,1,2} and {3,4,5}
  // joined by edges 2-6, 3-6, 2-3 (vertex 6 has deg 2).
  auto fixture = MakeGrouped(
      7,
      {{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {2, 6}, {3, 6}, {2, 3}},
      {0, 0, 0, 0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  // Expand parent-0; then shrink the bridge vertices: discarding parent-2
  // kills {0,1,2}... choose instead: expand 0, shrink 6 (bridge helper),
  // shrink 3 -> component {3,4,5} + leftovers detach from M's side.
  VertexId l0 = kInvalidVertex, l3 = kInvalidVertex, l6 = kInvalidVertex;
  for (VertexId i = 0; i < comp.size(); ++i) {
    if (comp.to_parent[i] == 0) l0 = i;
    if (comp.to_parent[i] == 3) l3 = i;
    if (comp.to_parent[i] == 6) l6 = i;
  }
  ASSERT_TRUE(ctx.Expand(l0));
  ASSERT_TRUE(ctx.Shrink(l6));
  ASSERT_TRUE(ctx.Shrink(l3));
  // {4,5} lost vertex 3: their degrees drop below 2 and they peel anyway;
  // after the cascade only M's triangle remains.
  EXPECT_EQ(ctx.m_list().size() + ctx.c_list().size(), 3u);
  CheckInvariants(ctx);
}

/// A chain of 3–5-vertex cliques, neighbouring blocks joined by one or two
/// edges, on random points. Its 2-core is full of cut vertices, so branch
/// ops regularly disconnect M ∪ C — random dense graphs almost never do —
/// and the connectivity reduction and its reuse of a standing proof are
/// exercised.
Dataset MakeCliqueChain(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::vector<GeoPoint> points;
  VertexId prev = 0, begin = 0;
  for (int block = 0; block < 12; ++block) {
    const VertexId size = 3 + static_cast<VertexId>(rng.NextBounded(3));
    for (VertexId a = begin; a < begin + size; ++a) {
      for (VertexId b = a + 1; b < begin + size; ++b) edges.emplace_back(a, b);
      points.push_back({rng.NextDouble(), rng.NextDouble()});
    }
    const uint64_t links = block == 0 ? 0 : 1 + rng.NextBounded(2);
    for (uint64_t link = 0; link < links; ++link) {
      edges.emplace_back(prev + rng.NextBounded(begin - prev),
                         begin + rng.NextBounded(size));
    }
    prev = begin;
    begin += size;
  }
  Dataset dataset;
  dataset.graph = MakeGraph(begin, edges);
  dataset.attributes = AttributeTable::ForGeo(std::move(points));
  dataset.metric = Metric::kEuclideanDistance;
  return dataset;
}

/// Compares every piece of observable state between two contexts over the
/// same component: counters, the M / C / E sets and whether the
/// connectivity proof is set. List order is not compared: a rewind restores
/// membership, not the order a snapshot fork copied.
void ExpectSameState(const SearchContext& a, const SearchContext& b) {
  const VertexId n = a.component().size();
  ASSERT_EQ(n, b.component().size());
  EXPECT_EQ(a.dead(), b.dead());
  EXPECT_EQ(a.dissimilar_pairs_c(), b.dissimilar_pairs_c());
  EXPECT_EQ(a.edges_mc(), b.edges_mc());
  EXPECT_EQ(a.sf_count(), b.sf_count());
  EXPECT_EQ(SearchContextTestPeer::HasProof(a),
            SearchContextTestPeer::HasProof(b));
  for (VertexId u = 0; u < n; ++u) {
    EXPECT_EQ(a.state(u), b.state(u)) << "state mismatch at " << u;
    EXPECT_EQ(a.deg_m(u), b.deg_m(u)) << "deg_m mismatch at " << u;
    EXPECT_EQ(a.dp_c(u), b.dp_c(u)) << "dp_c mismatch at " << u;
    EXPECT_EQ(a.dp_m(u), b.dp_m(u)) << "dp_m mismatch at " << u;
    EXPECT_EQ(a.dp_e(u), b.dp_e(u)) << "dp_e mismatch at " << u;
    if (a.state(u) == VertexState::kInC || a.state(u) == VertexState::kInM) {
      EXPECT_EQ(a.deg_mc(u), b.deg_mc(u)) << "deg_mc mismatch at " << u;
    }
  }
  auto sorted = [](const VertexList& list) {
    auto v = list.Materialize();
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(a.m_list()), sorted(b.m_list()));
  EXPECT_EQ(sorted(a.c_list()), sorted(b.c_list()));
  EXPECT_EQ(sorted(a.e_list()), sorted(b.e_list()));
  EXPECT_EQ(a.MaterializeMC(), b.MaterializeMC());
}

// Randomized backtracking torture: long random expand/shrink/promote/rewind
// sequences keep all counters consistent and M ∪ C connected, and every
// rewind restores exactly the state a fork snapshotted at its Mark().
class SearchContextFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SearchContextFuzz, RandomOpsKeepInvariants) {
  uint64_t restored_proofs = 0;
  for (bool chain : {false, true}) {
    auto dataset = chain ? MakeCliqueChain(GetParam())
                         : test::MakeRandomGeo(24, 80, GetParam());
    SimilarityOracle oracle(&dataset.attributes, dataset.metric,
                            chain ? 0.8 : 0.5);
    PipelineOptions opts;
    opts.k = 2;
    std::vector<ComponentContext> comps;
    ASSERT_TRUE(PrepareComponents(dataset.graph, oracle, opts, &comps).ok());
    Rng rng(GetParam() * 77 + 1);
    for (auto& comp : comps) {
      SearchContext ctx(comp, 2, true);
      std::vector<size_t> marks;
      std::vector<SearchContext> snapshots;
      auto rewind = [&] {
        ctx.RewindTo(marks.back());
        marks.pop_back();
        ExpectSameState(ctx, snapshots.back());
        snapshots.pop_back();
        restored_proofs += SearchContextTestPeer::HasProof(ctx);
      };
      for (int step = 0; step < 200; ++step) {
        CheckInvariants(ctx);
        double roll = rng.NextDouble();
        if (roll < 0.3 && !marks.empty()) {
          rewind();
          continue;
        }
        if (ctx.c_list().empty()) {
          if (marks.empty()) break;
          rewind();
          continue;
        }
        // Pick a random candidate; branch ops are followed by the retention
        // step (as in AdvEnum/AdvMax) half of the time, and promotion also
        // runs alone.
        auto members = ctx.c_list().Materialize();
        VertexId u = members[rng.NextBounded(members.size())];
        marks.push_back(ctx.Mark());
        snapshots.push_back(ctx.Fork());
        double op = rng.NextDouble();
        bool alive;
        if (op < 0.1) {
          alive = ctx.PromoteSimilarityFree(nullptr);
        } else {
          alive = op < 0.55 ? ctx.Expand(u) : ctx.Shrink(u);
          if (alive && rng.NextBernoulli(0.5)) {
            alive = ctx.PromoteSimilarityFree(nullptr);
          }
        }
        if (!alive) rewind();
      }
    }
  }
  // Rewinds back into a node whose proof stood: the restored-proof path.
  EXPECT_GT(restored_proofs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SearchContextFuzz,
                         ::testing::Range<uint64_t>(0, 24));

/// Fork equivalence: a forked context behaves exactly like the original
/// under a shared random op sequence (including rewinds relative to
/// per-context marks), its journal starts empty at the fork point, and
/// every rewind restores the state a snapshot fork took at its Mark().
class SearchContextForkSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SearchContextForkSweep, ForkBehavesIdenticallyUnderRandomOps) {
  for (bool chain : {false, true}) {
    auto dataset = chain ? MakeCliqueChain(GetParam() + 100)
                         : test::MakeRandomGeo(40, 160, GetParam() + 100);
    SimilarityOracle oracle(&dataset.attributes, dataset.metric,
                            chain ? 0.8 : 0.5);
    PipelineOptions opts;
    opts.k = 2;
    std::vector<ComponentContext> comps;
    ASSERT_TRUE(PrepareComponents(dataset.graph, oracle, opts, &comps).ok());
    Rng rng(GetParam() * 131 + 7);
    for (auto& comp : comps) {
      SearchContext original(comp, 2, true);
      // Reach a non-trivial prefix state on the original alone.
      for (int step = 0; step < 6 && !original.c_list().empty(); ++step) {
        auto members = original.c_list().Materialize();
        std::sort(members.begin(), members.end());
        VertexId u = members[rng.NextBounded(members.size())];
        size_t mark = original.Mark();
        bool alive = rng.NextBernoulli(0.5) ? original.Expand(u)
                                            : original.Shrink(u);
        if (!alive) original.RewindTo(mark);
      }

      ASSERT_GT(SearchContextTestPeer::JournalBytes(original), 0u);
      SearchContext fork = original.Fork();
      EXPECT_EQ(SearchContextTestPeer::JournalBytes(fork), 0u)
          << "a fork must copy no journal or checkpoint storage";
      ExpectSameState(original, fork);
      const SearchContext at_fork = original.Fork();
      const size_t fork_root = fork.Mark();

      // Drive both with identical decisions; rewinds use per-context marks
      // (the fork's journal is rooted at the fork point, the original's is
      // not).
      std::vector<size_t> marks_o, marks_f;
      std::vector<SearchContext> snapshots;
      for (int step = 0; step < 120; ++step) {
        double roll = rng.NextDouble();
        if ((roll < 0.3 && !marks_o.empty()) || original.c_list().empty()) {
          if (marks_o.empty()) break;
          original.RewindTo(marks_o.back());
          fork.RewindTo(marks_f.back());
          marks_o.pop_back();
          marks_f.pop_back();
          ExpectSameState(original, fork);
          ExpectSameState(fork, snapshots.back());
          snapshots.pop_back();
          continue;
        }
        auto members = original.c_list().Materialize();
        std::sort(members.begin(), members.end());
        VertexId u = members[rng.NextBounded(members.size())];
        marks_o.push_back(original.Mark());
        marks_f.push_back(fork.Mark());
        snapshots.push_back(fork.Fork());
        double op = rng.NextDouble();
        bool alive_o, alive_f;
        if (op < 0.45) {
          alive_o = original.Expand(u);
          alive_f = fork.Expand(u);
        } else if (op < 0.9) {
          alive_o = original.Shrink(u);
          alive_f = fork.Shrink(u);
        } else {
          alive_o = alive_f = true;
        }
        // The retention step: after half the branch ops, and alone.
        if (alive_o && alive_f && (op >= 0.9 || rng.NextBernoulli(0.5))) {
          uint64_t promo_o = 0, promo_f = 0;
          alive_o = original.PromoteSimilarityFree(&promo_o);
          alive_f = fork.PromoteSimilarityFree(&promo_f);
          EXPECT_EQ(promo_o, promo_f);
        }
        ASSERT_EQ(alive_o, alive_f) << "divergence at step " << step;
        if (!alive_o) {
          original.RewindTo(marks_o.back());
          fork.RewindTo(marks_f.back());
          marks_o.pop_back();
          marks_f.pop_back();
          ExpectSameState(fork, snapshots.back());
          snapshots.pop_back();
        }
        ExpectSameState(original, fork);
        CheckInvariants(fork);
      }
      // Unwinding the fork to its root restores the fork-point state exactly.
      fork.RewindTo(fork_root);
      ExpectSameState(fork, at_fork);
      while (!marks_o.empty()) {
        original.RewindTo(marks_o.back());
        marks_o.pop_back();
      }
      ExpectSameState(original, fork);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SearchContextForkSweep,
                         ::testing::Range<uint64_t>(0, 6));

}  // namespace
}  // namespace krcore
