#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <numeric>
#include <string>

#include "core/parallel.h"
#include "graph/connectivity.h"
#include "graph/graph_builder.h"
#include "kcore/core_decomposition.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace krcore {
namespace {

/// Builds one component's context: induced structure graph plus the flat
/// dissimilarity index, with pair discovery delegated to the self-join
/// engine (src/similarity/join/) under options.preprocess.join_strategy —
/// the brute tiled sweep or the certified filter-and-verify join, which
/// produce bit-identical substrates. The deadline is polled every few thousand
/// pair operations; on expiry (or when another worker already expired via
/// *aborted) the build stops early and the returned context must be
/// discarded. Returns the builder's peak transient byte count through
/// *transient_bytes and the join's work accounting through *join_report.
///
/// With options.score_cover set, the same join is score-annotating: the
/// score each metric evaluation already computes is kept, pairs dissimilar
/// at the serving threshold go in active, pairs dissimilar only at the
/// cover threshold go in reserve — no extra oracle work, just storage.
ComponentContext BuildComponent(const Graph& similar_only,
                                const SimilarityOracle& oracle,
                                const std::vector<VertexId>& comp,
                                const PipelineOptions& options,
                                uint32_t join_threads,
                                std::atomic<bool>* aborted,
                                uint64_t* transient_bytes,
                                JoinReport* join_report) {
  const PreprocessOptions& opts = options.preprocess;
  ComponentContext ctx;
  auto induced = BuildInducedSubgraph(similar_only, comp);
  ctx.graph = std::move(induced.graph);
  ctx.to_parent = std::move(induced.to_parent);

  DissimilarityIndex::Builder builder(ctx.size());
  if (options.annotate_scores()) builder.AnnotateScores();
  SelfJoinOptions join;
  join.strategy = options.preprocess.join_strategy;
  join.score_cover = options.score_cover;
  join.tile_size = opts.tile_size;
  join.num_threads = join_threads;
  join.deadline = options.deadline;
  *join_report = SelfJoinPairs(oracle, ctx.to_parent, join, aborted, &builder);
  if (aborted->load(std::memory_order_relaxed)) {
    *transient_bytes = builder.MemoryBytes();
    return ctx;
  }
  // During Build() the packed pair buffer and the CSR arrays coexist until
  // the fill pass completes, so the transient peak is the sum of both
  // (slightly conservative: bitsets are built after the pairs are freed).
  const uint64_t builder_bytes = builder.MemoryBytes();
  ctx.dissimilar = builder.Build(opts.bitset_min_degree);
  *transient_bytes = builder_bytes + ctx.dissimilar.MemoryBytes();
  return ctx;
}

}  // namespace

bool ComponentOrderBefore(const ComponentContext& a,
                          const ComponentContext& b) {
  if (a.graph.max_degree() != b.graph.max_degree()) {
    return a.graph.max_degree() > b.graph.max_degree();
  }
  return a.to_parent.front() < b.to_parent.front();
}

Status PrepareComponents(const Graph& g, const SimilarityOracle& oracle,
                         const PipelineOptions& options,
                         std::vector<ComponentContext>* out,
                         PreprocessReport* report) {
  Timer timer;
  out->clear();
  if (options.k == 0) {
    return Status::InvalidArgument("k must be a positive integer");
  }
  if (options.annotate_scores() &&
      (!std::isfinite(options.score_cover) ||
       !ThresholdAtLeastAsStrict(options.score_cover, oracle.threshold(),
                                 oracle.is_distance()))) {
    return Status::InvalidArgument(
        "score_cover must be a finite threshold at least as strict as the "
        "oracle's (>= r for similarity metrics, <= r for distance metrics)");
  }

  // Line 1-2 of Algorithm 1: drop edges between dissimilar endpoints. Such
  // edges can never appear inside a (k,r)-core (similarity constraint).
  GraphBuilder filtered(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v && oracle.Similar(u, v)) filtered.AddEdge(u, v);
    }
  }
  Graph similar_only = filtered.Build();

  // Line 3: k-core of the filtered graph.
  std::vector<VertexId> core_vertices = KCoreVertices(similar_only, options.k);
  if (core_vertices.empty()) {
    if (report != nullptr) {
      *report = PreprocessReport{};
      report->seconds = timer.ElapsedSeconds();
    }
    return Status::OK();
  }

  // Line 4: connected components (within the k-core).
  auto components = ComponentsOfSubset(similar_only, core_vertices);

  // Optional legacy guard on the O(|comp|^2) pairwise work. The blocked
  // builder below streams tiles, so by default (budget 0) any component
  // size is accepted.
  uint64_t total_pairs = 0;
  for (const auto& comp : components) {
    const uint64_t sz = comp.size();
    total_pairs += sz * (sz - 1) / 2;
  }
  if (options.preprocess.max_pair_budget > 0 &&
      total_pairs > options.preprocess.max_pair_budget) {
    return Status::ResourceExhausted(
        "component pairwise-similarity budget exceeded; raise or zero "
        "PreprocessOptions::max_pair_budget (0 = unlimited)");
  }

  // Components are independent: build their contexts in parallel. Each slot
  // is written by exactly one worker, so the output is identical for any
  // thread count.
  out->resize(components.size());
  std::vector<uint64_t> transients(components.size(), 0);
  std::vector<JoinReport> joins(components.size());
  std::atomic<bool> aborted{false};
  ParallelOptions par;
  par.num_threads = options.preprocess.num_threads;
  const uint32_t threads = par.Resolve();
  // With several components the parallelism lives at the component level;
  // a lone component hands the full thread budget to its join instead.
  const uint32_t join_threads = components.size() == 1 ? threads : 1;
  std::atomic<bool> injected{false};
  ParallelFor(threads, components.size(), [&](size_t i) {
    if (aborted.load(std::memory_order_relaxed)) return;
    if (Failpoints::ShouldFail("pipeline/prepare_component")) {
      injected.store(true, std::memory_order_relaxed);
      aborted.store(true, std::memory_order_relaxed);
      return;
    }
    (*out)[i] = BuildComponent(similar_only, oracle, components[i], options,
                               join_threads, &aborted, &transients[i],
                               &joins[i]);
  });
  if (aborted.load()) {
    out->clear();
    // An abort is either the deadline or an injected fault (the component-
    // level site above, or a join/* site surfaced through its report) —
    // report the one that actually happened.
    bool was_injected = injected.load();
    for (const auto& jr : joins) was_injected |= jr.injected_fault;
    if (was_injected) {
      return Status::Internal(
          "injected fault during component preparation (failpoint)");
    }
    return Status::DeadlineExceeded(
        "preprocessing budget expired during the pairwise similarity sweep");
  }

  if (options.order_by_max_degree) {
    // Search the component with the highest-degree vertex first: the
    // maximum search seeds its incumbent from a large core quickly.
    std::sort(out->begin(), out->end(), ComponentOrderBefore);
  }

  if (report != nullptr) {
    *report = PreprocessReport{};
    report->components = out->size();
    report->pairs_evaluated = total_pairs;
    for (const auto& jr : joins) {
      report->candidate_pairs += jr.candidate_pairs;
      report->pruned_pairs += jr.pruned_pairs;
      report->oracle_calls += jr.oracle_calls;
    }
    for (const auto& ctx : *out) {
      report->vertices += ctx.size();
      report->edges += ctx.graph.num_edges();
      report->dissimilar_pairs += ctx.num_dissimilar_pairs();
      report->reserve_pairs += ctx.dissimilar.num_reserve_pairs();
      report->index_bytes += ctx.dissimilar.MemoryBytes();
      report->bitset_rows += ctx.dissimilar.bitset_rows();
    }
    report->dissimilar_density =
        total_pairs == 0 ? 0.0
                         : static_cast<double>(report->dissimilar_pairs) /
                               static_cast<double>(total_pairs);
    // Up to `threads` builders are live at once, so the transient estimate
    // is the sum of the largest `threads` per-component buffers.
    std::sort(transients.begin(), transients.end(), std::greater<>());
    uint64_t transient_peak = 0;
    for (size_t i = 0; i < transients.size() && i < threads; ++i) {
      transient_peak += transients[i];
    }
    report->peak_bytes = report->index_bytes + transient_peak;
    report->seconds = timer.ElapsedSeconds();
  }
  return Status::OK();
}

Status PrepareComponents(const Graph& g, const SimilarityOracle& oracle,
                         const PipelineOptions& options,
                         std::vector<ComponentContext>* out) {
  return PrepareComponents(g, oracle, options, out, nullptr);
}

Status PrepareWorkspace(const Graph& g, const SimilarityOracle& oracle,
                        const PipelineOptions& options, PreparedWorkspace* out,
                        PreprocessReport* report) {
  out->components.clear();
  Status s = PrepareComponents(g, oracle, options, &out->components, report);
  if (!s.ok()) return s;
  out->k = options.k;
  out->threshold = oracle.threshold();
  out->scored = options.annotate_scores();
  out->score_cover = out->scored ? options.score_cover : oracle.threshold();
  out->is_distance = oracle.is_distance();
  out->bitset_min_degree = options.preprocess.bitset_min_degree;
  out->version = 0;
  return Status::OK();
}

namespace {

/// Restricts one cached component (or a threshold-filtered rebuild of it:
/// `structure` is the component's structure graph with the edges that turn
/// dissimilar at the derived r already dropped) to the k-core survivors
/// `keep`: induced structure graph, parent ids composed through the cache,
/// and dissimilarity rows copied (not re-evaluated) from the cached index.
/// With `restrict_r` set the rows are re-classified for the stricter
/// serving threshold `r` (reserve pairs score-filtered); otherwise they are
/// restricted verbatim. `score_tests` accumulates consulted scores.
void DeriveComponent(const ComponentContext& base, const Graph& structure,
                     const std::vector<VertexId>& keep,
                     std::vector<VertexId>* remap, uint32_t bitset_min_degree,
                     bool restrict_r, double r, bool is_distance,
                     uint64_t* score_tests, ComponentContext* out) {
  auto induced = BuildInducedSubgraph(structure, keep);
  out->graph = std::move(induced.graph);
  std::vector<VertexId> to_parent(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    to_parent[i] = base.to_parent[induced.to_parent[i]];
    (*remap)[induced.to_parent[i]] = static_cast<VertexId>(i);
  }
  out->to_parent = std::move(to_parent);
  DissimilarityIndex::Builder builder(static_cast<VertexId>(keep.size()));
  if (restrict_r) {
    base.dissimilar.AppendRestrictedPairs(induced.to_parent, *remap, r,
                                          is_distance, &builder, score_tests);
  } else {
    base.dissimilar.AppendRemappedPairs(induced.to_parent, *remap, &builder);
  }
  out->dissimilar = builder.Build(bitset_min_degree);
  // Reset only the slots this component touched so the scratch is reusable.
  for (VertexId v : induced.to_parent) (*remap)[v] = kInvalidVertex;
}

/// The r-dimension edge filter: the base component's structure graph with
/// every edge whose stored score is dissimilar at the stricter `r` removed.
/// Structure edges are similar at the base threshold, so any of them that a
/// stricter r rejects is a reserve pair of the cached index — the filter is
/// a pure lookup, zero oracle calls.
Graph FilterStructureEdges(const ComponentContext& comp, double r,
                           bool is_distance, std::vector<char>* drop_scratch) {
  const VertexId n = comp.size();
  GraphBuilder builder(n);
  std::vector<char>& drop = *drop_scratch;
  for (VertexId u = 0; u < n; ++u) {
    const auto reserve = comp.dissimilar.reserve_row(u);
    const auto scores = comp.dissimilar.reserve_scores(u);
    for (size_t i = 0; i < reserve.size(); ++i) {
      if (reserve[i] > u && !ScoreSimilarUnder(scores[i], r, is_distance)) {
        drop[reserve[i]] = 1;
      }
    }
    for (VertexId v : comp.graph.neighbors(u)) {
      if (v > u && !drop[v]) builder.AddEdge(u, v);
    }
    for (size_t i = 0; i < reserve.size(); ++i) {
      if (reserve[i] > u) drop[reserve[i]] = 0;
    }
  }
  return builder.Build();
}

}  // namespace

Status DeriveWorkspace(const PreparedWorkspace& base, uint32_t k, double r,
                       const PipelineOptions& options, PreparedWorkspace* out,
                       PreprocessReport* report) {
  Timer timer;
  out->components.clear();
  if (k < base.k) {
    return Status::InvalidArgument(
        "cannot derive a lower k from a prepared workspace (the k-core at "
        "k' < k is a supergraph of the cached one); re-run PrepareWorkspace");
  }
  const bool restrict_r = r != base.threshold;
  if (restrict_r && !base.scored) {
    return Status::InvalidArgument(
        "workspace has no score annotation; only its exact threshold r=" +
        std::to_string(base.threshold) +
        " can be served (prepare with score_cover to widen the range)");
  }
  if (restrict_r && !base.Serves(k, r)) {
    return Status::InvalidArgument(
        "r=" + std::to_string(r) + " is outside the workspace's serving "
        "interval [" + std::to_string(base.threshold) + ", " +
        std::to_string(base.score_cover) + "] (metric-direction ordered)");
  }
  out->k = k;
  out->threshold = r;
  out->scored = base.scored;
  out->score_cover = base.scored ? base.score_cover : r;
  out->is_distance = base.is_distance;
  out->bitset_min_degree = base.bitset_min_degree;
  out->version = base.version;

  uint64_t score_tests = 0;
  std::vector<char> drop_scratch;
  for (const auto& comp : base.components) {
    if (Status s = Failpoints::Inject("pipeline/derive_component"); !s.ok()) {
      out->components.clear();
      return s;
    }
    if (options.deadline.Expired()) {
      out->components.clear();
      return Status::DeadlineExceeded(
          "budget expired while deriving the k-core workspace");
    }
    // Derivation reads the base's borrowed rows directly, so an mmap-lazy
    // base component must pass its first-touch validation here.
    if (Status s = comp.EnsureValid(); !s.ok()) {
      out->components.clear();
      return s;
    }
    const Graph* structure = &comp.graph;
    Graph filtered;
    if (restrict_r) {
      drop_scratch.assign(comp.size(), 0);
      filtered =
          FilterStructureEdges(comp, r, base.is_distance, &drop_scratch);
      structure = &filtered;
    }
    std::vector<VertexId> core = KCoreVertices(*structure, k);
    if (core.empty()) continue;
    auto locals = ComponentsOfSubset(*structure, core);
    std::vector<VertexId> remap(comp.size(), kInvalidVertex);
    for (const auto& keep : locals) {
      ComponentContext derived;
      DeriveComponent(comp, *structure, keep, &remap, base.bitset_min_degree,
                      restrict_r, r, base.is_distance, &score_tests,
                      &derived);
      out->components.push_back(std::move(derived));
    }
  }

  if (options.order_by_max_degree) {
    // The canonical order (not a stable sort over derivation order), so a
    // derived workspace's component order matches a fresh preparation's.
    std::sort(out->components.begin(), out->components.end(),
              ComponentOrderBefore);
  }

  if (report != nullptr) {
    *report = PreprocessReport{};
    report->components = out->components.size();
    for (const auto& ctx : out->components) {
      report->vertices += ctx.size();
      report->edges += ctx.graph.num_edges();
      report->dissimilar_pairs += ctx.num_dissimilar_pairs();
      report->reserve_pairs += ctx.dissimilar.num_reserve_pairs();
      report->index_bytes += ctx.dissimilar.MemoryBytes();
      report->bitset_rows += ctx.dissimilar.bitset_rows();
    }
    // pairs_evaluated stays 0: derivation never consults the oracle — the
    // r dimension is served from the stored scores alone.
    report->score_filtered_pairs = score_tests;
    report->peak_bytes = report->index_bytes;
    report->seconds = timer.ElapsedSeconds();
  }
  return Status::OK();
}

Status DeriveWorkspace(const PreparedWorkspace& base, uint32_t k,
                       const PipelineOptions& options, PreparedWorkspace* out,
                       PreprocessReport* report) {
  return DeriveWorkspace(base, k, base.threshold, options, out, report);
}

}  // namespace krcore
