#ifndef KRCORE_CORE_PIPELINE_H_
#define KRCORE_CORE_PIPELINE_H_

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "core/dissimilarity_index.h"
#include "core/krcore_types.h"
#include "core/preprocess_options.h"
#include "graph/graph.h"
#include "similarity/join/self_join.h"
#include "similarity/similarity_oracle.h"
#include "util/array_ref.h"
#include "util/status.h"

namespace krcore {

/// Deferred integrity state of one mmap-served component: the snapshot v4
/// loader installs a validation closure (blob checksum + the full
/// structural invariant battery) to be run at most once, on first touch,
/// under the once_flag. Copies of the component share this object, so one
/// validation pass settles the component for every view of it. A null
/// LazyComponentValidation pointer on a component means "already valid"
/// (owned builds and eager loads).
struct LazyComponentValidation {
  std::once_flag once;
  /// The verdict, written exactly once under `once`.
  Status status;
  /// Self-contained check capturing the mapped spans and the shared bitset
  /// arena to fill — deliberately no pointer back to any component
  /// instance, so copies stay coherent. Cleared after the run.
  std::function<Status()> validate;
};

/// A connected component produced by the Algorithm 1 preprocessing
/// (dissimilar-edge removal -> k-core -> connected components), re-indexed
/// with dense local ids and with all pairwise dissimilarity materialized.
///
/// Every (k,r)-core of the input graph lives entirely inside exactly one
/// component (Sec 4.1), so the search runs per component with local ids —
/// and components are independent search units, which the parallel drivers
/// in enumerate/maximum exploit.
struct ComponentContext {
  /// Induced structure graph over local ids (every edge already similar).
  Graph graph;
  /// Local id -> original graph id.
  ArrayRef<VertexId> to_parent;
  /// Flat CSR (+ hot-row bitset) dissimilarity substrate: dissimilar[u] is
  /// the sorted local ids v with sim(u,v) violating r. This is the
  /// complement of the component's similarity graph; all engine-side
  /// similarity tests run on it (the oracle is not consulted again).
  DissimilarityIndex dissimilar;
  /// First-touch validation for mmap-served components; null when the
  /// component was built in memory or eagerly validated.
  std::shared_ptr<LazyComponentValidation> lazy;

  VertexId size() const { return graph.num_vertices(); }
  /// Total number of dissimilar pairs in the component (DP of Sec 7.1).
  uint64_t num_dissimilar_pairs() const { return dissimilar.num_pairs(); }
  bool Dissimilar(VertexId u, VertexId v) const {
    return dissimilar.Dissimilar(u, v);
  }

  /// Runs the deferred integrity checks (at most once across all copies of
  /// this component) and returns the verdict; instant OK for components
  /// with nothing deferred. Every consumer that reads rows — mining roots,
  /// derivation, the updater, the snapshot writer — calls this first, so
  /// corruption in a mapped file fails exactly the queries that touch the
  /// corrupt component, as the same clean Status errors an eager load
  /// reports.
  Status EnsureValid() const {
    if (!lazy) return Status::OK();
    LazyComponentValidation* l = lazy.get();
    std::call_once(l->once, [l] {
      l->status = l->validate();
      l->validate = nullptr;
    });
    return l->status;
  }
};

/// The deterministic component order every preparation path produces when
/// order_by_max_degree is set: max structure degree descending, ties by
/// ascending minimum parent id (to_parent is sorted, and component min ids
/// are distinct, so this is a strict weak ordering equal to the historical
/// stable_sort over discovery order). Shared by PrepareComponents,
/// DeriveWorkspace and the incremental update engine so the maintained
/// order stays byte-identical to a fresh preparation by construction.
bool ComponentOrderBefore(const ComponentContext& a,
                          const ComponentContext& b);

struct PipelineOptions {
  uint32_t k = 1;
  /// Blocked-builder knobs shared with every mining entry point.
  PreprocessOptions preprocess;
  /// Sort components so the one containing the globally highest-degree
  /// vertex is searched first (Sec 6.1's seeding rule for FindMaximum).
  bool order_by_max_degree = true;
  /// Score-annotation cover threshold. NaN (the default) builds the classic
  /// boolean substrate at the oracle's threshold only. Set to a threshold
  /// at least as strict as the oracle's (>= r for similarity metrics,
  /// <= r for distance metrics) and the pair sweep stores every evaluated
  /// score that is dissimilar at this cover: the prepared workspace then
  /// serves ANY threshold between the two as a pure score filter — the
  /// "prepare once at the loosest grid threshold, derive every (k,r) cell"
  /// substrate. Setting it equal to the oracle's threshold annotates
  /// scores without widening the serving range.
  double score_cover = std::numeric_limits<double>::quiet_NaN();
  /// Wall-clock budget for the pair sweep itself: with no pair budget the
  /// O(n^2) evaluation can be long, so the mining entry points forward
  /// their deadline here and expiry yields DeadlineExceeded.
  Deadline deadline;

  bool annotate_scores() const { return !std::isnan(score_cover); }
};

/// Runs the shared preprocessing of Algorithm 1 (lines 1-4): removes edges
/// between dissimilar endpoints, extracts the k-core, splits into connected
/// components and materializes per-component dissimilarity with the blocked
/// (tiled) pair evaluator. `report`, when non-null, receives the work and
/// memory accounting of the run.
Status PrepareComponents(const Graph& g, const SimilarityOracle& oracle,
                         const PipelineOptions& options,
                         std::vector<ComponentContext>* out,
                         PreprocessReport* report);

/// Overload without report collection.
Status PrepareComponents(const Graph& g, const SimilarityOracle& oracle,
                         const PipelineOptions& options,
                         std::vector<ComponentContext>* out);

/// The full PrepareComponents output bundled with its identity — the (k, r)
/// pair it was prepared for. This is the unit the snapshot layer serializes
/// (src/snapshot/workspace_snapshot.h) and the parameter-sweep engine caches:
/// both answer mining calls without re-running the O(n^2) similarity sweep.
///
/// A workspace prepared at (k, r) serves any query at (k' >= k, r): the
/// k'-core of the similarity-filtered graph is contained in the k-core, so
/// components at k' are induced sub-components of the cached ones
/// (DeriveWorkspace), and their dissimilarity rows are restrictions of the
/// cached rows — no oracle calls needed.
///
/// A *score-annotated* workspace (scored == true) additionally serves an r
/// dimension: it is prepared at the loosest threshold of a grid (largest
/// filtered graph, hence largest k-core — every stricter cell's vertices
/// are contained in it) while its stored pairs carry raw metric scores
/// covering every pair dissimilar at `score_cover`, the strictest grid
/// threshold. Any (k' >= k, r' between threshold and score_cover) is then
/// derived with zero oracle calls: score-filter the structure edges and
/// cached rows at r', re-peel the k'-core.
/// Owner of an open snapshot file's bytes (mmap or aligned heap fallback);
/// defined in snapshot/mapped_file.h. PreparedWorkspace holds it as an
/// opaque lifetime anchor so borrowed component views stay valid for as
/// long as the workspace (or any copy of it) lives.
class SnapshotMapping;

struct PreparedWorkspace {
  /// The k the components were extracted at (queries need k' >= k).
  uint32_t k = 0;
  /// The similarity threshold r baked into the substrate (the edge filter
  /// and the active dissimilarity rows). Unscored workspaces serve only
  /// exact-r queries.
  double threshold = 0.0;
  /// Strictest threshold the score annotation covers; == threshold for
  /// unscored workspaces (a point serving interval).
  double score_cover = 0.0;
  /// True when the component indexes carry score annotations (and possibly
  /// reserve pairs) — the precondition for deriving at a different r.
  bool scored = false;
  /// Metric direction the thresholds are ordered under (distance: similar
  /// means score <= r). Needed to orient the serve..cover interval.
  bool is_distance = false;
  /// bitset_min_degree the indexes were built with; kept so snapshot
  /// round-trips rebuild byte-identical hybrid bitsets.
  uint32_t bitset_min_degree = DissimilarityIndex::kDefaultBitsetMinDegree;
  /// Monotonically increasing graph version: 0 for a fresh preparation,
  /// bumped once per ApplyEdgeUpdates batch (core/workspace_update.h) and
  /// persisted by the snapshot layer, so serving tiers can tell which edge
  /// state a saved substrate reflects. Derived workspaces inherit the
  /// version of their base.
  uint64_t version = 0;
  std::vector<ComponentContext> components;
  /// Lifetime anchor for mmap-backed components (null for in-memory
  /// builds): the components' spans point into this mapping's bytes.
  std::shared_ptr<const SnapshotMapping> backing;

  VertexId num_vertices() const {
    VertexId n = 0;
    for (const auto& c : components) n += c.size();
    return n;
  }

  /// Forces every component's deferred validation now (a lazy load's way
  /// of opting back into eager integrity semantics); first failure wins.
  Status EnsureAllValid() const {
    for (const auto& c : components) {
      if (Status s = c.EnsureValid(); !s.ok()) return s;
    }
    return Status::OK();
  }

  /// True iff a (query_k, query_r) cell can be served from this workspace:
  /// query_k >= k, and query_r lies in the serve..cover interval (which is
  /// the single point {threshold} for unscored workspaces).
  bool Serves(uint32_t query_k, double query_r) const {
    if (query_k < k) return false;
    if (query_r == threshold) return true;
    return scored &&
           ThresholdAtLeastAsStrict(query_r, threshold, is_distance) &&
           ThresholdAtLeastAsStrict(score_cover, query_r, is_distance);
  }
};

/// PrepareComponents + identity stamping: prepares a workspace for
/// (options.k, oracle.threshold()) that can be saved, cached, and served.
/// With options.score_cover set, the same single pair sweep additionally
/// annotates scores and stores reserve pairs up to the cover threshold,
/// producing a workspace whose Serves() interval spans serve..cover.
Status PrepareWorkspace(const Graph& g, const SimilarityOracle& oracle,
                        const PipelineOptions& options, PreparedWorkspace* out,
                        PreprocessReport* report = nullptr);

/// Derives the workspace at (`k` >= base.k, `r` inside base's serving
/// interval) from `base` purely structurally, with zero similarity-oracle
/// calls — this is what collapses a (k,r) grid sweep to one pair sweep.
///
///  - k dimension (k-core nesting, Sec 4.1): per cached component, re-peel
///    the k-core, split into components, restrict the cached rows.
///  - r dimension (dissimilar-pair monotonicity): structure edges whose
///    stored score turns dissimilar at the stricter `r` are dropped before
///    the peel, active rows are kept wholesale (dissimilarity is monotone
///    under tightening), and reserve pairs are score-filtered into the
///    derived rows. Exact by construction: every pair the stricter cell
///    needs is covered by the base's score annotation.
///
/// Components are re-sorted with the same max-degree-first rule
/// PrepareComponents applies, so a derived workspace is structurally
/// identical to a cold preparation at (k, r) — mining it returns byte-
/// identical results. `report` (optional) accounts the derived substrate
/// (pairs_evaluated stays 0; score_filtered_pairs counts consulted
/// scores). Fails with InvalidArgument when k < base.k or r is outside the
/// base's serving interval (including any r != threshold on an unscored
/// base).
Status DeriveWorkspace(const PreparedWorkspace& base, uint32_t k, double r,
                       const PipelineOptions& options, PreparedWorkspace* out,
                       PreprocessReport* report = nullptr);

/// k-only overload: derives at the base's own threshold.
Status DeriveWorkspace(const PreparedWorkspace& base, uint32_t k,
                       const PipelineOptions& options, PreparedWorkspace* out,
                       PreprocessReport* report = nullptr);

}  // namespace krcore

#endif  // KRCORE_CORE_PIPELINE_H_
