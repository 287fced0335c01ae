#ifndef KRCORE_CORE_PREPROCESS_OPTIONS_H_
#define KRCORE_CORE_PREPROCESS_OPTIONS_H_

#include <cstdint>
#include <string>

#include "core/dissimilarity_index.h"
#include "graph/graph.h"
#include "similarity/join/self_join.h"
#include "util/timer.h"

namespace krcore {

/// Shared configuration for the Algorithm 1 preprocessing (dissimilar-edge
/// removal -> k-core -> components -> dissimilarity materialization).
/// Embedded by PipelineOptions, EnumOptions and MaxOptions so the knobs
/// cannot drift between entry points.
struct PreprocessOptions {
  /// Pair-discovery strategy for the per-component similarity self-join
  /// (src/similarity/join/): kAuto/kFiltered run the certified
  /// filter-and-verify engine where a per-metric filter applies (grid for
  /// Euclidean distance, prefix/size filters for the token metrics) and
  /// fall back to the brute sweep elsewhere; kBrute pins the baseline.
  /// Every strategy builds the identical substrate — bit-identical pair
  /// sets and stored scores — so this is purely a performance knob.
  JoinStrategy join_strategy = JoinStrategy::kAuto;

  /// Rows per tile in the blocked pair evaluation. Tiles keep both
  /// attribute ranges hot in cache during the O(n^2) similarity sweep.
  VertexId tile_size = 4096;

  /// Minimum dissimilar degree for a row to receive an O(1) bitset in the
  /// DissimilarityIndex (rows must also be dense relative to the component;
  /// see DissimilarityIndex).
  uint32_t bitset_min_degree = DissimilarityIndex::kDefaultBitsetMinDegree;

  /// Threads used to build per-component indexes (components are
  /// independent). 0 = hardware concurrency. Entry points that own a
  /// ParallelOptions propagate their resolved thread count here.
  uint32_t num_threads = 1;
};

/// Accounting emitted by PrepareComponents: how much similarity work the
/// preprocessing did and how big the resulting substrate is. Mirrors the
/// spec/report pattern of the sjs generator (SNIPPETS.md) — every expensive
/// preparation step reports what it actually built.
struct PreprocessReport {
  uint64_t components = 0;
  uint64_t vertices = 0;          // across surviving components
  uint64_t edges = 0;             // structure edges across components
  /// Intra-component unordered pairs the join had to settle (the full pair
  /// space, for every strategy). Before the filter-and-verify join this was
  /// also the number of metric evaluations; oracle_calls now counts those.
  uint64_t pairs_evaluated = 0;
  /// Pairs the join filter emitted for individual verification (equals
  /// pairs_evaluated on the brute path).
  uint64_t candidate_pairs = 0;
  /// Pairs settled by a certified bound with no metric evaluation
  /// (0 on the brute path). pruned_pairs + oracle_calls == pairs_evaluated.
  uint64_t pruned_pairs = 0;
  /// Metric evaluations actually performed by the join.
  uint64_t oracle_calls = 0;
  uint64_t dissimilar_pairs = 0;  // pairs that violated r
  /// Reserve pairs stored by a score-annotated preparation: similar at the
  /// serving threshold but dissimilar at the cover threshold, kept so any
  /// threshold in between is a pure score filter of this substrate.
  uint64_t reserve_pairs = 0;
  /// Stored scores consulted by a threshold-restricting derivation (0 for
  /// fresh preparations and k-only derivations).
  uint64_t score_filtered_pairs = 0;
  /// dissimilar_pairs / pairs_evaluated (0 when nothing was evaluated).
  double dissimilar_density = 0.0;
  uint64_t index_bytes = 0;       // final CSR + bitset footprint
  /// Estimated peak transient footprint: final indexes plus the largest
  /// concurrent builder pair buffer.
  uint64_t peak_bytes = 0;
  uint64_t bitset_rows = 0;       // rows upgraded to O(1) bitsets
  double seconds = 0.0;

  std::string ToString() const;
};

}  // namespace krcore

#endif  // KRCORE_CORE_PREPROCESS_OPTIONS_H_
