#ifndef KRCORE_CORE_ENUMERATE_H_
#define KRCORE_CORE_ENUMERATE_H_

#include <cstdint>

#include "core/krcore_types.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/preprocess_options.h"
#include "graph/graph.h"
#include "similarity/similarity_oracle.h"
#include "util/timer.h"

namespace krcore {

/// Options for maximal (k,r)-core enumeration. The paper's algorithm
/// variants map to feature-flag combinations:
///
///   BasicEnum    = {retention=false, early_termination=false,
///                   smart_maximal_check=false}  (Thm 2/3 pruning only,
///                   naive post-hoc maximal filtering; best order)
///   BE+CR        = BasicEnum + retention (Thm 4 / Remark 1)
///   BE+CR+ET     = BE+CR + early termination (Thm 5)
///   AdvEnum      = BE+CR+ET + smart maximal check (Thm 6 / Alg 4)
///   AdvEnum-O    = AdvEnum with order = kDegree (Fig 12a)
///   AdvEnum-P    = BasicEnum flags with the best order (Fig 12a)
struct EnumOptions {
  uint32_t k = 3;

  bool use_retention = true;
  bool use_early_termination = true;
  bool use_smart_maximal_check = true;

  VertexOrder order = VertexOrder::kDelta1ThenDelta2;
  /// Candidate order inside the maximal check (Fig 11(f)). The paper's
  /// Algorithm 4 expands one vertex at a time and benefits from the degree
  /// order; our conflict-driven check (see maximal_check.h) resolves
  /// dissimilar pairs instead, where the Δ1-style order measures best —
  /// `bench_fig11_orders` (Fig 11(f)) runs the comparison.
  VertexOrder maximal_check_order = VertexOrder::kDelta1ThenDelta2;
  /// Only used by order == kLambdaCombo (and the combo check order).
  double lambda = 5.0;
  /// Seed for order == kRandom.
  uint64_t seed = 7;

  /// Wall-clock budget; expiry returns partial results with
  /// Status::DeadlineExceeded (rendered as INF by the benches).
  Deadline deadline;

  /// Shared preprocessing knobs (join strategy, blocked pair builder).
  PreprocessOptions preprocess;

  /// Parallel search: component roots plus intra-component subtree tasks
  /// (forked whenever the pool's backlog is low) on one shared
  /// work-stealing pool. Completed runs return an identical result set for
  /// every thread count. Deadline-expired runs return a partial,
  /// schedule-dependent set: concurrent tasks each emit until their own
  /// deadline check fires, so the partial set can differ from — and with
  /// subtree forking even exceed — the sequential partial set.
  ParallelOptions parallel;
};

/// Enumerates all maximal (k,r)-cores of `g` under `oracle` (Algorithms 1+3).
MaximalCoresResult EnumerateMaximalCores(const Graph& g,
                                         const SimilarityOracle& oracle,
                                         const EnumOptions& options);

/// Runs the search phase only, on components already produced by
/// PrepareComponents / PrepareWorkspace / a loaded snapshot — the entry
/// point the parameter-sweep engine and snapshot consumers use to skip the
/// O(n^2) preprocessing. `options.k` must equal the k the components were
/// prepared at (and the oracle threshold they were filtered with is baked
/// in); options.preprocess is ignored. Results are identical to the
/// (graph, oracle) overload run with the same options.
MaximalCoresResult EnumerateMaximalCores(
    const std::vector<ComponentContext>& components,
    const EnumOptions& options);

/// Shorthand presets matching the paper's named variants.
EnumOptions BasicEnumOptions(uint32_t k);
EnumOptions AdvEnumOptions(uint32_t k);

}  // namespace krcore

#endif  // KRCORE_CORE_ENUMERATE_H_
