#ifndef KRCORE_CORE_MAXIMUM_H_
#define KRCORE_CORE_MAXIMUM_H_

#include <cstdint>

#include "core/krcore_types.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/preprocess_options.h"
#include "graph/graph.h"
#include "similarity/similarity_oracle.h"
#include "util/timer.h"

namespace krcore {

/// Options for the maximum (k,r)-core search (Algorithm 5). Paper variants:
///
///   BasicMax   = {bound = kNaive}            (|M|+|C|; best order)
///   AdvMax     = {bound = kDoubleKcore}      ((k,k')-core bound, Alg 6)
///   AdvMax-UB  = BasicMax                    (Fig 12b naming)
///   AdvMax-O   = AdvMax with order = kDegree (Fig 12b)
///   Color+Kcore= {bound = kColorPlusKcore}   (Fig 10 baseline [31])
struct MaxOptions {
  uint32_t k = 3;

  SizeBoundKind bound = SizeBoundKind::kDoubleKcore;
  bool use_retention = true;
  bool use_early_termination = true;

  /// Tiered lazy bound evaluation: the free |M|+|C| check runs at every
  /// node; the expensive tier (`bound` when not kNaive) is recomputed only
  /// when |M ∪ C| has shrunk below the cached expensive value or after
  /// `bound_refresh` nodes on the current root-to-node chain, and the cached
  /// value — a still-valid upper bound, since M ∪ C only shrinks down the
  /// tree — prunes in between. 1 restores recompute-every-node. Must be > 0.
  uint32_t bound_refresh = 64;

  /// Seed the shared incumbent with a greedily peeled (k,r)-core of the
  /// densest component before the search (see greedy_seed.h), so bound
  /// pruning bites from the first node instead of after the first emission.
  bool use_seed_incumbent = true;

  VertexOrder order = VertexOrder::kLambdaCombo;
  BranchOrder branch_order = BranchOrder::kAdaptive;
  double lambda = 5.0;
  uint64_t seed = 7;

  Deadline deadline;

  /// Shared preprocessing knobs (join strategy, blocked pair builder).
  PreprocessOptions preprocess;

  /// Parallel search: component roots plus intra-component subtree tasks
  /// (forked whenever the pool's backlog is low) on one shared
  /// work-stealing pool. All tasks share the incumbent best size through an
  /// atomic, so a large core found anywhere immediately tightens the bound
  /// pruning everywhere. The maximum *size* is deterministic for any thread
  /// count; among equal-sized maxima the lexicographically smallest
  /// reachable one is preferred.
  ParallelOptions parallel;
};

/// Finds a maximum (k,r)-core of `g` (largest vertex count; among ties the
/// engine prefers the lexicographically smallest discovered set). `best` is
/// empty when no (k,r)-core exists.
MaximumCoreResult FindMaximumCore(const Graph& g,
                                  const SimilarityOracle& oracle,
                                  const MaxOptions& options);

/// Runs the branch-and-bound phase only, on components already produced by
/// PrepareComponents / PrepareWorkspace / a loaded snapshot — the entry
/// point the parameter-sweep engine and snapshot consumers use to skip the
/// O(n^2) preprocessing. `options.k` must equal the k the components were
/// prepared at; options.preprocess is ignored. The maximum size matches the
/// (graph, oracle) overload run with the same options.
MaximumCoreResult FindMaximumCore(
    const std::vector<ComponentContext>& components, const MaxOptions& options);

/// Shorthand presets matching the paper's named variants.
MaxOptions BasicMaxOptions(uint32_t k);
MaxOptions AdvMaxOptions(uint32_t k);

}  // namespace krcore

#endif  // KRCORE_CORE_MAXIMUM_H_
