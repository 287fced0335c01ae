#ifndef KRCORE_CORE_PARAMETER_SWEEP_H_
#define KRCORE_CORE_PARAMETER_SWEEP_H_

#include <cstdint>
#include <vector>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/pipeline.h"
#include "graph/graph.h"
#include "similarity/similarity_oracle.h"
#include "util/status.h"

namespace krcore {

/// Batched (k,r) mining over one graph — the paper's experimental loops
/// (Figs 8-14 sweep k at fixed r and r at fixed k) and any serving scenario
/// that answers many parameter combinations over the same snapshot of the
/// network. A cold run per cell repeats the O(n^2) similarity sweep that
/// dominates preprocessing; the sweep engine instead runs **one pair sweep
/// total**: it prepares a single score-annotated workspace at the grid's
/// loosest threshold (its pair sweep stores every score the strictest grid
/// threshold needs) and the smallest requested k, then serves every cell by
/// DeriveWorkspace — a purely structural k-core peel plus score filter of
/// the cached components that never consults the oracle again.

/// The cross product ks x rs of cells to mine. Duplicates are honored (each
/// occurrence is a cell — batch callers should dedupe their specs; the CLI
/// does); neither axis need be sorted. The engine prepares once at
/// (min k, loosest r, cover = strictest r) and derives every cell.
struct SweepGrid {
  std::vector<uint32_t> ks;
  std::vector<double> rs;

  size_t num_cells() const { return ks.size() * rs.size(); }
};

enum class SweepMode {
  kEnumerate,  // maximal (k,r)-core enumeration per cell
  kMaximum,    // maximum (k,r)-core search per cell
};

struct SweepOptions {
  SweepMode mode = SweepMode::kEnumerate;
  /// Per-cell search configuration. The cell's k and the engine-level
  /// deadline/threads are taken from here too; `k` is overwritten per cell
  /// and `preprocess` configures the shared pair sweeps.
  EnumOptions enumerate;
  MaxOptions maximum;
  /// false = run every cell cold from the raw graph (the baseline the
  /// bench compares against; also the reference the tests diff).
  bool reuse_preprocessing = true;
  /// Cell-level concurrency: with T > 1 the independent (k,r) cells (and
  /// the per-r base preparations) run as tasks on one work-stealing
  /// TaskPool. Per-cell searches then run sequentially inside their task —
  /// set this *or* the per-cell parallel options, not both, to avoid
  /// oversubscription.
  ParallelOptions parallel;
};

/// One mined cell. Exactly one of enum_result / max_result is meaningful,
/// per SweepOptions::mode; stats()/status() abstract over the two.
struct SweepCellResult {
  uint32_t k = 0;
  double r = 0.0;
  /// True when the cell's substrate was derived from the cached base
  /// workspace instead of swept fresh.
  bool derived = false;
  /// True when the derivation additionally restricted the threshold (the
  /// cell's r is stricter than the base workspace's serving threshold).
  bool r_restricted = false;
  MaximalCoresResult enum_result;
  MaximumCoreResult max_result;

  const MiningStats& stats(SweepMode mode) const {
    return mode == SweepMode::kEnumerate ? enum_result.stats
                                         : max_result.stats;
  }
  const Status& status(SweepMode mode) const {
    return mode == SweepMode::kEnumerate ? enum_result.status
                                         : max_result.status;
  }
};

struct SweepResult {
  /// Grid order: for each r (outer), for each k (inner).
  std::vector<SweepCellResult> cells;
  /// Full O(n^2) pair sweeps actually run (== 1 with reuse, == cells
  /// without) and cells served by derivation from the cached base.
  uint64_t pair_sweeps = 0;
  uint64_t derived_cells = 0;
  /// Wall time spent preparing/deriving substrates, and end-to-end.
  double prepare_seconds = 0.0;
  double seconds = 0.0;
  /// First non-OK cell status in grid order (OK when all cells succeeded).
  Status status;
};

/// Mines every cell of `grid` over (g, oracle-at-r). The oracle's own
/// threshold is ignored; each r of the grid rebinds it via WithThreshold.
/// Cell results are identical to cold per-cell runs (enumeration output is
/// canonical; the maximum size is deterministic).
SweepResult RunParameterSweep(const Graph& g, const SimilarityOracle& oracle,
                              const SweepGrid& grid,
                              const SweepOptions& options);

/// Sweeps a (ks x rs) grid over an already-prepared (e.g. snapshot-loaded)
/// workspace with zero pair sweeps. Every cell must be servable: k >= the
/// workspace's k and r inside its serve..cover score interval — which for
/// an unscored workspace is just its baked-in threshold.
SweepResult SweepPreparedWorkspace(const PreparedWorkspace& base,
                                   const std::vector<uint32_t>& ks,
                                   const std::vector<double>& rs,
                                   const SweepOptions& options);

/// k-only form: the workspace's baked-in threshold is the only r.
SweepResult SweepPreparedWorkspace(const PreparedWorkspace& base,
                                   const std::vector<uint32_t>& ks,
                                   const SweepOptions& options);

}  // namespace krcore

#endif  // KRCORE_CORE_PARAMETER_SWEEP_H_
