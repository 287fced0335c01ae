#include "core/maximum.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>
#include <variant>
#include <vector>

#include "core/branch_search.h"
#include "core/early_termination.h"
#include "core/greedy_seed.h"
#include "core/search_context.h"
#include "core/search_order.h"
#include "core/size_bounds.h"
#include "graph/connectivity.h"
#include "util/logging.h"

namespace krcore {
namespace {

/// The incumbent best core, shared by every search task. The size is
/// readable lock-free (it is the bound-pruning hot path, polled at every
/// search node); the vertex set itself is guarded by a mutex and only
/// touched on the rare strictly-better / tie-breaking emissions.
class SharedBest {
 public:
  uint64_t Size() const { return size_.load(std::memory_order_relaxed); }

  /// Installs `candidate` (sorted parent ids) when strictly larger than the
  /// incumbent, or equal-sized and lexicographically smaller — the latter
  /// makes the reported set stable across work-stealing schedules whenever
  /// the competing maxima are all discovered.
  void Offer(VertexSet candidate) {
    std::lock_guard<std::mutex> lock(mu_);
    if (candidate.size() > best_.size() ||
        (candidate.size() == best_.size() && !best_.empty() &&
         candidate < best_)) {
      best_ = std::move(candidate);
      size_.store(best_.size(), std::memory_order_relaxed);
    }
  }

  VertexSet Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(best_);
  }

 private:
  // The incumbent size is polled at every search node by every worker, so
  // it must own its cache line: sharing one with the mutex (or the vector's
  // header, which Offer rewrites) would make each rare emission invalidate
  // the line for all pollers on the bound-pruning hot path.
  alignas(64) std::atomic<uint64_t> size_{0};
  alignas(64) std::mutex mu_;
  VertexSet best_;
};

/// Cached expensive-tier bound, inherited *down* the recursion by value: a
/// value computed at a node stays a valid upper bound for every descendant
/// (M ∪ C only shrinks along a root-to-leaf chain), and because each child
/// receives its own copy, backtracking restores the ancestor's cache for the
/// sibling automatically — a sibling subtree must never see a bound computed
/// inside the other branch.
struct BoundCache {
  uint64_t value = UINT64_MAX;  // nothing computed yet
  uint32_t nodes_since = 0;     // nodes on this chain since the last compute
};

/// What every AdvMax task reads: the run's options and the incumbent.
struct MaxRun {
  const MaxOptions& options;
  SharedBest best;
};

/// One task of the per-component branch-and-bound for the maximum (k,r)-core
/// (Algorithm 5). Owns its SearchContext and all per-task scratch (policy
/// Rng, bound computer, early termination checker), so tasks share nothing
/// mutable but the incumbent and the job accumulators; a task deposits
/// nothing, its cores go straight to the incumbent.
class ComponentMaximizer
    : public BranchTask<ComponentMaximizer, MaxRun, std::monostate,
                        BoundCache> {
 public:
  using BranchTask::BranchTask;

  /// A whole component can be skipped when even its total size cannot beat
  /// the incumbent.
  static bool Skip(const Job& job) {
    return job.comp.size() <= job.run.best.Size();
  }

 private:
  friend BranchTask;

  static SearchContext RootContext(const Job& job) {
    return SearchContext(
        job.comp, job.run.options.k,
        /*track_excluded=*/job.run.options.use_early_termination);
  }

  const MaxOptions& options() const { return job_->run.options; }
  SharedBest& best() const { return job_->run.best; }

  std::monostate TakePart() { return {}; }

  /// One search node. `cache` travels by value so each branch inherits the
  /// tightest ancestor bound and backtracking needs no undo.
  Status Visit(BoundCache cache) {
    if ((stats_.search_nodes++ & 0x3F) == 0 && options().deadline.Expired()) {
      return Status::DeadlineExceeded("maximum search budget expired");
    }
    // Another task failed (deadline): drain quickly, its status wins.
    if (job_->failed->load(std::memory_order_relaxed)) return Status::OK();
    KRCORE_DCHECK(!ctx_.dead());

    // Early termination (Theorem 5): any core from this subtree extends to a
    // strictly larger one elsewhere; it cannot be the (unique-size) maximum.
    if (options().use_early_termination && et_checker_.CanTerminate(ctx_)) {
      ++stats_.early_terminations;
      return Status::OK();
    }

    // Upper-bound cutoff (Algorithm 5 line 2), tiered: the free |M|+|C|
    // check runs first, then the cached expensive value, and only when
    // neither settles the node is the expensive tier recomputed — and only
    // if M ∪ C shrank below the cached bound or the refresh interval hit.
    const uint64_t incumbent = best().Size();
    const uint64_t naive = bound_computer_.Naive(ctx_);
    if (naive <= incumbent) {
      ++stats_.bound_naive_prunes;
      ++stats_.bound_prunes;
      return Status::OK();
    }
    if (options().bound != SizeBoundKind::kNaive) {
      if (cache.value <= incumbent) {
        ++stats_.bound_cache_hits;
        ++stats_.bound_prunes;
        return Status::OK();
      }
      ++cache.nodes_since;
      if (naive < cache.value || cache.nodes_since >= options().bound_refresh) {
        cache.value = bound_computer_.Compute(ctx_, options().bound);
        cache.nodes_since = 0;
        ++stats_.bound_recomputes;
        if (cache.value <= incumbent) {
          ++stats_.bound_expensive_prunes;
          ++stats_.bound_prunes;
          return Status::OK();
        }
      }
    }

    // Emission (Theorem 4).
    bool emit = options().use_retention ? ctx_.CandidatesAllSimilarityFree()
                                        : ctx_.c_list().empty();
    if (emit) {
      Emit();
      return Status::OK();
    }

    BranchChoice choice =
        policy_.Choose(ctx_, /*restrict_to_non_sf=*/options().use_retention,
                       /*sum_branches=*/false);
    // A forked branch prunes against the live incumbent through SharedBest,
    // so cross-task pruning matches the sequential schedule's intent.
    return Branch(choice.vertex, choice.expand_first, cache);
  }

  void Emit() {
    std::vector<VertexId> mc = ctx_.MaterializeMC();
    if (mc.empty()) return;
    auto components = ComponentsOfSubset(job_->comp.graph, mc);
    for (const auto& local_core : components) {
      ++stats_.emitted_candidates;
      if (local_core.size() < best().Size()) continue;
      VertexSet parent_ids;
      parent_ids.reserve(local_core.size());
      for (VertexId v : local_core) {
        parent_ids.push_back(job_->comp.to_parent[v]);
      }
      std::sort(parent_ids.begin(), parent_ids.end());
      best().Offer(std::move(parent_ids));
    }
  }

  SearchOrderPolicy policy_{options().order, options().branch_order,
                            options().lambda, options().seed};
  EarlyTerminationChecker et_checker_{job_->comp};
  SizeBoundComputer bound_computer_{job_->comp};
};

}  // namespace

MaximumCoreResult FindMaximumCore(const Graph& g,
                                  const SimilarityOracle& oracle,
                                  const MaxOptions& options) {
  return PrepareThenMine<MaximumCoreResult>(
      g, oracle, options,
      /*order_by_max_degree=*/true,  // search the densest part first
      [&](const std::vector<ComponentContext>& components) {
        return FindMaximumCore(components, options);
      });
}

MaximumCoreResult FindMaximumCore(
    const std::vector<ComponentContext>& components,
    const MaxOptions& options) {
  MaximumCoreResult result;
  Timer timer;
  KRCORE_CHECK(options.bound_refresh > 0) << "bound_refresh must be positive";

  MaxRun run{options, {}};
  if (options.use_seed_incumbent && !components.empty()) {
    // Seed the incumbent from the densest component (most structure edges)
    // so every task prunes against a real core from its very first node.
    size_t densest = 0;
    for (size_t i = 1; i < components.size(); ++i) {
      if (components[i].graph.num_edges() >
          components[densest].graph.num_edges()) {
        densest = i;
      }
    }
    // The greedy seeder reads rows; a corrupt mapped component simply
    // forfeits the seed here — its own job below reports the error.
    if (components[densest].EnsureValid().ok()) {
      VertexSet seed =
          GreedySeedCore(components[densest], options.k, options.deadline);
      if (!seed.empty()) run.best.Offer(std::move(seed));
    }
  }

  // Stats are merged in component order up to the first failure, so a
  // timed-out run reports the same shape of counters as a sequential run
  // (which stops searching there). The shared best itself is unaffected.
  SearchComponents<ComponentMaximizer>(components, run,
                                       options.parallel.Resolve(),
                                       &result.stats, &result.status);
  result.best = run.best.Take();
  result.stats.maximal_found = result.best.empty() ? 0 : 1;
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

MaxOptions BasicMaxOptions(uint32_t k) {
  MaxOptions o;
  o.k = k;
  o.bound = SizeBoundKind::kNaive;
  return o;
}

MaxOptions AdvMaxOptions(uint32_t k) {
  MaxOptions o;
  o.k = k;
  o.bound = SizeBoundKind::kDoubleKcore;
  return o;
}

}  // namespace krcore
