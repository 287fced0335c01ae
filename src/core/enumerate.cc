#include "core/enumerate.h"

#include <algorithm>
#include <utility>
#include <variant>
#include <vector>

#include "core/branch_search.h"
#include "core/early_termination.h"
#include "core/maximal_check.h"
#include "core/result_set.h"
#include "core/search_context.h"
#include "core/search_order.h"
#include "graph/connectivity.h"
#include "util/logging.h"

namespace krcore {
namespace {

/// One task of the per-component recursive enumerator implementing
/// Algorithm 3 (and, with the advanced features disabled, the pruned
/// Algorithm 1 baseline). Each finished task deposits the cores it found;
/// the scheduler hands them back in fork-tree order.
class ComponentEnumerator
    : public BranchTask<ComponentEnumerator, const EnumOptions, ResultSet,
                        std::monostate> {
 public:
  using BranchTask::BranchTask;

 private:
  friend BranchTask;

  static SearchContext RootContext(const Job& job) {
    return SearchContext(job.comp, job.run.k,
                         /*track_excluded=*/job.run.use_early_termination ||
                             job.run.use_smart_maximal_check);
  }

  const EnumOptions& options() const { return job_->run; }

  ResultSet TakePart() { return std::move(results_); }

  /// One search node: prune/terminate/emit or branch (Algorithm 3).
  Status Visit(uint32_t depth, std::monostate) {
    if ((stats_.search_nodes++ & 0x3F) == 0 && options().deadline.Expired()) {
      return Status::DeadlineExceeded("enumeration budget expired");
    }
    // Another task failed (deadline): drain quickly, its status wins.
    if (job_->failed->load(std::memory_order_relaxed)) return Status::OK();
    KRCORE_DCHECK(!ctx_.dead());

    // Early termination (Theorem 5).
    if (options().use_early_termination && et_checker_.CanTerminate(ctx_)) {
      ++stats_.early_terminations;
      return Status::OK();
    }

    // Emission condition: with retention, C == SF(C) makes M ∪ C a
    // (k,r)-core (Theorem 4); without retention we only emit at C == ∅.
    bool emit = options().use_retention ? ctx_.CandidatesAllSimilarityFree()
                                        : ctx_.c_list().empty();
    if (emit) {
      return Emit();
    }

    // Choose the branching vertex among C \ SF(C) (Thm 4) or all of C.
    BranchChoice choice =
        policy_.Choose(ctx_, /*restrict_to_non_sf=*/options().use_retention,
                       /*sum_branches=*/true);
    if (options().use_retention) {
      stats_.retained_skips += ctx_.sf_count();
    }
    // Enumeration explores both branches regardless, so a forked branch
    // finds the same set it would have found sequentially; the path tag
    // fixes the merge order and the final canonical sort makes the output
    // schedule-independent.
    return Branch(choice.vertex, choice.expand_first, depth, {});
  }

  /// Emits the connected components of M ∪ C as candidate (k,r)-cores,
  /// running the smart maximal check when enabled. With M non-empty the
  /// connectivity reduction guarantees a single component.
  Status Emit() {
    std::vector<VertexId> mc = ctx_.MaterializeMC();
    if (mc.empty()) return Status::OK();
    auto components = ComponentsOfSubset(job_->comp.graph, mc);
    for (auto& local_core : components) {
      ++stats_.emitted_candidates;
      if (options().use_smart_maximal_check) {
        ++stats_.maximal_check_calls;
        MaximalVerdict verdict = maximal_checker_.Check(
            ctx_, local_core, options().maximal_check_order, options().lambda,
            options().deadline, &stats_.maximal_check_nodes);
        if (verdict == MaximalVerdict::kDeadlineExceeded) {
          return Status::DeadlineExceeded("maximal check budget expired");
        }
        if (verdict == MaximalVerdict::kNotMaximal) continue;
      }
      VertexSet parent_ids;
      parent_ids.reserve(local_core.size());
      for (VertexId v : local_core) {
        parent_ids.push_back(job_->comp.to_parent[v]);
      }
      std::sort(parent_ids.begin(), parent_ids.end());
      results_.Insert(std::move(parent_ids));
    }
    return Status::OK();
  }

  ResultSet results_;
  SearchOrderPolicy policy_{options().order, BranchOrder::kExpandFirst,
                            options().lambda, options().seed};
  EarlyTerminationChecker et_checker_{job_->comp};
  MaximalCheckSearcher maximal_checker_{job_->comp};
};

}  // namespace

MaximalCoresResult EnumerateMaximalCores(const Graph& g,
                                         const SimilarityOracle& oracle,
                                         const EnumOptions& options) {
  return PrepareThenMine<MaximalCoresResult>(
      g, oracle, options,
      // The component order every prepared workspace has.
      /*order_by_max_degree=*/true,
      [&](const std::vector<ComponentContext>& components) {
        return EnumerateMaximalCores(components, options);
      });
}

MaximalCoresResult EnumerateMaximalCores(
    const std::vector<ComponentContext>& components,
    const EnumOptions& options) {
  MaximalCoresResult result;
  Timer timer;
  // A failing component's partial results are kept and later components'
  // are dropped, as in a sequential run. A timed-out run's partial set is
  // schedule-dependent (see EnumOptions::parallel).
  ResultSet results;
  for (auto& part : SearchComponents<ComponentEnumerator>(
           components, options, options.parallel.Resolve(), &result.stats,
           &result.status)) {
    for (auto& core : part.TakeSorted()) results.Insert(std::move(core));
  }

  // Variants without the smart maximal check filter non-maximal cores the
  // naive way (Algorithm 1 lines 6-8). The smart check makes this a no-op,
  // but emitted results from *different* branches can still duplicate or
  // nest across components of a C == SF(C) emission with empty M; the filter
  // keeps the output canonical in all configurations.
  results.FilterNonMaximal();
  result.cores = results.TakeSorted();
  result.stats.maximal_found = result.cores.size();
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

EnumOptions BasicEnumOptions(uint32_t k) {
  EnumOptions o;
  o.k = k;
  o.use_retention = false;
  o.use_early_termination = false;
  o.use_smart_maximal_check = false;
  o.order = VertexOrder::kDelta1ThenDelta2;
  return o;
}

EnumOptions AdvEnumOptions(uint32_t k) {
  EnumOptions o;
  o.k = k;
  return o;
}

}  // namespace krcore
