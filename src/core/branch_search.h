#ifndef KRCORE_CORE_BRANCH_SEARCH_H_
#define KRCORE_CORE_BRANCH_SEARCH_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/krcore_types.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/search_context.h"
#include "graph/graph.h"
#include "similarity/similarity_oracle.h"
#include "util/status.h"
#include "util/timer.h"

namespace krcore {

// The branch-and-bound driver shared by AdvEnum (Algorithm 3) and AdvMax
// (Algorithm 5). Both visit a node, pick u from C, and descend into "expand
// u into M" and "shrink u out of C" under retention; they differ only in how
// a node prunes and what it emits. This header owns every scheduling
// decision of that search: the branch step, when to fork a branch onto the
// pool, the task entry points, the per-component job and the component
// scheduler. enumerate.cc and maximum.cc hold only their node bodies.

/// A task's position in its component's fork tree: the root task has an
/// empty path; a task forked as the parent's n-th spawn appends n. Paths are
/// unique, so ordering a component's deposited parts by path makes their
/// merge independent of worker scheduling.
using TaskPath = std::vector<uint32_t>;

/// State shared by every task of one component's search, the root and all
/// forked subtrees. Each task merges its stats, first error and deposited
/// part here when it finishes.
template <typename Run, typename Part>
struct ComponentJob {
  ComponentJob(const ComponentContext& c, Run& r, std::atomic<bool>* f)
      : comp(c), run(r), failed(f) {}

  const ComponentContext& comp;
  Run& run;                   // the algorithm's inputs, shared by all jobs
  std::atomic<bool>* failed;  // any task of any component errored: drain
  TaskPool* pool = nullptr;   // null = sequential (no subtree forking)

  std::mutex mu;
  MiningStats stats;
  Status status;  // first non-OK of any task
  std::vector<std::pair<TaskPath, Part>> parts;

  void Finish(const MiningStats& task_stats, const Status& task_status,
              TaskPath path, Part part) {
    if (!task_status.ok()) failed->store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    stats.MergeFrom(task_stats);
    if (status.ok() && !task_status.ok()) status = task_status;
    parts.emplace_back(std::move(path), std::move(part));
  }
};

/// One task of a component's binary search: the root or a forked subtree.
/// `Derived` (CRTP) supplies the algorithm:
///
///   static SearchContext RootContext(const Job&)  the root node's context
///   const Options& options() const                the run's options
///   Status Visit(uint32_t depth, State state)     one node: prune, emit, or
///                                                 choose u and Branch()
///   Part TakePart()                               what the finished task
///                                                 deposits in its job
///   static bool Skip(const Job&)                  optional: pass over a
///                                                 whole component
///
/// `State` travels down the recursion by value: every branch, inline or
/// forked, gets its own copy, so backtracking needs no undo for it.
template <typename Derived, typename RunT, typename PartT, typename State>
class BranchTask {
 public:
  using Run = RunT;
  using Part = PartT;
  using Job = ComponentJob<Run, Part>;

  BranchTask(std::shared_ptr<Job> job, SearchContext ctx, TaskPath path)
      : job_(std::move(job)), ctx_(std::move(ctx)), path_(std::move(path)) {}

  static bool Skip(const Job&) { return false; }

  /// Root task: the retention fixpoint, then the whole component.
  static void RunRoot(std::shared_ptr<Job> job) {
    SearchContext ctx = Derived::RootContext(*job);
    Derived task(std::move(job), std::move(ctx), TaskPath{});
    task.Finish(task.Descend(/*depth=*/0, State{}));
  }

 protected:
  /// Explores both branches on `u`, the `expand_first` one first. Above the
  /// split depth, while the pool's backlog is low, the second-visited branch
  /// is forked onto the pool and the first continues inline. Once the pool
  /// has a backlog, queued forks are dead weight (each holds a full state
  /// copy), so both branches run inline.
  Status Branch(VertexId u, bool expand_first, uint32_t depth,
                const State& state) {
    if (job_->pool != nullptr &&
        depth < self().options().parallel.split_depth &&
        job_->pool->BacklogLow()) {
      Spawn(!expand_first, u, depth + 1, state);
      return Step(expand_first, u, depth + 1, state);
    }
    if (Status s = Step(expand_first, u, depth + 1, state); !s.ok()) return s;
    return Step(!expand_first, u, depth + 1, state);
  }

  std::shared_ptr<Job> job_;
  SearchContext ctx_;
  MiningStats stats_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  /// Enters a node: the retention fixpoint (Thm 4), then the node body.
  Status Descend(uint32_t depth, const State& state) {
    const bool alive = !self().options().use_retention ||
                       ctx_.PromoteSimilarityFree(&stats_.promotions);
    return alive ? self().Visit(depth, state) : Status::OK();
  }

  /// The branch step: expand u into M or shrink it out of C, descend, and
  /// rewind to the state before the step.
  Status Step(bool expand, VertexId u, uint32_t depth, const State& state) {
    const size_t mark = ctx_.Mark();
    bool alive;
    if (expand) {
      ++stats_.expand_branches;
      alive = ctx_.Expand(u);
    } else {
      ++stats_.shrink_branches;
      alive = ctx_.Shrink(u);
    }
    Status s = alive ? Descend(depth, state) : Status::OK();
    ctx_.RewindTo(mark);
    return s;
  }

  /// Subtree task: a deep copy of the current state that applies the
  /// deferred branch step itself on a pool worker.
  void Spawn(bool expand, VertexId u, uint32_t depth, const State& state) {
    TaskPath child_path = path_;
    child_path.push_back(spawn_seq_++);
    // std::function requires copyable captures; box the moveable state.
    auto forked = std::make_shared<SearchContext>(ctx_.Fork());
    auto boxed_path = std::make_shared<TaskPath>(std::move(child_path));
    auto job = job_;
    job_->pool->Submit([job, forked, boxed_path, expand, u, depth, state] {
      if (job->failed->load(std::memory_order_relaxed)) {
        job->Finish(MiningStats(), Status::OK(), std::move(*boxed_path),
                    Part());
        return;
      }
      Derived task(job, std::move(*forked), std::move(*boxed_path));
      task.Finish(task.Step(expand, u, depth, state));
    });
  }

  void Finish(const Status& s) {
    job_->Finish(stats_, s, std::move(path_), self().TakePart());
  }

  TaskPath path_;
  uint32_t spawn_seq_ = 0;
};

/// Searches every component with one `Task` root each: in order on this
/// thread when `threads` <= 1, else on one work-stealing pool that the roots
/// and the subtrees they fork share, so one giant component still keeps
/// every worker busy (Sec 4.1 makes components independent). Merges the
/// jobs' stats into `*stats` in component order and stops at the first
/// failing component, as a sequential run does, with its failure in
/// `*status`. Returns the parts the tasks of those components deposited, in
/// component order and inside a component in fork-tree order.
template <typename Task>
std::vector<typename Task::Part> SearchComponents(
    const std::vector<ComponentContext>& components, typename Task::Run& run,
    uint32_t threads, MiningStats* stats, Status* status) {
  using Job = typename Task::Job;
  std::atomic<bool> failed{false};
  std::vector<std::shared_ptr<Job>> jobs;
  jobs.reserve(components.size());
  for (const auto& comp : components) {
    jobs.push_back(std::make_shared<Job>(comp, run, &failed));
  }

  auto run_root = [](const std::shared_ptr<Job>& job) {
    if (Task::Skip(*job)) return;
    // First-touch validation gate for mmap-served components: the task's
    // constructor already walks rows, so the verdict must land before it
    // exists. A corrupt component fails only the queries that touch it.
    if (Status s = job->comp.EnsureValid(); !s.ok()) {
      job->Finish(MiningStats(), s, TaskPath{}, typename Task::Part());
      return;
    }
    Task::RunRoot(job);
  };
  if (threads <= 1) {
    for (auto& job : jobs) {
      run_root(job);
      if (!job->status.ok()) break;
    }
  } else {
    TaskPool pool(threads);
    for (auto& job : jobs) {
      job->pool = &pool;
      pool.Submit([job, &failed, run_root] {
        if (!failed.load(std::memory_order_relaxed)) run_root(job);
      });
    }
    pool.Wait();
    stats->tasks_spawned = pool.tasks_spawned();
    stats->task_steals = pool.tasks_stolen();
  }

  std::vector<typename Task::Part> parts;
  for (auto& job : jobs) {
    ++stats->components;
    stats->MergeFrom(job->stats);
    std::sort(job->parts.begin(), job->parts.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& tagged : job->parts) parts.push_back(std::move(tagged.second));
    if (!job->status.ok()) {
      *status = job->status;
      break;
    }
  }
  return parts;
}

/// The (Graph, SimilarityOracle) entry points: prepares the components with
/// the run's preprocessing options, deadline and thread count, then mines
/// them with `mine`, stamping the one pair sweep, its oracle calls and its
/// time into the result's stats. A failed preparation mines nothing and
/// returns its status.
template <typename Result, typename Options, typename Mine>
Result PrepareThenMine(const Graph& g, const SimilarityOracle& oracle,
                       const Options& options, bool order_by_max_degree,
                       Mine mine) {
  Timer timer;
  PipelineOptions pipe;
  pipe.k = options.k;
  pipe.preprocess = options.preprocess;
  pipe.preprocess.num_threads = options.parallel.Resolve();
  pipe.deadline = options.deadline;
  pipe.order_by_max_degree = order_by_max_degree;
  std::vector<ComponentContext> components;
  PreprocessReport report;
  Status prepared = PrepareComponents(g, oracle, pipe, &components, &report);
  const double prepare_seconds = timer.ElapsedSeconds();
  Result result;
  if (prepared.ok()) {
    result = mine(components);
  } else {
    result.status = prepared;
  }
  result.stats.prepare_pair_sweeps = 1;
  result.stats.oracle_calls = report.oracle_calls;
  result.stats.prepare_seconds = prepare_seconds;
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace krcore

#endif  // KRCORE_CORE_BRANCH_SEARCH_H_
