#ifndef KRCORE_CORE_PARALLEL_H_
#define KRCORE_CORE_PARALLEL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace krcore {

/// Thread configuration for the parallel search drivers.
/// Sec 4.1 guarantees every (k,r)-core lives inside exactly one component
/// of the preprocessed graph, so components are independent search units;
/// the drivers additionally fork subtrees *inside* a component whenever the
/// pool runs low on queued work (TaskPool::BacklogLow), so one giant
/// component can still saturate every core.
struct ParallelOptions {
  /// 1 = sequential (default), 0 = one thread per hardware core.
  uint32_t num_threads = 1;

  /// num_threads with 0 resolved to std::thread::hardware_concurrency()
  /// (minimum 1).
  uint32_t Resolve() const;
};

/// The resolution rule behind ParallelOptions::Resolve, split out so the
/// zero-reporting-host case is unit-testable: hardware_concurrency() is
/// allowed to return 0 ("not computable"), and every consumer of a resolved
/// thread count (TaskPool sizing, ParallelFor fan-out, sweep cell
/// concurrency) must receive >= 1. `requested` == 0 means "all hardware
/// cores"; any other value is taken literally.
uint32_t ResolveThreadCount(uint32_t requested, uint32_t hardware);

/// Work-stealing task pool shared by per-component root tasks and the
/// subtree tasks they fork: one deque per worker (owner pushes/pops the
/// front, thieves take from the back), so the deep LIFO end stays hot in
/// the owning worker's cache while old shallow subtrees — the biggest
/// ones — get stolen first. Tasks may submit further tasks; Wait() returns only
/// when the transitive closure has drained.
///
/// All queue state is guarded by one mutex: tasks here are coarse subtree
/// searches (thousands per run, not millions), so simplicity and clean
/// ThreadSanitizer semantics beat lock-free deques.
class TaskPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `num_threads` workers (callers typically park in Wait(), so the
  /// pool owns all the compute threads).
  explicit TaskPool(uint32_t num_threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues a task. Worker threads push onto their own deque (LIFO);
  /// external threads round-robin across deques.
  void Submit(Task task);

  /// Blocks until every submitted task — including tasks submitted by
  /// running tasks — has finished. Tasks must not throw.
  void Wait();

  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }
  /// Total tasks submitted so far.
  uint64_t tasks_spawned() const;
  /// Tasks executed by a worker other than the one whose deque held them.
  uint64_t tasks_stolen() const;

  /// True while the queued (not yet running) backlog is below 2 tasks per
  /// worker. Forking a subtree costs a state copy that sits in a deque
  /// until a worker frees up, so the search drivers consult this before
  /// every Fork(): once every worker has spare work queued, exploring the
  /// branch inline is faster, and queued-copy memory stays O(threads) at
  /// any search depth.
  bool BacklogLow() const;

 private:
  void WorkerLoop(uint32_t index);
  /// Pops a task for worker `index` (own front first, then steal from the
  /// back of the others). Caller holds mu_. Returns false when idle.
  bool PopTask(uint32_t index, Task* task);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers sleep here
  std::condition_variable done_cv_;   // Wait() sleeps here
  std::vector<std::deque<Task>> queues_;
  uint64_t pending_ = 0;    // queued + currently running
  uint64_t submitted_ = 0;
  uint64_t stolen_ = 0;
  uint64_t next_queue_ = 0;  // round-robin slot for external submitters
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(index) for every index in [0, count) across `num_threads` OS
/// threads using a shared atomic work queue: each worker steals the next
/// unclaimed index as soon as it finishes its current one, so a skewed
/// component-size distribution (the common case after preprocessing — one
/// giant component plus a tail) keeps every core busy.
///
/// fn must be safe to call concurrently for distinct indexes. Indexes are
/// claimed in ascending order, so with num_threads == 1 the execution order
/// matches a plain loop. Exceptions must not escape fn. Used by the tiled
/// preprocessing sweep; the search drivers use TaskPool instead.
void ParallelFor(uint32_t num_threads, size_t count,
                 const std::function<void(size_t)>& fn);

}  // namespace krcore

#endif  // KRCORE_CORE_PARALLEL_H_
