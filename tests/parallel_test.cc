#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/naive_enum.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/verify.h"
#include "test_helpers.h"

namespace krcore {
namespace {

TEST(ParallelFor, CoversEveryIndexOnce) {
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::atomic<uint32_t>> hits(257);
    for (auto& h : hits) h.store(0);
    ParallelFor(threads, hits.size(),
                [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1u) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, ZeroCountIsANoop) {
  ParallelFor(4, 0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelOptions, ResolveZeroMeansHardware) {
  ParallelOptions p;
  p.num_threads = 0;
  EXPECT_GE(p.Resolve(), 1u);
  p.num_threads = 3;
  EXPECT_EQ(p.Resolve(), 3u);
}

TEST(ParallelOptions, ZeroReportingHostStillResolvesToOne) {
  // std::thread::hardware_concurrency() is allowed to return 0 ("not
  // computable"); the resolution seam must clamp that to one worker, never
  // zero, for every consumer (TaskPool sizing, ParallelFor fan-out, sweep
  // cell concurrency).
  EXPECT_EQ(ResolveThreadCount(0, 0), 1u);
  EXPECT_EQ(ResolveThreadCount(0, 8), 8u);
  EXPECT_EQ(ResolveThreadCount(1, 0), 1u);
  EXPECT_EQ(ResolveThreadCount(5, 0), 5u);
}

TEST(ParallelOptions, MiningWithZeroThreadsOptionStillWorks) {
  // num_threads = 0 flows through Resolve() into every driver; whatever the
  // host reports (including 0), the run must complete and match sequential.
  auto dataset = test::MakeRandomGeo(60, 300, 21);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  EnumOptions seq = AdvEnumOptions(2);
  EnumOptions all_cores = seq;
  all_cores.parallel.num_threads = 0;
  auto a = EnumerateMaximalCores(dataset.graph, oracle, seq);
  auto b = EnumerateMaximalCores(dataset.graph, oracle, all_cores);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.cores, b.cores);
}

TEST(TaskPoolTest, ZeroRequestedThreadsClampsToOneWorker) {
  TaskPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ParallelFor, ZeroThreadsBehavesSequentially) {
  std::vector<int> hits(17, 0);
  ParallelFor(0, hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1);
}

TEST(TaskPoolTest, RunsEverySubmittedTask) {
  for (uint32_t threads : {1u, 2u, 4u}) {
    TaskPool pool(threads);
    std::vector<std::atomic<uint32_t>> hits(193);
    for (auto& h : hits) h.store(0);
    for (size_t i = 0; i < hits.size(); ++i) {
      pool.Submit([&hits, i] { hits[i].fetch_add(1); });
    }
    pool.Wait();
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1u) << "task " << i << " threads " << threads;
    }
    EXPECT_EQ(pool.tasks_spawned(), hits.size());
  }
}

TEST(TaskPoolTest, TasksCanSpawnTasks) {
  // A binary recursion tree spawned entirely from inside tasks: Wait() must
  // cover the transitive closure, not just the initial submission.
  TaskPool pool(4);
  std::atomic<uint32_t> leaves{0};
  std::function<void(uint32_t)> recurse = [&](uint32_t depth) {
    if (depth == 0) {
      leaves.fetch_add(1);
      return;
    }
    pool.Submit([&, depth] { recurse(depth - 1); });
    recurse(depth - 1);
  };
  pool.Submit([&] { recurse(6); });
  pool.Wait();
  EXPECT_EQ(leaves.load(), 64u);
  EXPECT_EQ(pool.tasks_spawned(), 64u);  // 1 root + 63 internal spawns
}

TEST(TaskPoolTest, WaitWithNoTasksReturnsImmediately) {
  TaskPool pool(2);
  pool.Wait();
  EXPECT_EQ(pool.tasks_spawned(), 0u);
  EXPECT_EQ(pool.tasks_stolen(), 0u);
}

TEST(TaskPoolTest, WaitCanBeReusedAcrossBatches) {
  TaskPool pool(3);
  std::atomic<uint32_t> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), 10u * (batch + 1));
  }
}

TEST(ParallelPipeline, ThreadCountDoesNotChangeComponents) {
  auto dataset = test::MakeRandomGeo(120, 500, 77);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
  PipelineOptions opts;
  opts.k = 2;
  std::vector<ComponentContext> seq, par;
  ASSERT_TRUE(PrepareComponents(dataset.graph, oracle, opts, &seq).ok());
  opts.preprocess.num_threads = 4;
  ASSERT_TRUE(PrepareComponents(dataset.graph, oracle, opts, &par).ok());
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ASSERT_EQ(seq[i].size(), par[i].size());
    EXPECT_EQ(seq[i].to_parent, par[i].to_parent);
    EXPECT_EQ(seq[i].num_dissimilar_pairs(), par[i].num_dissimilar_pairs());
    for (VertexId u = 0; u < seq[i].size(); ++u) {
      auto a = seq[i].dissimilar[u];
      auto b = par[i].dissimilar[u];
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
  }
}

/// Acceptance requirement: enumeration with num_threads > 1 produces
/// byte-identical sorted result sets to the sequential path.
class ParallelEnumSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelEnumSweep, ThreadsDoNotChangeMaximalCores) {
  for (bool geo : {true, false}) {
    Dataset dataset = geo ? test::MakeRandomGeo(60, 260, GetParam())
                          : test::MakeRandomKeyword(60, 260, GetParam());
    double r = geo ? 0.4 : 0.25;
    SimilarityOracle oracle(&dataset.attributes, dataset.metric, r);
    EnumOptions opts = AdvEnumOptions(2);
    auto sequential = EnumerateMaximalCores(dataset.graph, oracle, opts);
    ASSERT_TRUE(sequential.status.ok());
    for (uint32_t threads : {2u, 4u, 7u}) {
      opts.parallel.num_threads = threads;
      auto parallel = EnumerateMaximalCores(dataset.graph, oracle, opts);
      ASSERT_TRUE(parallel.status.ok());
      EXPECT_EQ(parallel.cores, sequential.cores)
          << "threads=" << threads << " geo=" << geo
          << " seed=" << GetParam();
      EXPECT_EQ(parallel.stats.components, sequential.stats.components);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelEnumSweep,
                         ::testing::Range<uint64_t>(0, 6));

TEST(ParallelEnum, BasicVariantAlsoDeterministic) {
  auto dataset = test::MakeRandomGeo(50, 220, 3);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
  EnumOptions opts = BasicEnumOptions(2);
  auto sequential = EnumerateMaximalCores(dataset.graph, oracle, opts);
  ASSERT_TRUE(sequential.status.ok());
  for (uint32_t threads : {2u, 4u, 8u}) {
    opts.parallel.num_threads = threads;
    auto parallel = EnumerateMaximalCores(dataset.graph, oracle, opts);
    ASSERT_TRUE(parallel.status.ok());
    EXPECT_EQ(parallel.cores, sequential.cores) << "threads=" << threads;
  }
}

class ParallelMaxSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelMaxSweep, ThreadsDoNotChangeMaximumSize) {
  auto dataset = test::MakeRandomGeo(60, 260, GetParam());
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
  MaxOptions opts = AdvMaxOptions(2);
  auto sequential = FindMaximumCore(dataset.graph, oracle, opts);
  ASSERT_TRUE(sequential.status.ok());
  for (uint32_t threads : {2u, 4u, 8u}) {
    opts.parallel.num_threads = threads;
    auto parallel = FindMaximumCore(dataset.graph, oracle, opts);
    ASSERT_TRUE(parallel.status.ok());
    // The maximum *size* is schedule-independent (the set may differ among
    // equal-sized maxima; see MaxOptions::parallel).
    EXPECT_EQ(parallel.best.size(), sequential.best.size())
        << "threads=" << threads << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelMaxSweep,
                         ::testing::Range<uint64_t>(0, 6));

/// Acceptance requirement for intra-component forking: every multi-threaded
/// run forks subtrees inside components, and its enumeration result set is
/// byte-identical to the 1-thread run.
class SubtreeSplitSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubtreeSplitSweep, EnumForksAndStaysIdenticalAcrossThreads) {
  auto dataset = test::MakeRandomGeo(60, 260, GetParam());
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
  EnumOptions opts = AdvEnumOptions(2);
  auto sequential = EnumerateMaximalCores(dataset.graph, oracle, opts);
  ASSERT_TRUE(sequential.status.ok());
  for (uint32_t threads : {2u, 4u, 8u}) {
    opts.parallel.num_threads = threads;
    auto parallel = EnumerateMaximalCores(dataset.graph, oracle, opts);
    ASSERT_TRUE(parallel.status.ok());
    EXPECT_EQ(parallel.cores, sequential.cores)
        << "threads=" << threads << " seed=" << GetParam();
    EXPECT_GT(parallel.stats.tasks_spawned, parallel.stats.components)
        << "threads=" << threads << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SubtreeSplitSweep,
                         ::testing::Range<uint64_t>(0, 6));

TEST(ParallelMax, BoundRefreshDoesNotChangeMaximumSize) {
  // Tiered lazy bounds are exact for any refresh interval: the cached value
  // stays a valid upper bound between recomputes.
  auto dataset = test::MakeRandomGeo(60, 260, 9);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
  MaxOptions opts = AdvMaxOptions(2);
  opts.bound_refresh = 1;  // recompute every node (the pre-tiered behavior)
  auto eager = FindMaximumCore(dataset.graph, oracle, opts);
  ASSERT_TRUE(eager.status.ok());
  for (uint32_t refresh : {4u, 64u, 100000u}) {
    opts.bound_refresh = refresh;
    auto lazy = FindMaximumCore(dataset.graph, oracle, opts);
    ASSERT_TRUE(lazy.status.ok());
    EXPECT_EQ(lazy.best.size(), eager.best.size()) << "refresh=" << refresh;
  }
}

TEST(ParallelMax, SeedIncumbentDoesNotChangeMaximumSize) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    auto dataset = test::MakeRandomGeo(60, 260, seed);
    SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
    MaxOptions opts = AdvMaxOptions(2);
    opts.use_seed_incumbent = false;
    auto unseeded = FindMaximumCore(dataset.graph, oracle, opts);
    ASSERT_TRUE(unseeded.status.ok());
    opts.use_seed_incumbent = true;
    auto seeded = FindMaximumCore(dataset.graph, oracle, opts);
    ASSERT_TRUE(seeded.status.ok());
    EXPECT_EQ(seeded.best.size(), unseeded.best.size()) << "seed=" << seed;
  }
}

/// Schedule independence against the slow oracle, not just against the
/// 1-thread run: on fixtures small enough for the exhaustive enumerator,
/// AdvEnum returns exactly the naive maximal cores and AdvMax a valid core
/// of the naive maximum size, for every thread count.
class NaiveOracleScheduleSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NaiveOracleScheduleSweep, AdvEnumAndAdvMaxMatchNaiveOnEverySchedule) {
  constexpr uint32_t kK = 2;
  for (bool geo : {true, false}) {
    Dataset dataset = geo ? test::MakeRandomGeo(24, 80, GetParam())
                          : test::MakeRandomKeyword(24, 80, GetParam());
    SimilarityOracle oracle(&dataset.attributes, dataset.metric,
                            geo ? 0.5 : 0.2);
    auto naive = EnumerateMaximalCoresNaive(dataset.graph, oracle, kK);
    ASSERT_TRUE(naive.status.ok()) << naive.status.ToString();
    size_t naive_max = 0;
    for (const auto& core : naive.cores) {
      naive_max = std::max(naive_max, core.size());
    }
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      EnumOptions eopts = AdvEnumOptions(kK);
      eopts.parallel.num_threads = threads;
      auto cores = EnumerateMaximalCores(dataset.graph, oracle, eopts);
      ASSERT_TRUE(cores.status.ok());
      EXPECT_EQ(cores.cores, naive.cores)
          << "threads=" << threads << " geo=" << geo
          << " seed=" << GetParam();

      MaxOptions mopts = AdvMaxOptions(kK);
      mopts.parallel.num_threads = threads;
      auto best = FindMaximumCore(dataset.graph, oracle, mopts);
      ASSERT_TRUE(best.status.ok());
      EXPECT_EQ(best.best.size(), naive_max)
          << "threads=" << threads << " geo=" << geo
          << " seed=" << GetParam();
      if (!best.best.empty()) {
        std::string why;
        EXPECT_TRUE(IsKrCore(dataset.graph, oracle, kK, best.best, &why))
            << why;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, NaiveOracleScheduleSweep,
                         ::testing::Range<uint64_t>(0, 16));

TEST(ParallelEnum, DeadlineStillPropagates) {
  auto dataset = test::MakeRandomGeo(40, 200, 5);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.8);
  EnumOptions opts = AdvEnumOptions(2);
  opts.deadline = Deadline::AfterSeconds(-1.0);
  opts.parallel.num_threads = 4;
  auto result = EnumerateMaximalCores(dataset.graph, oracle, opts);
  EXPECT_TRUE(result.status.IsDeadlineExceeded());
}

TEST(ParallelMax, DeadlineStillPropagates) {
  auto dataset = test::MakeRandomGeo(40, 200, 5);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.8);
  MaxOptions opts = AdvMaxOptions(2);
  opts.deadline = Deadline::AfterSeconds(-1.0);
  opts.parallel.num_threads = 4;
  auto result = FindMaximumCore(dataset.graph, oracle, opts);
  EXPECT_TRUE(result.status.IsDeadlineExceeded());
}

}  // namespace
}  // namespace krcore
