// Workload `mine`: batch analytics. One score-annotated v4 snapshot of the
// gowalla analogue serves a fixed list of enum and max (k,r) cells; every
// query pays a lazy snapshot open, validation, derivation and the search,
// once at 1 thread and once at the parallel thread count. The search kernel
// and the parallel drivers do nearly all of the work here.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "core/pipeline.h"
#include "core/verify.h"
#include "datasets/generators.h"
#include "snapshot/workspace_snapshot.h"
#include "util/random.h"

namespace krbench {
namespace {

using krcore::QueryKind;

// The dataset is fixed on purpose: the search cost of one cell moves ~11x
// across generator seeds (k=6, r=20 km: 4.9 s to 53 s), so the seed drives
// the query order instead (see README.md).
constexpr uint64_t kDatasetSeed = 1;
constexpr uint32_t kBaseK = 5;
constexpr double kBaseR = 30.0;   // loosest r in the cell list (km)
constexpr double kCoverR = 15.0;  // strictest r in the cell list (km)

// k=10/r=30 is the giant-component max cell; k=8/r=20 spends most of its
// time in the maximal check and FilterNonMaximal (5x more emitted cores
// than maximal ones).
const std::vector<Cell> kCells = {
    {QueryKind::kEnumerate, 6, 15.0}, {QueryKind::kEnumerate, 7, 15.0},
    {QueryKind::kEnumerate, 8, 20.0}, {QueryKind::kEnumerate, 10, 25.0},
    {QueryKind::kMaximum, 6, 15.0},   {QueryKind::kMaximum, 7, 15.0},
    {QueryKind::kMaximum, 10, 25.0},  {QueryKind::kMaximum, 10, 30.0},
};

// Set-ups before the timed phase. One more follows every pass, so the
// median of all of them samples the host's speed, which drifts over tens
// of seconds, across the whole run.
constexpr int kSetupReps = 4;
// A pass (every cell at 1 and at N threads) takes ~6 s on the reference
// host; the run makes floor(seconds / kSecondsPerPass) passes so that the
// number of samples, and with it the tail percentile, does not depend on
// how fast the passes happen to be.
constexpr double kSecondsPerPass = 6.5;

struct Outcome {
  krcore::Status status;
  Mined mined;
  double wall = 0.0;  // snapshot open -> result, workspaces released
};

Outcome RunQuery(const std::string& path, const Cell& cell, uint32_t threads,
                 uint64_t id) {
  Outcome out;
  const double t0 = Now();
  {
    ScopedSpan query("query", id);
    krcore::PreparedWorkspace base;
    {
      ScopedSpan s("snapshot.open", id);
      krcore::SnapshotLoadOptions load;
      load.lazy = true;
      out.status = krcore::LoadWorkspaceSnapshot(path, load, &base);
    }
    if (out.status.ok()) {
      ScopedSpan s("snapshot.validate", id);
      out.status = base.EnsureAllValid();
    }
    krcore::PreparedWorkspace ws;
    if (out.status.ok()) {
      ScopedSpan s("pipeline.derive", id);
      krcore::PipelineOptions pipe;
      pipe.k = cell.k;
      out.status = krcore::DeriveWorkspace(base, cell.k, cell.r, pipe, &ws);
    }
    if (out.status.ok()) {
      out.mined = MineCell(ws.components, cell, threads, id);
      out.status = out.mined.status;
    }
  }  // the workspaces and the mapping are released inside the wall time
  out.wall = Now() - t0;
  return out;
}

struct Setup {
  krcore::Dataset dataset;
  krcore::PreprocessReport prep;
  uint64_t snapshot_bytes = 0;
};

krcore::Status SetupOnce(const std::string& path, Setup* setup) {
  ScopedSpan root("setup", 0);
  {
    ScopedSpan s("datasets.generate", 0);
    setup->dataset = krcore::MakePaperAnalogue("gowalla", 1.0, kDatasetSeed);
  }
  krcore::SimilarityOracle oracle = setup->dataset.MakeOracle(kBaseR);
  krcore::PipelineOptions prep;
  prep.k = kBaseK;
  prep.score_cover = kCoverR;
  krcore::PreparedWorkspace ws;
  {
    ScopedSpan s("pipeline.prepare", 0);
    setup->prep = krcore::PreprocessReport();
    if (krcore::Status st = krcore::PrepareWorkspace(
            setup->dataset.graph, oracle, prep, &ws, &setup->prep);
        !st.ok()) {
      return st;
    }
  }
  {
    ScopedSpan s("snapshot.save", 0);
    if (krcore::Status st = krcore::SaveWorkspaceSnapshot(ws, path);
        !st.ok()) {
      return st;
    }
  }
  setup->snapshot_bytes = std::filesystem::file_size(path);
  return krcore::Status::OK();
}

/// Everything one pass measured.
struct Pass {
  bool traced = false;
  double enum_seq = 0, max_seq = 0, enum_par = 0, max_par = 0;
  std::vector<double> walls;  // every query of the pass, seconds
  // Kernel-only accounting (search calls), by kind and thread count.
  krcore::MiningStats enum_seq_stats, max_seq_stats, par_stats;
  double enum_seq_mine = 0, max_seq_mine = 0;
  double enum_par_mine = 0, max_par_mine = 0;
  double par_cpu = 0;
  double par_queries = 0;
};

}  // namespace

int RunMine(const RunConfig& config, Report* report) {
  Tracer& tracer = Tracer::Get();
  const std::string path = config.work_dir + "/mine.krws";

  // Set-up, repeated so its median is steady. Each repetition rebuilds
  // the same snapshot in place; the last copy is kept.
  std::vector<double> setup_times;
  Setup setup;
  auto setup_once = [&] {
    tracer.set_enabled(config.trace);
    const double t0 = Now();
    const krcore::Status s = SetupOnce(path, &setup);
    setup_times.push_back(Now() - t0);
    if (!s.ok()) {
      report->Attempt();
      report->Fail("setup: " + s.ToString());
    }
    return s.ok();
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!setup_once()) return 1;
  }

  std::vector<size_t> order(kCells.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  krcore::Rng rng(config.seed);
  rng.Shuffle(order);
  std::string order_names;
  for (size_t i : order) order_names += CellName(kCells[i]) + " ";
  report->Info("mine.cell_order", order_names);

  const int passes = std::max(config.trace ? 2 : 1,
                              static_cast<int>(std::floor(
                                  config.seconds / kSecondsPerPass + 1e-9)));
  report->Info("mine.passes", passes);

  // The reference answer of every cell: its first 1-thread run.
  std::vector<Answer> reference(kCells.size());
  std::vector<bool> have_reference(kCells.size(), false);
  std::vector<Pass> results;
  uint64_t query_id = 0;
  const double timed_start = Now();
  for (int p = 0; p < passes; ++p) {
    Pass pass;
    // Traced runs measure the first half untraced and the second traced;
    // the difference is the tracing overhead.
    pass.traced = config.trace && p >= passes / 2;
    tracer.set_enabled(pass.traced);
    for (size_t idx : order) {
      const Cell& cell = kCells[idx];
      for (uint32_t threads : {1u, config.par_threads}) {
        Outcome o = RunQuery(path, cell, threads, ++query_id);
        report->Attempt();
        const std::string what = CellName(cell) + " threads=" +
                                 std::to_string(threads) + " pass " +
                                 std::to_string(p);
        pass.walls.push_back(o.wall);
        const bool is_enum = cell.kind == QueryKind::kEnumerate;
        const Mined& mined = o.mined;
        (threads == 1 ? (is_enum ? pass.enum_seq : pass.max_seq)
                      : (is_enum ? pass.enum_par : pass.max_par)) += o.wall;
        if (threads == 1) {
          (is_enum ? pass.enum_seq_stats : pass.max_seq_stats)
              .MergeFrom(mined.stats);
          (is_enum ? pass.enum_seq_mine : pass.max_seq_mine) += mined.wall;
        } else {
          pass.par_stats.MergeFrom(mined.stats);
          (is_enum ? pass.enum_par_mine : pass.max_par_mine) += mined.wall;
          pass.par_cpu += mined.cpu;
          pass.par_queries += 1;
        }
        if (!o.status.ok()) {
          report->Fail(what + ": " + o.status.ToString());
          continue;
        }
        // Correctness gates, outside the timed query. Cells run at 1
        // thread first, so the reference is always a 1-thread answer; every
        // maximum core and every core of the reference is checked against
        // the dataset itself.
        krcore::SimilarityOracle oracle = setup.dataset.MakeOracle(cell.r);
        std::string why;
        const bool check_all = !have_reference[idx] || !is_enum;
        for (const auto& core : mined.answer.cores) {
          if (!check_all) break;
          if (!krcore::IsKrCore(setup.dataset.graph, oracle, cell.k, core,
                                &why)) {
            report->Fail(what + ": core fails IsKrCore: " + why);
            break;
          }
        }
        if (!have_reference[idx]) {
          reference[idx] = mined.answer;
          have_reference[idx] = true;
        } else if (!SameAnswer(cell, mined.answer, reference[idx])) {
          report->Fail(what + ": answer differs from the 1-thread answer");
        }
      }
    }
    results.push_back(std::move(pass));
    if (!setup_once()) return 1;
  }
  tracer.set_enabled(false);
  report->Info("mine.timed_seconds", Now() - timed_start);

  auto median_of = [&](auto field, bool traced) {
    std::vector<double> v;
    for (const Pass& p : results) {
      if (p.traced == traced) v.push_back(field(p));
    }
    return Median(v);
  };
  auto pooled = [&](bool traced) {
    std::vector<double> v;
    for (const Pass& p : results) {
      if (p.traced == traced) v.insert(v.end(), p.walls.begin(), p.walls.end());
    }
    return v;
  };

  // Query latency over the untraced passes; closed-loop rate of the
  // parallel queries.
  const std::vector<double> walls = pooled(false);
  Latency latency;
  latency.p50_ms = 1e3 * Median(walls);
  latency.tail = TailOf(walls);
  latency.max_rate_qps = median_of(
      [](const Pass& p) { return p.par_queries / (p.enum_par + p.max_par); },
      false);
  report->Info("latency.basis",
               "every query of every pass, 1-thread and parallel pooled; "
               "max_rate_qps: parallel queries / their summed wall");
  Layers layers;
  RecordLatency(latency, config.trace, report, &layers);

  if (!config.trace) {
    EndToEnd e2e;
    e2e.peak_rss_mb = PeakRssMb();
    e2e.setup_s = Median(setup_times);
    e2e.enum_seq_s = median_of([](const Pass& p) { return p.enum_seq; }, false);
    e2e.max_seq_s = median_of([](const Pass& p) { return p.max_seq; }, false);
    e2e.enum_par_s = median_of([](const Pass& p) { return p.enum_par; }, false);
    e2e.max_par_s = median_of([](const Pass& p) { return p.max_par; }, false);
    EmitEndToEnd(e2e, report);
    return 0;
  }

  // Per-layer numbers, from the traced passes and the traced set-ups.
  const std::vector<Span> spans = tracer.Snapshot();
  FillSetupLayers(spans, setup.prep, setup.snapshot_bytes, &layers);
  layers["snapshot.open_s"] = Median(SpanDurations(spans, "snapshot.open"));
  layers["snapshot.validate_s"] =
      Median(SpanDurations(spans, "snapshot.validate"));
  layers["pipeline.derive_s"] = Median(SpanDurations(spans, "pipeline.derive"));
  const Pass& last = results.back();
  layers["search.enum_nodes"] = last.enum_seq_stats.search_nodes;
  layers["search.max_nodes"] = last.max_seq_stats.search_nodes;
  layers["search.enum_us_per_node"] = median_of(
      [](const Pass& p) {
        return 1e6 * p.enum_seq_mine /
               std::max<double>(1, p.enum_seq_stats.search_nodes);
      },
      true);
  layers["search.max_us_per_node"] = median_of(
      [](const Pass& p) {
        return 1e6 * p.max_seq_mine /
               std::max<double>(1, p.max_seq_stats.search_nodes);
      },
      true);
  layers["search.maximal_check_nodes"] =
      last.enum_seq_stats.maximal_check_nodes;
  layers["search.emitted_per_maximal"] =
      static_cast<double>(last.enum_seq_stats.emitted_candidates) /
      std::max<double>(1, last.enum_seq_stats.maximal_found);
  layers["search.bound_prune_frac"] =
      static_cast<double>(last.max_seq_stats.bound_prunes) /
      std::max<double>(1, last.max_seq_stats.search_nodes);
  layers["search.bound_recomputes"] = last.max_seq_stats.bound_recomputes;
  layers["parallel.speedup_enum"] = median_of(
      [](const Pass& p) { return p.enum_seq_mine / p.enum_par_mine; }, true);
  layers["parallel.speedup_max"] = median_of(
      [](const Pass& p) { return p.max_seq_mine / p.max_par_mine; }, true);
  const double threads = config.par_threads;
  layers["parallel.efficiency"] = median_of(
      [threads](const Pass& p) {
        return p.par_cpu / ((p.enum_par_mine + p.max_par_mine) * threads);
      },
      true);
  layers["parallel.tasks"] = last.par_stats.tasks_spawned;
  layers["parallel.steals"] = last.par_stats.task_steals;
  double self = 0, total = 0;
  SelfTime(spans, "query", &self, &total);
  layers["query.self_frac"] = total > 0 ? self / total : 0.0;
  layers["trace.overhead_ms"] =
      1e3 * (Median(pooled(true)) - Median(pooled(false)));
  report->Info("parallel.speedup_base",
               "1-thread search-call wall / parallel search-call wall, "
               "summed over the cells of one pass");
  EmitPerLayer(layers, report);
  return 0;
}

}  // namespace krbench
