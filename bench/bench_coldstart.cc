// Measures snapshot cold start: process launch to first query result, for
// the v4 mmap layout loaded eagerly and lazily:
//
//   Coldstart  load + first maximum query on one scored serving substrate:
//                v4_eager   mmap the v4 file, validate every component now
//                v4_lazy    mmap the v4 file, validate on first touch —
//                           the maximum search's size pruning then skips
//                           validation of every component smaller than the
//                           incumbent, so only the largest few pay
//              The Speedup series records v4_eager_total / v4_lazy_total;
//              rss_delta_mb records the resident-set growth of load+query
//              (the lazy path keeps cold components out of memory).
//
// The in-memory workspace, the eager load and the lazy load must return
// the identical maximum core; the binary exits non-zero on divergence. The
// CI bench-smoke job checks the emitted JSON with bench/check_bench_json.py.
//
// Usage: bench_coldstart [--scale=] [--timeout=] [--quick]
//                        [--json=BENCH_coldstart.json] [--csv=]

#include <cstdio>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_support/experiment.h"
#include "core/maximum.h"
#include "core/pipeline.h"
#include "datasets/generators.h"
#include "graph/graph_builder.h"
#include "snapshot/workspace_snapshot.h"
#include "util/options.h"
#include "util/random.h"
#include "util/timer.h"

using namespace krcore;

namespace {

/// A serving-shaped map with one dense, geographically tight "flagship"
/// city plus many small tenant cities ~1000 km apart: the maximum search
/// seeds its incumbent in the flagship (which holds the global max-degree
/// vertex) and size-prunes every smaller component, so a lazy load
/// validates only the flagship's bytes while an eager load pays for the
/// whole file — the many-tenant registry shape the mmap layout targets.
/// Tenant cities are spread over ~15 km, so the 40..80 km score band is
/// populated and the snapshot carries scored reserve segments.
Dataset ServingDataset(const ExperimentEnv& env) {
  Rng rng(env.seed);
  const uint32_t flagship_n = 1500;
  const uint32_t tenant_n = 550;
  const uint32_t num_tenants =
      static_cast<uint32_t>(45 * env.scale) + 1;
  const uint32_t n = flagship_n + num_tenants * tenant_n;

  std::vector<GeoPoint> points(n);
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::unordered_set<uint64_t> seen;
  VertexId base = 0;
  for (uint32_t cluster = 0; cluster <= num_tenants; ++cluster) {
    const bool flagship = cluster == 0;
    const uint32_t size = flagship ? flagship_n : tenant_n;
    const double cx = (cluster % 8) * 1000.0;
    const double cy = (cluster / 8) * 1000.0;
    const double sigma = flagship ? 2.0 : 15.0;
    for (uint32_t i = 0; i < size; ++i) {
      points[base + i] = {cx + rng.NextGaussian() * sigma,
                          cy + rng.NextGaussian() * sigma};
    }
    const double degree = flagship ? 16.0 : 8.0;
    const uint64_t target = static_cast<uint64_t>(size * degree / 2.0);
    uint64_t added = 0;
    while (added < target) {
      VertexId u = base + static_cast<VertexId>(rng.NextBounded(size));
      VertexId v = base + static_cast<VertexId>(rng.NextBounded(size));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (!seen.insert((uint64_t{u} << 32) | v).second) continue;
      edges.emplace_back(u, v);
      ++added;
    }
    base += size;
  }

  Dataset d;
  d.name = "coldstart_tenants";
  d.graph = MakeGraph(n, edges);
  d.attributes = AttributeTable::ForGeo(std::move(points));
  d.metric = Metric::kEuclideanDistance;
  return d;
}

/// Resident set size in bytes (Linux /proc/self/statm; 0 elsewhere).
uint64_t ResidentBytes() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  unsigned long long total = 0, resident = 0;
  int got = std::fscanf(f, "%llu %llu", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * 4096ull;
#else
  return 0;
#endif
}

/// The first query every variant answers: the maximum (k, r)-core.
MaximumCoreResult FirstQuery(const PreparedWorkspace& ws, uint32_t k,
                             const ExperimentEnv& env) {
  MaxOptions opts = AdvMaxOptions(k);
  opts.deadline = Deadline::AfterSeconds(env.timeout_seconds);
  opts.parallel.num_threads = env.threads;
  return FindMaximumCore(ws.components, opts);
}

struct ColdstartRun {
  double load_seconds = 0.0;
  double query_seconds = 0.0;
  double total_seconds = 0.0;
  double rss_delta_mb = 0.0;
  VertexSet best;
  bool ok = false;
};

ColdstartRun RunColdstart(const std::string& path, bool lazy, uint32_t k,
                          const ExperimentEnv& env, const std::string& series,
                          FigureReport* report) {
  ColdstartRun run;
  const uint64_t rss_before = ResidentBytes();

  PreparedWorkspace ws;
  SnapshotLoadOptions load_options;
  load_options.lazy = lazy;
  SnapshotLoadInfo info;
  Timer load_timer;
  if (Status s = LoadWorkspaceSnapshot(path, load_options, &ws, &info);
      !s.ok()) {
    std::fprintf(stderr, "%s: load failed: %s\n", series.c_str(),
                 s.ToString().c_str());
    return run;
  }
  run.load_seconds = load_timer.ElapsedSeconds();

  Timer query_timer;
  MaximumCoreResult result = FirstQuery(ws, k, env);
  run.query_seconds = query_timer.ElapsedSeconds();
  if (!result.status.ok()) {
    std::fprintf(stderr, "%s: first query failed: %s\n", series.c_str(),
                 result.status.ToString().c_str());
    return run;
  }
  run.total_seconds = run.load_seconds + run.query_seconds;
  run.rss_delta_mb =
      static_cast<double>(ResidentBytes() - rss_before) / (1024.0 * 1024.0);
  run.best = result.best;
  run.ok = true;

  std::printf(
      "%-10s v%u%s: load %.4fs, first query %.4fs, total %.4fs, "
      "rss +%.1f MB, |max| = %zu\n",
      series.c_str(), info.format_version, info.mapped ? " (mmap)" : "",
      run.load_seconds, run.query_seconds, run.total_seconds,
      run.rss_delta_mb, result.best.size());

  Measurement load_m;
  load_m.series = series;
  load_m.x_label = "load";
  load_m.seconds = run.load_seconds;
  report->Add(load_m);
  Measurement query_m = MeasureMax(series, "first_query", result);
  query_m.seconds = run.query_seconds;
  report->Add(query_m);
  Measurement total_m;
  total_m.series = series;
  total_m.x_label = "total";
  total_m.seconds = run.total_seconds;
  report->Add(total_m);
  Measurement rss_m;
  rss_m.series = series;
  rss_m.x_label = "rss_delta_mb";
  rss_m.seconds = run.rss_delta_mb;
  report->Add(rss_m);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser options(argc, argv);
  auto env = ExperimentEnv::FromOptions(options);
  if (env.quick) env.scale = env.scale * 0.2;

  Dataset serving = ServingDataset(env);
  std::printf("%s\n", serving.StatsString().c_str());

  // One scored preparation (loosest r = 80 km, scores covering down to
  // 40 km) written once; both cold starts then race on the same bytes.
  const uint32_t k = 3;
  SimilarityOracle oracle = serving.MakeOracle(80.0);
  PipelineOptions prep;
  prep.k = k;
  prep.score_cover = 40.0;
  prep.deadline = Deadline::AfterSeconds(env.timeout_seconds * 4);
  PreparedWorkspace ws;
  if (Status s = PrepareWorkspace(serving.graph, oracle, prep, &ws); !s.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("prepared: %zu components, %u vertices\n", ws.components.size(),
              (unsigned)ws.num_vertices());

  MaximumCoreResult in_memory = FirstQuery(ws, k, env);
  if (!in_memory.status.ok()) {
    std::fprintf(stderr, "in-memory query failed: %s\n",
                 in_memory.status.ToString().c_str());
    return 1;
  }

  const std::string v4_path = "bench_coldstart_v4.krws";
  if (Status s = SaveWorkspaceSnapshot(ws, v4_path); !s.ok()) {
    std::fprintf(stderr, "save v4 failed: %s\n", s.ToString().c_str());
    return 1;
  }

  FigureReport figure("Coldstart",
                      "snapshot load to first maximum-query result");
  ColdstartRun v4_eager =
      RunColdstart(v4_path, /*lazy=*/false, k, env, "v4_eager", &figure);
  ColdstartRun v4_lazy =
      RunColdstart(v4_path, /*lazy=*/true, k, env, "v4_lazy", &figure);
  std::remove(v4_path.c_str());

  if (!v4_eager.ok || !v4_lazy.ok) return 1;
  const bool identical = in_memory.best == v4_eager.best &&
                         in_memory.best == v4_lazy.best;
  const double speedup = v4_lazy.total_seconds > 0
                             ? v4_eager.total_seconds / v4_lazy.total_seconds
                             : 0.0;
  Measurement speedup_m;
  speedup_m.series = "Speedup";
  speedup_m.x_label = "total";
  speedup_m.seconds = speedup;
  figure.Add(speedup_m);
  figure.Finish(env);

  std::printf("v4 eager %.4fs -> v4 lazy %.4fs: %.1fx load-to-first-result, "
              "in-memory/eager/lazy results %s\n",
              v4_eager.total_seconds, v4_lazy.total_seconds, speedup,
              identical ? "identical" : "DIFFER (BUG)");
  if (!identical) return 1;

  if (!env.json_path.empty()) {
    char command[160];
    std::snprintf(command, sizeof(command),
                  "bench_coldstart --scale=%g --timeout=%g%s", env.scale,
                  env.timeout_seconds, env.quick ? " --quick" : "");
    WriteJsonReport(
        env.json_path, "bench_coldstart",
        "Snapshot cold start: load to first maximum-query result on one "
        "scored serving substrate, for the v4 mmap layout loaded eagerly "
        "(every component validated at load) and lazily (first-touch "
        "validation). Lazy validation plus the maximum search's size "
        "pruning means only the largest components pay validation; the "
        "Speedup series at x=total records v4_eager/v4_lazy wall time and "
        "rss_delta_mb the resident-set growth of load+query per variant. "
        "The in-memory, eager and lazy maximum cores must be identical.",
        command, env, {&figure});
  }
  return 0;
}
