// Intra-component parallel scaling of the search engines: threads in
// {1,2,4,8} x {enum, max} on the synthetic fig13/fig14 workloads.
//   enum: AdvEnum on Gowalla, k=5, r=20km (the Fig 13(a) regime, loosened
//         so the search is substantial).
//   max:  AdvMax on Gowalla, k=5, r=30km (the Fig 14(a) regime) — after
//         preprocessing the runtime is dominated by one giant component,
//         the case per-component parallelism alone cannot speed up and the
//         on-demand subtree forking exists for.
//
// The enumeration output is checked byte-identical across thread counts and
// the maximum size schedule-independent; the exit code is 1 on a mismatch,
// so the quick run checks the forked-subtree path against the 1-thread
// answer. The speedup column is relative to the 1-thread run. Note
// config.hardware_concurrency in the JSON: wall-clock speedup can only
// materialize up to the physical core count.
//
// Usage: bench_par_scaling [--scale=] [--timeout=] [--quick] [--csv=]
//                          [--json=]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_support/experiment.h"
#include "bench_support/variants.h"
#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/pipeline.h"
#include "util/options.h"

using namespace krcore;

namespace {

/// Prints the component profile the searches will face, to substantiate the
/// "one giant component" skew claim for the max workload.
void PrintComponentProfile(const char* tag, const Dataset& dataset,
                           const SimilarityOracle& oracle, uint32_t k) {
  PipelineOptions popts;
  popts.k = k;
  std::vector<ComponentContext> comps;
  if (!PrepareComponents(dataset.graph, oracle, popts, &comps).ok()) return;
  uint64_t total = 0;
  VertexId biggest = 0;
  for (const auto& c : comps) {
    total += c.size();
    biggest = std::max(biggest, c.size());
  }
  std::printf("%s: %zu components, %llu vertices, biggest=%u (%.0f%%)\n", tag,
              comps.size(), (unsigned long long)total, biggest,
              total == 0 ? 0.0 : 100.0 * biggest / total);
}

void PrintSpeedups(const FigureReport& report) {
  const auto& ms = report.measurements();
  if (ms.empty() || ms.front().timed_out || ms.front().seconds <= 0) return;
  double base = ms.front().seconds;
  std::printf("  speedup vs 1 thread:");
  for (const auto& m : ms) {
    if (m.timed_out) {
      std::printf(" %s=INF", m.x_label.c_str());
    } else {
      std::printf(" %s=%.2fx", m.x_label.c_str(), base / m.seconds);
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser options(argc, argv);
  auto env = ExperimentEnv::FromOptions(options);
  std::vector<uint32_t> thread_counts =
      env.quick ? std::vector<uint32_t>{1, 2}
                : std::vector<uint32_t>{1, 2, 4, 8};

  bool identical = true;   // enumeration output across thread counts
  bool consistent = true;  // maximum size across thread counts
  FigureReport enum_report("ParScalEnum",
                           "AdvEnum thread scaling, Gowalla k=5 r=20km");
  {
    const Dataset& gowalla = GetDataset("gowalla", env);
    SimilarityOracle oracle = gowalla.MakeOracle(ResolveThresholdKm(20.0));
    PrintComponentProfile("enum workload (gowalla k=5 r=20km)", gowalla,
                          oracle, 5);
    std::vector<VertexSet> reference;
    for (uint32_t t : thread_counts) {
      EnumOptions opts = MakeEnumVariant("AdvEnum", 5, env.timeout_seconds);
      opts.parallel.num_threads = t;
      auto result = EnumerateMaximalCores(gowalla.graph, oracle, opts);
      char label[32];
      std::snprintf(label, sizeof(label), "threads=%u", t);
      Measurement m = MeasureEnum("AdvEnum", label, result);
      std::printf("enum %-10s %-9s cores=%llu tasks=%llu steals=%llu\n",
                  label, m.TimeString().c_str(),
                  (unsigned long long)result.cores.size(),
                  (unsigned long long)result.stats.tasks_spawned,
                  (unsigned long long)result.stats.task_steals);
      if (t == thread_counts.front()) {
        reference = result.cores;
      } else if (result.cores != reference) {
        identical = false;
      }
      enum_report.Add(std::move(m));
    }
    std::printf("  enumeration output across thread counts: %s\n",
                identical ? "IDENTICAL" : "MISMATCH (BUG)");
    PrintSpeedups(enum_report);
    enum_report.Finish(env);
  }

  FigureReport max_report("ParScalMax",
                          "AdvMax thread scaling, Gowalla k=5 r=30km");
  {
    const Dataset& gowalla = GetDataset("gowalla", env);
    SimilarityOracle oracle = gowalla.MakeOracle(ResolveThresholdKm(30.0));
    PrintComponentProfile("max workload (gowalla k=5 r=30km)", gowalla,
                          oracle, 5);
    uint64_t reference_size = 0;
    for (uint32_t t : thread_counts) {
      MaxOptions opts = MakeMaxVariant("AdvMax", 5, env.timeout_seconds);
      opts.parallel.num_threads = t;
      auto result = FindMaximumCore(gowalla.graph, oracle, opts);
      char label[32];
      std::snprintf(label, sizeof(label), "threads=%u", t);
      Measurement m = MeasureMax("AdvMax", label, result);
      std::printf("max  %-10s %-9s |max|=%llu tasks=%llu steals=%llu\n",
                  label, m.TimeString().c_str(),
                  (unsigned long long)result.best.size(),
                  (unsigned long long)result.stats.tasks_spawned,
                  (unsigned long long)result.stats.task_steals);
      if (t == thread_counts.front()) {
        reference_size = result.best.size();
      } else if (result.best.size() != reference_size) {
        consistent = false;
      }
      max_report.Add(std::move(m));
    }
    std::printf("  maximum size across thread counts: %s\n",
                consistent ? "CONSISTENT" : "MISMATCH (BUG)");
    PrintSpeedups(max_report);
    max_report.Finish(env);
  }

  if (!env.json_path.empty()) {
    char command[160];
    std::snprintf(command, sizeof(command),
                  "bench_par_scaling --scale=%g --timeout=%g", env.scale,
                  env.timeout_seconds);
    WriteJsonReport(
        env.json_path, "bench_par_scaling",
        "Thread scaling of the task-pool search drivers (per-component roots "
        "+ intra-component subtree forking) on the fig13/fig14 workloads.",
        command, env, {&enum_report, &max_report});
  }
  return identical && consistent ? 0 : 1;
}
