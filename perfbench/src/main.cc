// krbench: the (k,r)-core engine's end-to-end benchmark driver.
//
//   krbench --workload mine|serve|serve-ingest --seed N --seconds S
//           --trace 0|1 --work DIR
//
// Prints one JSON document on its last stdout line: the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1), the correctness tally
// and the run's provenance. Traced runs also write their spans, one JSON
// object per line, to DIR/trace-<workload>-<seed>.jsonl. Exits non-zero on
// any correctness failure. perfbench/run.py builds and runs this binary.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: krbench --workload mine|serve|serve-ingest --seed N "
               "--seconds S --trace 0|1 --work DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  krbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--work") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.seconds <= 0) return Usage();

  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  config.par_threads = static_cast<uint32_t>(std::clamp(usable, 1, 4));

  krbench::Report report;
  krbench::RecordProvenance(config, &report);
  int rc = 0;
  if (config.workload == "mine") {
    rc = krbench::RunMine(config, &report);
  } else if (config.workload == "serve") {
    rc = krbench::RunServe(config, /*ingest=*/false, &report);
  } else if (config.workload == "serve-ingest") {
    rc = krbench::RunServe(config, /*ingest=*/true, &report);
  } else {
    return Usage();
  }
  if (config.trace) {
    const std::string path = config.work_dir + "/trace-" + config.workload +
                             "-" + std::to_string(config.seed) + ".jsonl";
    if (!krbench::Tracer::Get().WriteJsonLines(path)) {
      report.Fail("cannot write " + path);
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return rc != 0 || report.failed() != 0 ? 1 : 0;
}
