// Shared plumbing of the krbench driver: the outside-in span recorder, the
// latency statistics every workload reports, and the result document the
// driver prints. Nothing here reaches into the library's internals — spans
// wrap public calls and counters are the ones the public API returns.
#ifndef KRBENCH_COMMON_H_
#define KRBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/krcore_types.h"
#include "core/pipeline.h"
#include "core/preprocess_options.h"
#include "server/protocol.h"

namespace krbench {

/// Seconds on the steady clock since the process started.
double Now();

/// Process CPU seconds (all threads), for parallel efficiency.
double ProcessCpuSeconds();

/// One recorded span: a wall interval around a public call. `parent` is the
/// index of the enclosing span (-1 for a root); spans of one query share
/// `request`.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// In-memory span store. Disabled by default; when disabled every call is a
/// branch and nothing is recorded, so the untraced run executes the same
/// calls without the bookkeeping.
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the calling thread's innermost open span.
  int64_t Open(const char* name, uint64_t request);
  void Close(int64_t id);
  /// Records a span whose bounds were measured elsewhere (e.g. a request
  /// span that starts at its scheduled send time).
  int64_t Record(const char* name, double start, double end, int64_t parent,
                 uint64_t request);

  std::vector<Span> Snapshot() const;
  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_;
};

/// Durations of every span named `name`.
std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const std::string& name);

/// Sum over spans named `name` of their duration minus the part of it
/// covered by their children (the unattributed self time), and the sum of
/// their durations.
void SelfTime(const std::vector<Span>& spans, const std::string& name,
              double* self_seconds, double* total_seconds);

double Median(std::vector<double> v);

/// "The highest percentile with at least ten samples beyond it": the 11th
/// largest sample, reported with its percentile rank and the sample count.
/// With fewer than 11 samples the maximum is reported (percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> v);

/// One query cell: what to compute at which (k, r).
struct Cell {
  krcore::QueryKind kind;
  uint32_t k;
  double r;
};
std::string CellName(const Cell& cell);

/// One answer, in the engine's order, as the server would return it.
struct Answer {
  /// enum: every maximal core; max: the maximum core, if one exists.
  std::vector<krcore::VertexSet> cores;
  uint64_t count = 0;       // #cores, the maximum size, or derive #vertices
  uint64_t components = 0;  // derive only
  bool operator==(const Answer&) const = default;
};

/// Whether `got` answers `cell` as the reference run did: the same enum
/// result set (in any order), the same maximum size (ties may pick another
/// core), or the same derived cell.
bool SameAnswer(const Cell& cell, const Answer& got, const Answer& ref);

/// One search call on prepared components, timed from outside.
struct Mined {
  krcore::Status status;
  Answer answer;
  krcore::MiningStats stats;
  double wall = 0.0;  // the search call
  double cpu = 0.0;   // process CPU seconds during it
};

/// Runs `cell`'s search on `components` at `threads` (the library's AdvEnum
/// / AdvMax presets, as the server runs them) inside a `search.*` span at
/// 1 thread and a `parallel.*` span otherwise. A derive cell reports the
/// components' size.
Mined MineCell(const std::vector<krcore::ComponentContext>& components,
               const Cell& cell, uint32_t threads, uint64_t id);

/// The document one run produces. `metrics` holds what the driver prints;
/// `info` holds provenance and diagnostics (numbers or strings).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);
  void InfoTail(const std::string& key, const Tail& t);
  /// Records a correctness failure (counted in `failed`).
  void Fail(const std::string& why);
  void Attempt(uint64_t n = 1) { attempted_ += n; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::map<std::string, std::string> info_;  // values already JSON-encoded
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The end-to-end metrics every workload reports (see README.md for what
/// each one means on each workload).
struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double enum_seq_s = 0.0;
  double max_seq_s = 0.0;
  double enum_par_s = 0.0;
  double max_par_s = 0.0;
};

void EmitEndToEnd(const EndToEnd& e2e, Report* report);

/// Per-layer values by metric name. EmitPerLayer prints every per-layer
/// metric; a layer the workload does not exercise reads 0.
using Layers = std::map<std::string, double>;
void EmitPerLayer(const Layers& layers, Report* report);

/// The query latency figures of a run. They are too noisy on a shared host
/// to gate on (README.md), so untraced runs record them as information and
/// traced runs print them as the `latency.*` per-layer metrics.
struct Latency {
  double p50_ms = 0.0;
  Tail tail;  // seconds
  double max_rate_qps = 0.0;
};
void RecordLatency(const Latency& latency, bool trace, Report* report,
                   Layers* layers);

/// The set-up layers every workload shares: generation, preparation, the
/// join counters and the snapshot save, from the traced set-up spans.
void FillSetupLayers(const std::vector<Span>& spans,
                     const krcore::PreprocessReport& prep,
                     uint64_t snapshot_bytes, Layers* layers);

/// Parsed command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  /// min(4, usable cores): the parallel pass's thread count.
  uint32_t par_threads = 1;
};

/// Records host, build and run provenance into `report`.
void RecordProvenance(const RunConfig& config, Report* report);

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

std::string JsonString(const std::string& s);

int RunMine(const RunConfig& config, Report* report);
int RunServe(const RunConfig& config, bool ingest, Report* report);

}  // namespace krbench

#endif  // KRBENCH_COMMON_H_
