#include "common.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/enumerate.h"
#include "core/maximum.h"

namespace krbench {

namespace {

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

thread_local std::vector<int64_t> open_spans;

}  // namespace

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::Open(const char* name, uint64_t request) {
  if (!enabled_) return -1;
  const int64_t parent = open_spans.empty() ? -1 : open_spans.back();
  const double start = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, start, parent, request});
  const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  open_spans.push_back(id);
  return id;
}

void Tracer::Close(int64_t id) {
  if (id < 0) return;
  const double end = Now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end = end;
  }
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
}

int64_t Tracer::Record(const char* name, double start, double end,
                       int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":" << JsonString(s.name)
        << ",\"start\":" << krcore::JsonDouble(s.start)
        << ",\"end\":" << krcore::JsonDouble(s.end)
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request)
    : id_(Tracer::Get().Open(name, request)) {}

ScopedSpan::~ScopedSpan() { Tracer::Get().Close(id_); }

std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

void SelfTime(const std::vector<Span>& spans, const std::string& name,
              double* self_seconds, double* total_seconds) {
  std::map<int64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start, s.end});
  }
  *self_seconds = 0.0;
  *total_seconds = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name != name) continue;
    const double duration = s.end - s.start;
    *total_seconds += duration;
    // Union of the children's intervals clipped to the parent.
    auto& kids = children[static_cast<int64_t>(i)];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = s.start;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, cursor);
      const double hi = std::min(b, s.end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    *self_seconds += duration - covered;
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t index = n >= 11 ? n - 11 : n - 1;
  t.value = v[index];
  t.percentile = 100.0 * static_cast<double>(index + 1) / n;
  return t;
}

std::string CellName(const Cell& cell) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s:k=%u,r=%g",
                krcore::QueryKindName(cell.kind), cell.k, cell.r);
  return buf;
}

bool SameAnswer(const Cell& cell, const Answer& got, const Answer& ref) {
  switch (cell.kind) {
    case krcore::QueryKind::kEnumerate: {
      std::vector<krcore::VertexSet> a = got.cores;
      std::vector<krcore::VertexSet> b = ref.cores;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      return a == b;
    }
    case krcore::QueryKind::kMaximum:
      return got.count == ref.count;
    case krcore::QueryKind::kDerive:
      return got == ref;
  }
  return false;
}

Mined MineCell(const std::vector<krcore::ComponentContext>& components,
               const Cell& cell, uint32_t threads, uint64_t id) {
  Mined out;
  const bool seq = threads == 1;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = Now();
  switch (cell.kind) {
    case krcore::QueryKind::kEnumerate: {
      ScopedSpan s(seq ? "search.enum" : "parallel.enum", id);
      krcore::EnumOptions opts = krcore::AdvEnumOptions(cell.k);
      opts.parallel.num_threads = threads;
      krcore::MaximalCoresResult r =
          krcore::EnumerateMaximalCores(components, opts);
      out.status = r.status;
      out.stats = r.stats;
      out.answer.count = r.cores.size();
      out.answer.cores = std::move(r.cores);
      break;
    }
    case krcore::QueryKind::kMaximum: {
      ScopedSpan s(seq ? "search.max" : "parallel.max", id);
      krcore::MaxOptions opts = krcore::AdvMaxOptions(cell.k);
      opts.parallel.num_threads = threads;
      krcore::MaximumCoreResult r = krcore::FindMaximumCore(components, opts);
      out.status = r.status;
      out.stats = r.stats;
      out.answer.count = r.best.size();
      if (!r.best.empty()) out.answer.cores.push_back(std::move(r.best));
      break;
    }
    case krcore::QueryKind::kDerive:
      for (const auto& c : components) out.answer.count += c.size();
      out.answer.components = components.size();
      break;
  }
  out.wall = Now() - t0;
  out.cpu = ProcessCpuSeconds() - cpu0;
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out(1, '"');
  out += krcore::JsonEscape(s);
  out += '"';
  return out;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& key, const std::string& value) {
  info_[key] = JsonString(value);
}

void Report::Info(const std::string& key, double value) {
  info_[key] = krcore::JsonDouble(value);
}

void Report::InfoTail(const std::string& key, const Tail& t) {
  std::ostringstream s;
  s << "{\"percentile\":" << krcore::JsonDouble(t.percentile)
    << ",\"samples\":" << t.samples << "}";
  info_[key] = s.str();
}

void Report::Fail(const std::string& why) {
  ++failed_;
  if (errors_.size() < 50) errors_.push_back(why);
  std::fprintf(stderr, "krbench: FAILED: %s\n", why.c_str());
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\":" << (failed_ == 0 ? "true" : "false")
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    out << (i ? "," : "") << JsonString(name)
        << ":{\"value\":" << krcore::JsonDouble(vu.first)
        << ",\"unit\":" << JsonString(vu.second) << "}";
  }
  out << "},\"info\":{";
  bool first = true;
  for (const auto& [key, value] : info_) {
    out << (first ? "" : ",") << JsonString(key) << ":" << value;
    first = false;
  }
  out << "},\"errors\":[";
  for (size_t i = 0; i < errors_.size(); ++i) {
    out << (i ? "," : "") << JsonString(errors_[i]);
  }
  out << "]}";
  return out.str();
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kPerLayer[] = {
    {"datasets.generate_s", "s"},
    {"pipeline.prepare_s", "s"},
    {"join.oracle_calls", "count"},
    {"join.pruned_frac", "ratio"},
    {"snapshot.save_s", "s"},
    {"snapshot.bytes", "bytes"},
    {"snapshot.open_s", "s"},
    {"snapshot.validate_s", "s"},
    {"pipeline.derive_s", "s"},
    {"search.enum_nodes", "count"},
    {"search.max_nodes", "count"},
    {"search.enum_us_per_node", "us"},
    {"search.max_us_per_node", "us"},
    {"search.maximal_check_nodes", "count"},
    {"search.emitted_per_maximal", "ratio"},
    {"search.bound_prune_frac", "ratio"},
    {"search.bound_recomputes", "count"},
    {"parallel.speedup_enum", "ratio"},
    {"parallel.speedup_max", "ratio"},
    {"parallel.efficiency", "ratio"},
    {"parallel.tasks", "count"},
    {"parallel.steals", "count"},
    {"server.overhead_ms", "ms"},
    {"server.wait_p50_ms", "ms"},
    {"server.wait_tail_ms", "ms"},
    {"server.coalesce_frac", "ratio"},
    {"server.queue_depth_max", "count"},
    {"server.rejected", "count"},
    {"gen.late_ms", "ms"},
    {"live.resolve_us", "us"},
    {"ingest.submit_block_ms", "ms"},
    {"ingest.apply_ms", "ms"},
    {"ingest.publish_ms", "ms"},
    {"ingest.writer_busy_frac", "ratio"},
    {"ingest.updates_per_busy_s", "1/s"},
    {"ingest.coalesced_frac", "ratio"},
    {"ingest.fallback_rebuilds", "count"},
    {"ingest.rolled_back_batches", "count"},
    {"ingest.visible_p50_ms", "ms"},
    {"ingest.visible_tail_ms", "ms"},
    {"latency.p50_ms", "ms"},
    {"latency.tail_ms", "ms"},
    {"latency.max_rate_qps", "q/s"},
    {"query.self_frac", "ratio"},
    {"trace.overhead_ms", "ms"},
    {"run.failed_frac", "ratio"},
};

}  // namespace

void EmitEndToEnd(const EndToEnd& e2e, Report* report) {
  report->Metric("setup_s", e2e.setup_s, "s");
  report->Metric("peak_rss_mb", e2e.peak_rss_mb, "MB");
  report->Metric("enum_seq_s", e2e.enum_seq_s, "s");
  report->Metric("max_seq_s", e2e.max_seq_s, "s");
  report->Metric("enum_par_s", e2e.enum_par_s, "s");
  report->Metric("max_par_s", e2e.max_par_s, "s");
}

void RecordLatency(const Latency& latency, bool trace, Report* report,
                   Layers* layers) {
  report->Info("latency.p50_ms", latency.p50_ms);
  report->Info("latency.tail_ms", 1e3 * latency.tail.value);
  report->InfoTail("latency.tail", latency.tail);
  report->Info("latency.max_rate_qps", latency.max_rate_qps);
  if (!trace) return;
  (*layers)["latency.p50_ms"] = latency.p50_ms;
  (*layers)["latency.tail_ms"] = 1e3 * latency.tail.value;
  (*layers)["latency.max_rate_qps"] = latency.max_rate_qps;
}

void EmitPerLayer(const Layers& layers, Report* report) {
  Layers values = layers;
  values["run.failed_frac"] =
      static_cast<double>(report->failed()) /
      std::max<double>(1, static_cast<double>(report->attempted()));
  for (const MetricDef& m : kPerLayer) {
    auto it = values.find(m.name);
    report->Metric(m.name, it == values.end() ? 0.0 : it->second, m.unit);
    if (it != values.end()) values.erase(it);
  }
  for (const auto& [name, value] : values) {
    std::fprintf(stderr, "krbench: per-layer value %s is not in the list\n",
                 name.c_str());
  }
}

void FillSetupLayers(const std::vector<Span>& spans,
                     const krcore::PreprocessReport& prep,
                     uint64_t snapshot_bytes, Layers* layers) {
  (*layers)["datasets.generate_s"] =
      Median(SpanDurations(spans, "datasets.generate"));
  (*layers)["pipeline.prepare_s"] =
      Median(SpanDurations(spans, "pipeline.prepare"));
  (*layers)["join.oracle_calls"] = static_cast<double>(prep.oracle_calls);
  (*layers)["join.pruned_frac"] =
      static_cast<double>(prep.pruned_pairs) /
      std::max<double>(1, static_cast<double>(prep.pairs_evaluated));
  (*layers)["snapshot.save_s"] = Median(SpanDurations(spans, "snapshot.save"));
  (*layers)["snapshot.bytes"] = static_cast<double>(snapshot_bytes);
}

void RecordProvenance(const RunConfig& config, Report* report) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  report->Info("nproc", usable);
  report->Info("hardware_concurrency", std::thread::hardware_concurrency());
  report->Info("par_threads", config.par_threads);
  report->Info("seed", static_cast<double>(config.seed));
  report->Info("seconds", config.seconds);
  report->Info("trace", config.trace ? 1.0 : 0.0);
  report->Info("workload", config.workload);
  report->Info("build_type", KRBENCH_BUILD_TYPE);
  report->Info("compiler", KRBENCH_COMPILER);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace krbench
