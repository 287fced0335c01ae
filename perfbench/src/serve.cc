// Workloads `serve` and `serve-ingest`: open-loop serving of a lazily
// registered, score-annotated snapshot through QueryServer (default stage
// threads, coalescing on). One generator thread sends Poisson arrivals over
// a fixed list of enum, max and derive cells with skewed popularity, first
// at a nominal rate and then up a short rate ladder. `serve-ingest` runs the
// same traffic against a LiveWorkspace while the same generator thread
// submits a seeded edge stream into an IngestPipeline at a fixed rate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/pipeline.h"
#include "core/workspace_update.h"
#include "datasets/generators.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/live_workspace.h"
#include "server/query_server.h"
#include "server/workspace_registry.h"
#include "snapshot/workspace_snapshot.h"
#include "util/random.h"

namespace krbench {
namespace {

using krcore::EdgeUpdate;
using krcore::QueryKind;
using Stream = std::vector<std::vector<EdgeUpdate>>;

// The serving dataset of bench_server_throughput, fixed like mine's (the
// seed drives the traffic and the edge stream, not the graph).
constexpr uint64_t kDatasetSeed = 1;
constexpr uint32_t kBaseK = 3;
constexpr double kBaseR = 80.0;   // km, loosest served r
constexpr double kCoverR = 40.0;  // km, strictest served r
const char kWorkspace[] = "serving";

// Every (kind, k, r) cell of kinds x {3..6} x {40, 60, 80} km, in a fixed
// popularity order: the j-th cell gets a share of the requests proportional
// to 1/(j+1), so popular cells see concurrent duplicates that coalesce,
// while the long tail of distinct cells keeps the server's queue (and the
// latency knee) real. The 1/rank skew is assumed, not measured.
std::vector<Cell> MakeCells() {
  std::vector<Cell> cells;
  for (QueryKind kind :
       {QueryKind::kEnumerate, QueryKind::kMaximum, QueryKind::kDerive}) {
    for (uint32_t k : {3u, 4u, 5u, 6u}) {
      for (double r : {40.0, 60.0, 80.0}) cells.push_back({kind, k, r});
    }
  }
  krcore::Rng popularity(2024);  // fixed: the mix is the same for every seed
  popularity.Shuffle(cells);
  return cells;
}
const std::vector<Cell> kCells = MakeCells();

/// The cells of `n` requests: exactly the popularity shares (largest
/// remainder), in seeded order, so every seed offers the same mix.
std::vector<uint32_t> DrawCells(size_t n, krcore::Rng* rng) {
  double total = 0.0;
  for (size_t j = 0; j < kCells.size(); ++j) total += 1.0 / (j + 1);
  std::vector<uint32_t> cells;
  std::vector<std::pair<double, uint32_t>> remainders;
  for (uint32_t j = 0; j < kCells.size(); ++j) {
    const double share = n * (1.0 / (j + 1)) / total;
    const size_t whole = static_cast<size_t>(share);
    cells.insert(cells.end(), whole, j);
    remainders.push_back({whole - share, j});
  }
  std::sort(remainders.begin(), remainders.end());
  for (size_t i = 0; cells.size() < n; ++i) {
    cells.push_back(remainders[i].second);
  }
  rng->Shuffle(cells);
  return cells;
}

// Open-loop traffic, synthetic: the rates are shares of capacities this
// benchmark measures (README.md, "Offered traffic"), not taken from a trace.
// The derive stage (~10-18 ms per cell) is the bottleneck; the nominal rate
// keeps it ~7% busy (info serve.derive_busy_frac), so the latency figures
// read service time and writer interference rather than queueing bursts,
// which at 20 q/s swung the tail by 40% between seeds.
// The ladder (serve only; multiples of the nominal rate) finds the highest
// rate whose tail latency stays within kLatencyLimitMs with no growing
// backlog.
constexpr double kNominalQps = 5.0;
const std::vector<double> kLadder = {3, 6, 9, 12, 15, 18, 24, 30};
// Each rung lasts this share of the nominal phase.
constexpr double kRungShare = 0.2;
constexpr double kLatencyLimitMs = 100.0;
// The update stream of serve-ingest: kBatchUpdates raw updates every
// kBatchInterval seconds, 1280 updates/s. That keeps the writer about half
// busy (info ingest.writer_busy_frac; its capacity is ~2200 updates per
// busy second), below capacity but enough for its interference to show in
// the read latency; at 160 updates/s (7% busy) the latency could not be
// told apart from serve's.
constexpr uint32_t kBatchUpdates = 32;
constexpr double kBatchInterval = 0.025;

// Set-up takes ~70 ms, so its median over many repetitions is cheap. The
// first kSetupReps run before the timed phase (the last copy is kept) and
// kLateSetupReps more after it, so the median samples the host's speed,
// which drifts over tens of seconds, at both ends of the run.
constexpr int kSetupReps = 6;
constexpr int kLateSetupReps = 5;
// The direct-call control is the gated timing of the serve workloads. Its
// passes take ~0.7 s each, so 27 of them span ~18 s of the host's speed
// drift. Over five seeds each, the spread of the sums was 0.13-0.19 with 9
// passes and 0.09-0.12 with 27.
constexpr int kDirectReps = 27;
// serve-ingest's nominal phase takes this share of the run; the direct
// passes take most of the rest.
constexpr double kIngestNominalShare = 0.75;
constexpr double kPollSeconds = 1e-3;
constexpr double kDrainTimeoutSeconds = 60.0;
// A generator whose median send is this late is not offering the rate it
// claims, and the run is rejected.
constexpr double kMaxMedianLateMs = 5.0;

krcore::Dataset ServingDataset() {
  krcore::GeoSocialConfig c;
  c.num_vertices = 30000;
  c.average_degree = 8.0;
  c.shape.num_communities = 4;
  c.shape.avg_subgroup_size = 120;
  c.city_sigma_km = 2.0;
  c.neighborhood_sigma_km = 0.5;
  c.seed = kDatasetSeed;
  return krcore::MakeGeoSocial(c, "serving");
}

krcore::PipelineOptions BasePipeline() {
  krcore::PipelineOptions prep;
  prep.k = kBaseK;
  prep.score_cover = kCoverR;
  return prep;
}

/// The churn proportions of bench_ingest: half inserts, a quarter deletes of
/// recent inserts (churn the coalescer annihilates) and a quarter deletes
/// of long-lived edges. Unlike bench_ingest, whose inserts are hub-biased
/// pairs of low ids (where MakeSkewed puts its hubs), inserts here are
/// friend-of-a-friend pairs, which close triangles: the geo-social
/// serving graph's ids carry no hub order for a low-id bias to follow.
Stream MakeStream(const krcore::Graph& g, size_t batches, uint64_t seed) {
  krcore::Rng rng(seed);
  const krcore::VertexId n = g.num_vertices();
  std::vector<std::pair<krcore::VertexId, krcore::VertexId>> existing;
  for (krcore::VertexId u = 0; u < n; ++u) {
    for (krcore::VertexId v : g.neighbors(u)) {
      if (u < v) existing.push_back({u, v});
    }
  }
  std::deque<std::pair<krcore::VertexId, krcore::VertexId>> recent;
  Stream stream(batches);
  for (auto& batch : stream) {
    batch.reserve(kBatchUpdates);
    for (uint32_t i = 0; i < kBatchUpdates; ++i) {
      const double roll = rng.NextDouble();
      if (roll < 0.5 || recent.empty()) {
        const auto& e = existing[rng.NextBounded(existing.size())];
        const auto hop = g.neighbors(e.second);
        krcore::VertexId v = hop[rng.NextBounded(hop.size())];
        if (v == e.first) v = static_cast<krcore::VertexId>(rng.NextBounded(n));
        if (v == e.first) v = (v + 1) % n;
        batch.push_back(EdgeUpdate::Insert(e.first, v));
        recent.push_back({std::min(e.first, v), std::max(e.first, v)});
        if (recent.size() > 256) recent.pop_front();
      } else if (roll < 0.75) {
        const auto e = recent[rng.NextBounded(recent.size())];
        batch.push_back(EdgeUpdate::Remove(e.first, e.second));
      } else {
        const auto& e = existing[rng.NextBounded(existing.size())];
        batch.push_back(EdgeUpdate::Remove(e.first, e.second));
      }
    }
  }
  return stream;
}

/// Everything set-up produces; rebuilt from scratch on every repetition.
struct State {
  krcore::Dataset dataset;
  krcore::PreprocessReport prep;
  uint64_t snapshot_bytes = 0;
  krcore::WorkspaceRegistry registry;
  std::shared_ptr<krcore::LiveWorkspace> live;
  Stream stream;
};

krcore::Status SetupOnce(const std::string& path, bool ingest,
                         size_t stream_batches, uint64_t seed, State* state) {
  ScopedSpan root("setup", 0);
  {
    ScopedSpan s("datasets.generate", 0);
    state->dataset = ServingDataset();
    if (ingest) {
      state->stream =
          MakeStream(state->dataset.graph, stream_batches, seed * 31 + 7);
    }
  }
  krcore::SimilarityOracle oracle = state->dataset.MakeOracle(kBaseR);
  krcore::PreparedWorkspace ws;
  {
    ScopedSpan s("pipeline.prepare", 0);
    if (krcore::Status st = krcore::PrepareWorkspace(
            state->dataset.graph, oracle, BasePipeline(), &ws, &state->prep);
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
  state->snapshot_bytes = std::filesystem::file_size(path);
  ws = krcore::PreparedWorkspace();
  {
    ScopedSpan s("snapshot.open", 0);
    if (!ingest) {
      if (krcore::Status st = state->registry.AddFromSnapshot(
              kWorkspace, path,
              krcore::WorkspaceRegistry::SnapshotLoadMode::kLazy);
          !st.ok()) {
        return st;
      }
    } else {
      krcore::SnapshotLoadOptions load;
      load.lazy = true;
      krcore::PreparedWorkspace base;
      if (krcore::Status st = krcore::LoadWorkspaceSnapshot(path, load, &base);
          !st.ok()) {
        return st;
      }
      state->live = std::make_shared<krcore::LiveWorkspace>(
          state->dataset.graph, oracle, std::move(base));
      if (krcore::Status st = state->registry.AddLive(kWorkspace, state->live);
          !st.ok()) {
        return st;
      }
    }
  }
  // Lazy validation happens once per registration; pay it here rather than
  // in the first timed request.
  ScopedSpan s("snapshot.validate", 0);
  return state->registry.Find(kWorkspace)->EnsureAllValid();
}

/// Derives `cell` from `base` (unless it is the base's own cell) and mines
/// it, as the server does.
Mined RunDirect(const krcore::PreparedWorkspace& base, const Cell& cell,
                uint32_t threads, uint64_t id) {
  if (cell.k == base.k && cell.r == base.threshold) {
    return MineCell(base.components, cell, threads, id);
  }
  krcore::PreparedWorkspace derived;
  {
    ScopedSpan s("pipeline.derive", id);
    krcore::PipelineOptions pipe;
    pipe.k = cell.k;
    if (krcore::Status st =
            krcore::DeriveWorkspace(base, cell.k, cell.r, pipe, &derived);
        !st.ok()) {
      Mined failed;
      failed.status = st;
      return failed;
    }
  }
  return MineCell(derived.components, cell, threads, id);
}

/// The direct-call control: every cell derived and mined straight from the
/// registered base version, at 1 thread and at the parallel thread count.
/// Its first 1-thread answers are the reference every served response of
/// `serve` must match.
struct DirectPasses {
  std::vector<Answer> reference;               // per cell, 1 thread
  std::vector<std::vector<double>> seq_walls;  // per cell, per rep
  std::vector<double> enum_seq, max_seq, enum_par, max_par;  // per rep
  krcore::MiningStats enum_seq_stats, max_seq_stats, par_stats;  // one rep
  std::vector<double> enum_seq_mine, max_seq_mine, enum_par_mine,
      max_par_mine, par_cpu;  // per rep
};

/// Adds `reps` passes over every cell to `d`.
void RunDirectPasses(const krcore::PreparedWorkspace& base, int reps,
                     uint32_t par_threads, uint64_t* next_id, Report* report,
                     DirectPasses* out) {
  DirectPasses& d = *out;
  d.reference.resize(kCells.size());
  d.seq_walls.resize(kCells.size());
  for (int rep = 0; rep < reps; ++rep) {
    double sums[4] = {0, 0, 0, 0};  // enum seq, max seq, enum par, max par
    double mine[4] = {0, 0, 0, 0};
    double cpu = 0;
    krcore::MiningStats enum_seq, max_seq, par;
    for (size_t c = 0; c < kCells.size(); ++c) {
      const Cell& cell = kCells[c];
      for (uint32_t threads : {1u, par_threads}) {
        // A derive cell has no search to parallelize.
        if (cell.kind == QueryKind::kDerive && threads != 1) continue;
        const uint64_t id = ++(*next_id);
        report->Attempt();
        const double t0 = Now();
        Mined o;
        {
          ScopedSpan root("direct", id);
          o = RunDirect(base, cell, threads, id);
        }
        const double wall = Now() - t0;
        const std::string what = "direct " + CellName(cell) +
                                 " threads=" + std::to_string(threads);
        if (!o.status.ok()) {
          report->Fail(what + ": " + o.status.ToString());
          continue;
        }
        if (d.seq_walls[c].empty() && threads == 1) {
          d.reference[c] = o.answer;
        } else if (!SameAnswer(cell, o.answer, d.reference[c])) {
          report->Fail(what + ": answer differs from the 1-thread answer");
        }
        if (threads == 1) d.seq_walls[c].push_back(wall);
        if (cell.kind == QueryKind::kDerive) continue;
        const int slot = (threads == 1 ? 0 : 2) +
                         (cell.kind == QueryKind::kMaximum ? 1 : 0);
        sums[slot] += wall;
        mine[slot] += o.wall;
        if (threads == 1) {
          (cell.kind == QueryKind::kEnumerate ? enum_seq : max_seq)
              .MergeFrom(o.stats);
        } else {
          par.MergeFrom(o.stats);
          cpu += o.cpu;
        }
      }
    }
    d.enum_seq.push_back(sums[0]);
    d.max_seq.push_back(sums[1]);
    d.enum_par.push_back(sums[2]);
    d.max_par.push_back(sums[3]);
    d.enum_seq_mine.push_back(mine[0]);
    d.max_seq_mine.push_back(mine[1]);
    d.enum_par_mine.push_back(mine[2]);
    d.max_par_mine.push_back(mine[3]);
    d.par_cpu.push_back(cpu);
    d.enum_seq_stats = enum_seq;
    d.max_seq_stats = max_seq;
    d.par_stats = par;
  }
}

/// Whether a served response is bit-identical to the direct answer: the
/// same cores in the same order and the same count (derive: the same
/// vertex and component counts).
bool SameResponse(const Cell& cell, const krcore::QueryResponse& response,
                  const Answer& ref) {
  return response.cores == ref.cores && response.count == ref.count &&
         (cell.kind != QueryKind::kDerive ||
          response.num_components == ref.components);
}

/// One request of an open-loop phase.
struct Request {
  uint64_t id = 0;
  uint32_t cell = 0;
  double scheduled = 0.0;
  double sent = 0.0;
  double submitted = 0.0;  // Submit returned
  double done = 0.0;       // response observed
  bool finished = false;
  bool ok = false;
  // Program-reported QueryResponse timings.
  double wait_seconds = 0.0;
  double derive_seconds = 0.0;
  double mine_seconds = 0.0;
  std::shared_future<krcore::QueryResponse> future;
  double latency() const { return done - scheduled; }
};

struct PhaseResult {
  bool traced = false;
  std::vector<Request> requests;
  krcore::ServerStatsSnapshot stats;
};

/// The update-stream side of the generator: batches are due every
/// kBatchInterval from `start`; visibility is observed by polling the
/// published stream position.
struct StreamDriver {
  krcore::IngestPipeline* pipeline = nullptr;
  krcore::LiveWorkspace* live = nullptr;
  const Stream* stream = nullptr;
  double start = 0.0;
  bool open = true;  // false once the timed phases are over
  size_t next = 0;
  size_t visible = 0;
  std::vector<double> submitted_at;
  std::vector<double> visible_at;
  std::vector<double> submit_block;
  std::vector<double> resolve;  // LiveWorkspace::Current() durations
};

class Generator {
 public:
  Generator(const State& state, const DirectPasses& direct, bool check,
            StreamDriver* stream, Report* report)
      : state_(state),
        direct_(direct),
        check_(check),
        stream_(stream),
        report_(report) {}

  /// Runs one open-loop phase against a fresh server: Poisson arrivals at
  /// `rate` for `seconds`, then waits for every response.
  PhaseResult Run(double rate, double seconds, uint64_t rng_seed,
                  bool traced, krcore::PublishedVersion* pin_midway) {
    Tracer::Get().set_enabled(traced);
    PhaseResult phase;
    phase.traced = traced;
    // A Poisson process conditioned on its count: rate x seconds arrivals
    // at sorted uniform times.
    krcore::Rng rng(rng_seed);
    const size_t n = std::max<size_t>(1, std::llround(rate * seconds));
    std::vector<double> times(n);
    for (double& t : times) t = rng.NextDouble() * seconds;
    std::sort(times.begin(), times.end());
    const std::vector<uint32_t> cells = DrawCells(n, &rng);
    phase.requests.resize(n);
    for (size_t i = 0; i < n; ++i) {
      phase.requests[i].scheduled = times[i];
      phase.requests[i].cell = cells[i];
    }

    krcore::ServerOptions options;
    options.queue_capacity = 4096;  // overload shows as latency, not refusal
    krcore::QueryServer server(&state_.registry, options);
    server.Start();
    const double t0 = Now() + 0.002;
    const double midway = t0 + seconds / 2;
    for (Request& r : phase.requests) r.scheduled += t0;
    std::vector<size_t> pending;
    for (size_t i = 0; i < phase.requests.size(); ++i) {
      Request& r = phase.requests[i];
      WaitUntil(r.scheduled, &phase, &pending);
      if (pin_midway != nullptr && pin_midway->workspace == nullptr &&
          Now() >= midway) {
        *pin_midway = stream_->live->Current();
      }
      const Cell& cell = kCells[r.cell];
      krcore::QueryRequest q;
      r.id = ++next_id_;
      q.id = std::to_string(r.id);
      q.workspace = kWorkspace;
      q.kind = cell.kind;
      q.k = cell.k;
      q.r = cell.r;
      r.sent = Now();
      r.future = server.Submit(q);
      r.submitted = Now();
      pending.push_back(i);
    }
    const double deadline = Now() + kDrainTimeoutSeconds;
    while (!pending.empty() && Now() < deadline) {
      WaitUntil(Now() + kPollSeconds, &phase, &pending);
    }
    for (size_t i : pending) {
      report_->Fail("request " + std::to_string(phase.requests[i].id) +
                    " got no response within the drain timeout");
    }
    phase.stats = server.Stats();
    server.Stop();
    Tracer::Get().set_enabled(false);
    return phase;
  }

  /// Stops submitting batches and waits until every submitted one is
  /// visible, so the writer is idle.
  void PauseStream() {
    stream_->open = false;
    paused_at_ = Now();
    const double deadline = paused_at_ + kDrainTimeoutSeconds;
    while (stream_->visible < stream_->next && Now() < deadline) {
      PollStream();
      std::this_thread::sleep_for(std::chrono::duration<double>(kPollSeconds));
    }
  }

  /// Resumes submitting where the stream paused: the batch schedule moves
  /// by the length of the pause.
  void ResumeStream() {
    stream_->start += Now() - paused_at_;
    stream_->open = true;
  }

 private:
  /// Collects responses (and polls the stream) until `t`, submitting due
  /// batches. It sleeps on the oldest pending response, which the staged
  /// server answers first, so that response is timed when it lands; one
  /// answered out of order is seen at the next wake-up, at most
  /// kPollSeconds later.
  void WaitUntil(double t, PhaseResult* phase, std::vector<size_t>* pending) {
    for (;;) {
      Poll(phase, pending);
      if (stream_ != nullptr) PollStream();
      const double now = Now();
      if (now >= t) return;
      const std::chrono::duration<double> nap(std::min(t - now, kPollSeconds));
      if (pending->empty()) {
        std::this_thread::sleep_for(nap);
      } else {
        phase->requests[pending->front()].future.wait_for(nap);
      }
    }
  }

  /// Finishes every answered request; `pending` stays in send order.
  void Poll(PhaseResult* phase, std::vector<size_t>* pending) {
    std::erase_if(*pending, [&](size_t i) {
      Request& r = phase->requests[i];
      if (r.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        return false;
      }
      r.done = Now();
      r.finished = true;
      Finish(&r, phase->traced);
      return true;
    });
  }

  void Finish(Request* r, bool traced) {
    const krcore::QueryResponse& response = r->future.get();
    const Cell& cell = kCells[r->cell];
    report_->Attempt();
    r->wait_seconds = response.wait_seconds;
    r->derive_seconds = response.derive_seconds;
    r->mine_seconds = response.mine_seconds;
    const std::string what =
        "request " + std::to_string(r->id) + " " + CellName(cell);
    if (!response.status.ok()) {
      report_->Fail(what + ": " + response.status.ToString());
    } else if (check_ &&
               !SameResponse(cell, response, direct_.reference[r->cell])) {
      report_->Fail(what + ": response differs from direct derive+mine");
    } else {
      r->ok = true;
    }
    r->future = {};  // release the payload
    if (traced) RecordRequestSpans(*r);
  }

  /// The request's span tree. The request tiles into generator lateness,
  /// Submit and the await; under the await, the server's own timings
  /// (queueing before the derive stage, derivation, mining) are laid end
  /// to end from Submit's return, clipped to the response. What they leave
  /// uncovered -- the hand-off to the mine stage, the response fan-out and
  /// the generator noticing it -- is the await's unattributed self time.
  static void RecordRequestSpans(const Request& r) {
    Tracer& t = Tracer::Get();
    const int64_t root = t.Record("request", r.scheduled, r.done, -1, r.id);
    t.Record("gen.late", r.scheduled, r.sent, root, r.id);
    t.Record("server.submit", r.sent, r.submitted, root, r.id);
    const int64_t await =
        t.Record("server.await", r.submitted, r.done, root, r.id);
    const std::pair<const char*, double> parts[] = {
        {"server.queue", r.wait_seconds},
        {"server.derive", r.derive_seconds},
        {"server.mine", r.mine_seconds}};
    double at = r.submitted;
    for (const auto& [name, seconds] : parts) {
      const double end = std::min(at + seconds, r.done);
      if (end > at) t.Record(name, at, end, await, r.id);
      at = end;
    }
  }

  void PollStream() {
    StreamDriver& s = *stream_;
    const double now = Now();
    while (s.open && s.next < s.stream->size() &&
           s.start + s.next * kBatchInterval <= now) {
      const double t0 = Now();
      ScopedSpan span("ingest.submit", s.next);
      if (krcore::Status st = s.pipeline->Submit(s.stream->at(s.next));
          !st.ok()) {
        report_->Fail("ingest submit: " + st.ToString());
      }
      s.submit_block.push_back(Now() - t0);
      s.submitted_at.push_back(t0);
      s.visible_at.push_back(-1.0);
      ++s.next;
    }
    if (s.visible >= s.next) return;
    const double r0 = Now();
    const int64_t span = Tracer::Get().Open("live.resolve", 0);
    const uint64_t applied = s.live->Current().batches_applied;
    Tracer::Get().Close(span);
    const double r1 = Now();
    s.resolve.push_back(r1 - r0);
    while (s.visible < s.next && s.visible < applied) {
      s.visible_at[s.visible] = r1;
      Tracer::Get().Record("ingest.visible", s.submitted_at[s.visible], r1, -1,
                           s.visible);
      ++s.visible;
    }
  }

  const State& state_;
  const DirectPasses& direct_;
  const bool check_;
  StreamDriver* stream_;
  Report* report_;
  uint64_t next_id_ = 0;
  double paused_at_ = 0.0;
};

std::vector<double> Latencies(const PhaseResult& phase) {
  std::vector<double> v;
  for (const Request& r : phase.requests) {
    if (r.finished) v.push_back(r.latency());
  }
  return v;
}

/// A rung's latency score: its tail, or the median latency of its last
/// third when that is higher (a growing backlog shows there first). The
/// rung meets the limit when its score does.
double RungScore(const PhaseResult& phase, Tail* tail) {
  const std::vector<double> lat = Latencies(phase);
  *tail = TailOf(lat);
  const size_t third = lat.size() / 3;
  if (third == 0) return tail->value;
  return std::max(tail->value,
                  Median(std::vector<double>(lat.end() - third, lat.end())));
}

/// The highest rate meeting `limit`: the last rung whose score meets it,
/// moved toward the next rung by interpolating where the score crosses the
/// limit, so noise does not move the figure by a whole rung. 0 when no rung
/// meets the limit; the last rung's rate when the ladder ran out first.
double MaxRate(const std::vector<double>& rates,
               const std::vector<double>& scores, double limit) {
  int best = -1;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] <= limit) best = static_cast<int>(i);
  }
  if (best < 0) return 0.0;
  const size_t b = static_cast<size_t>(best);
  if (b + 1 == rates.size()) return rates[b];
  return rates[b] + (rates[b + 1] - rates[b]) * (limit - scores[b]) /
                        (scores[b + 1] - scores[b]);
}

/// Mines every cell on `published` and on a cold preparation of `prefix`,
/// requiring identical answers. Returns "" on success.
std::string CheckAgainstCold(const krcore::PreparedWorkspace& published,
                             const krcore::Graph& prefix,
                             const krcore::Dataset& dataset) {
  krcore::SimilarityOracle oracle = dataset.MakeOracle(kBaseR);
  krcore::PreparedWorkspace cold;
  if (krcore::Status s =
          krcore::PrepareWorkspace(prefix, oracle, BasePipeline(), &cold);
      !s.ok()) {
    return "cold prepare failed: " + s.ToString();
  }
  for (const Cell& cell : kCells) {
    Mined a = RunDirect(published, cell, 1, 0);
    Mined b = RunDirect(cold, cell, 1, 0);
    if (!a.status.ok() || !b.status.ok()) return CellName(cell) + ": failed";
    if (!(a.answer == b.answer)) {
      return CellName(cell) + ": differs from a cold prepare of its prefix";
    }
  }
  return "";
}

/// The served-vs-direct gate of serve-ingest, run once the stream has
/// drained and the published version no longer changes: every cell is
/// submitted twice at once to a fresh server (the second copy usually
/// coalesces), and every response must be bit-identical to a direct
/// 1-thread derive+mine of its cell on that same version.
void CheckServedBurst(const krcore::WorkspaceRegistry& registry,
                      Report* report) {
  const std::shared_ptr<const krcore::PreparedWorkspace> frozen =
      registry.Find(kWorkspace);
  std::vector<Answer> reference;
  for (const Cell& cell : kCells) {
    Mined o = RunDirect(*frozen, cell, 1, 0);
    if (!o.status.ok()) {
      report->Attempt();
      report->Fail("burst reference " + CellName(cell) + ": " +
                   o.status.ToString());
      return;
    }
    reference.push_back(o.answer);
  }
  krcore::ServerOptions options;
  options.queue_capacity = 4096;
  krcore::QueryServer server(&registry, options);
  server.Start();
  std::vector<std::shared_future<krcore::QueryResponse>> futures;
  for (int copy = 0; copy < 2; ++copy) {
    for (const Cell& cell : kCells) {
      krcore::QueryRequest q;
      q.id = "burst-" + std::to_string(futures.size());
      q.workspace = kWorkspace;
      q.kind = cell.kind;
      q.k = cell.k;
      q.r = cell.r;
      futures.push_back(server.Submit(q));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const size_t c = i % kCells.size();
    const krcore::QueryResponse& response = futures[i].get();
    const std::string what = "burst request " + CellName(kCells[c]);
    report->Attempt();
    if (!response.status.ok()) {
      report->Fail(what + ": " + response.status.ToString());
    } else if (!SameResponse(kCells[c], response, reference[c])) {
      report->Fail(what + ": response differs from direct derive+mine");
    }
  }
  server.Stop();
}

}  // namespace

int RunServe(const RunConfig& config, bool ingest, Report* report) {
  Tracer& tracer = Tracer::Get();
  const std::string path = config.work_dir + "/" + config.workload + ".krws";
  // serve: the nominal phase takes half the run and the ladder at most
  // kRungShare x kLadder.size() of that again. serve-ingest has no ladder;
  // its nominal time is split into two halves.
  const double phase_seconds = ingest
                                   ? config.seconds * kIngestNominalShare / 2
                                   : config.seconds / 2;
  // Enough batches for both nominal phases and 10 s of drains.
  const double stream_seconds = phase_seconds * 2 + 10.0;
  const size_t stream_batches =
      static_cast<size_t>(std::ceil(stream_seconds / kBatchInterval));

  std::vector<double> setup_times;
  auto setup_once = [&](const std::string& to, State* into) {
    tracer.set_enabled(config.trace);
    const double t0 = Now();
    const krcore::Status s =
        SetupOnce(to, ingest, stream_batches, config.seed, into);
    setup_times.push_back(Now() - t0);
    tracer.set_enabled(false);
    if (!s.ok()) {
      report->Attempt();
      report->Fail("setup: " + s.ToString());
    }
    return s.ok();
  };
  std::unique_ptr<State> state;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    state.reset();  // one copy alive at a time
    state = std::make_unique<State>();
    if (!setup_once(path, state.get())) return 1;
  }

  report->Info("serve.nominal_qps", kNominalQps);
  report->Info("serve.nominal_seconds", phase_seconds);
  if (!ingest) {
    std::string ladder;
    for (double m : kLadder) {
      ladder += std::to_string(std::lround(kNominalQps * m)) + " ";
    }
    report->Info("serve.ladder_qps", ladder);
    report->Info("serve.latency_limit_ms", kLatencyLimitMs);
  }
  report->Info("serve.threads",
               ingest ? "generator + derive + mine + writer = 4"
                      : "generator + derive + mine = 3");
  if (ingest) {
    report->Info("ingest.offered_updates_per_s",
                 kBatchUpdates / kBatchInterval);
    report->Info("ingest.batch_updates", kBatchUpdates);
  }

  // The direct-call control times the registered base version, so on
  // serve-ingest its timings do not depend on the seed's edge stream. There
  // it runs in three blocks -- before, between and after the two nominal
  // halves, with the writer idle -- so its median samples the host's speed
  // across the whole run rather than in one burst.
  const std::shared_ptr<const krcore::PreparedWorkspace> base =
      state->registry.Find(kWorkspace);
  uint64_t direct_ids = 1u << 30;
  DirectPasses direct;
  const int direct_blocks = ingest ? 3 : 1;
  auto direct_block = [&] {
    tracer.set_enabled(config.trace);
    RunDirectPasses(*base, kDirectReps / direct_blocks, config.par_threads,
                    &direct_ids, report, &direct);
    tracer.set_enabled(false);
  };
  direct_block();

  std::unique_ptr<krcore::IngestPipeline> pipeline;
  StreamDriver stream;
  if (ingest) {
    krcore::IngestOptions options;
    options.publish_every_applies = 1;
    pipeline = std::make_unique<krcore::IngestPipeline>(state->live.get(),
                                                       options);
    pipeline->Start();
    stream.pipeline = pipeline.get();
    stream.live = state->live.get();
    stream.stream = &state->stream;
    stream.start = Now();
  }
  Generator gen(*state, direct, /*check=*/!ingest, ingest ? &stream : nullptr,
                report);
  krcore::PublishedVersion pinned;
  const double timed_start = Now();
  const uint64_t seed = config.seed * 1000003ULL;

  // The nominal phase. serve-ingest runs it in two halves around a direct
  // block; a traced run traces the second half. serve then climbs the
  // ladder, and a traced serve run repeats the nominal phase traced. A
  // traced phase sends the same arrivals and cells as the untraced one, so
  // the difference of the two is the tracing overhead.
  PhaseResult nominal = gen.Run(kNominalQps, phase_seconds, seed, false,
                                ingest ? &pinned : nullptr);
  double nominal_seconds = phase_seconds;
  double derive_busy = nominal.stats.derive.service_seconds;
  double mine_busy = nominal.stats.mine.service_seconds;
  PhaseResult traced_nominal;
  if (ingest) {
    gen.PauseStream();
    direct_block();
    gen.ResumeStream();
    PhaseResult second = gen.Run(kNominalQps, phase_seconds,
                                 config.trace ? seed : seed + 1, config.trace,
                                 nullptr);
    if (config.trace) {
      traced_nominal = std::move(second);
    } else {
      for (Request& r : second.requests) {
        nominal.requests.push_back(std::move(r));
      }
      nominal_seconds += phase_seconds;
      derive_busy += second.stats.derive.service_seconds;
      mine_busy += second.stats.mine.service_seconds;
    }
  }
  // The offered load as a share of each stage's capacity, measured.
  report->Info("serve.derive_busy_frac", derive_busy / nominal_seconds);
  report->Info("serve.mine_busy_frac", mine_busy / nominal_seconds);
  double max_rate = 0.0;
  if (!ingest) {
    // The ladder stops after two consecutive rungs over the limit, so one
    // noisy rung does not end it, or at a rung with failed requests.
    const double limit = kLatencyLimitMs * 1e-3;
    std::vector<double> rates, scores;
    int over = 0;
    for (size_t i = 0; i < kLadder.size() && over < 2; ++i) {
      const double rate = kNominalQps * kLadder[i];
      PhaseResult step = gen.Run(rate, phase_seconds * kRungShare,
                                 seed + 10 + i, false, nullptr);
      Tail tail;
      const double score = RungScore(step, &tail);
      const std::string key = "ladder." + std::to_string(std::lround(rate));
      report->Info(key + ".score_ms", score * 1e3);
      report->InfoTail(key + ".tail", tail);
      if (std::any_of(step.requests.begin(), step.requests.end(),
                      [](const Request& r) { return !r.ok; })) {
        break;
      }
      rates.push_back(rate);
      scores.push_back(score);
      over = score > limit ? over + 1 : 0;
    }
    max_rate = MaxRate(rates, scores, limit);
    if (config.trace) {
      traced_nominal = gen.Run(kNominalQps, phase_seconds, seed, true, nullptr);
    }
  }
  const double peak_rss = PeakRssMb();
  report->Info("serve.timed_seconds", Now() - timed_start);

  // Streaming side: drain, stop, then check the pinned and final versions
  // against cold preparations of the stream prefixes they cover.
  krcore::IngestStatsSnapshot ingest_stats;
  double ingest_wall = 0.0;
  if (ingest) {
    gen.PauseStream();
    pipeline->Flush();
    ingest_wall = Now() - stream.start;  // start moved past the pause
    ingest_stats = pipeline->Stats();
    pipeline->Stop();
    direct_block();
    report->Info("ingest.batches_submitted", static_cast<double>(stream.next));
    CheckServedBurst(state->registry, report);
    report->Info("ingest.writer_busy_frac",
                 (ingest_stats.apply_seconds + ingest_stats.publish_seconds) /
                     ingest_wall);
    const krcore::PublishedVersion final_version = state->live->Current();
    report->Attempt(2);
    if (ingest_stats.rolled_back_batches != 0) {
      report->Fail("rolled-back batches in a fault-free stream");
    } else if (final_version.batches_applied != stream.next) {
      report->Fail("final version covers " +
                   std::to_string(final_version.batches_applied) + " of " +
                   std::to_string(stream.next) + " batches");
    } else {
      krcore::EdgeSetMirror mirror(state->dataset.graph);
      size_t applied = 0;
      if (pinned.workspace != nullptr) {
        for (; applied < pinned.batches_applied; ++applied) {
          mirror.Apply(state->stream[applied]);
        }
        report->Info("ingest.pinned_batches",
                     static_cast<double>(pinned.batches_applied));
        const std::string diff = CheckAgainstCold(
            *pinned.workspace, mirror.Build(), state->dataset);
        if (!diff.empty()) report->Fail("pinned version: " + diff);
      } else {
        report->Fail("no version was pinned mid-stream");
      }
      for (; applied < final_version.batches_applied; ++applied) {
        mirror.Apply(state->stream[applied]);
      }
      const std::string diff = CheckAgainstCold(
          *final_version.workspace, mirror.Build(), state->dataset);
      if (!diff.empty()) report->Fail("final version: " + diff);
    }
  }

  const std::vector<double> latencies = Latencies(nominal);
  std::vector<double> late;
  for (const Request& r : nominal.requests) late.push_back(r.sent - r.scheduled);
  if (1e3 * Median(late) > kMaxMedianLateMs) {
    report->Fail("generator ran late: median " +
                 std::to_string(1e3 * Median(late)) + " ms");
  }

  Latency latency;
  latency.p50_ms = 1e3 * Median(latencies);
  latency.tail = TailOf(latencies);
  latency.max_rate_qps = max_rate;
  report->Info("latency.basis",
               std::string("scheduled send -> response at the nominal rate") +
                   (ingest ? "; no rate ladder (max_rate_qps reads 0)"
                           : "; max_rate_qps: highest ladder rung whose score "
                             "(tail, or last-third median if higher) meets "
                             "the latency limit, interpolated toward the "
                             "next rung"));
  Layers layers;
  RecordLatency(latency, config.trace, report, &layers);

  // The late set-up repetitions build throwaway copies; the peak RSS was
  // read before them.
  for (int rep = 0; rep < kLateSetupReps; ++rep) {
    State spare;
    if (!setup_once(path + ".rep", &spare)) return 1;
  }

  if (!config.trace) {
    report->Info("direct.basis",
                 "enum_*/max_* = direct derive + mine of the serving cells "
                 "on the registered base version, median of " +
                     std::to_string(kDirectReps) + " passes in " +
                     std::to_string(direct_blocks) + " block(s)");
    EndToEnd e2e;
    e2e.setup_s = Median(setup_times);
    e2e.peak_rss_mb = peak_rss;
    e2e.enum_seq_s = Median(direct.enum_seq);
    e2e.max_seq_s = Median(direct.max_seq);
    e2e.enum_par_s = Median(direct.enum_par);
    e2e.max_par_s = Median(direct.max_par);
    EmitEndToEnd(e2e, report);
    return 0;
  }

  const std::vector<Span> spans = tracer.Snapshot();
  FillSetupLayers(spans, state->prep, state->snapshot_bytes, &layers);
  layers["snapshot.open_s"] = Median(SpanDurations(spans, "snapshot.open"));
  layers["snapshot.validate_s"] =
      Median(SpanDurations(spans, "snapshot.validate"));
  layers["pipeline.derive_s"] = Median(SpanDurations(spans, "pipeline.derive"));
  layers["search.enum_nodes"] = direct.enum_seq_stats.search_nodes;
  layers["search.max_nodes"] = direct.max_seq_stats.search_nodes;
  layers["search.enum_us_per_node"] =
      1e6 * Median(direct.enum_seq_mine) /
      std::max<double>(1, direct.enum_seq_stats.search_nodes);
  layers["search.max_us_per_node"] =
      1e6 * Median(direct.max_seq_mine) /
      std::max<double>(1, direct.max_seq_stats.search_nodes);
  layers["search.maximal_check_nodes"] =
      direct.enum_seq_stats.maximal_check_nodes;
  layers["search.emitted_per_maximal"] =
      static_cast<double>(direct.enum_seq_stats.emitted_candidates) /
      std::max<double>(1, direct.enum_seq_stats.maximal_found);
  layers["search.bound_prune_frac"] =
      static_cast<double>(direct.max_seq_stats.bound_prunes) /
      std::max<double>(1, direct.max_seq_stats.search_nodes);
  layers["search.bound_recomputes"] = direct.max_seq_stats.bound_recomputes;
  layers["parallel.speedup_enum"] =
      Median(direct.enum_seq_mine) / Median(direct.enum_par_mine);
  layers["parallel.speedup_max"] =
      Median(direct.max_seq_mine) / Median(direct.max_par_mine);
  std::vector<double> efficiency;
  for (size_t i = 0; i < direct.par_cpu.size(); ++i) {
    efficiency.push_back(
        direct.par_cpu[i] /
        ((direct.enum_par_mine[i] + direct.max_par_mine[i]) *
         config.par_threads));
  }
  layers["parallel.efficiency"] = Median(efficiency);
  layers["parallel.tasks"] = direct.par_stats.tasks_spawned;
  layers["parallel.steals"] = direct.par_stats.task_steals;
  report->Info("parallel.speedup_base",
               "1-thread search-call wall / parallel search-call wall, "
               "summed over the serving cells, median of the direct passes");

  const PhaseResult& t = traced_nominal;
  std::vector<double> overhead, wait, traced_late;
  for (const Request& r : t.requests) {
    if (!r.finished) continue;
    overhead.push_back(r.latency() - Median(direct.seq_walls[r.cell]));
    wait.push_back(r.wait_seconds);
    traced_late.push_back(r.sent - r.scheduled);
  }
  layers["server.overhead_ms"] = 1e3 * Median(overhead);
  layers["server.wait_p50_ms"] = 1e3 * Median(wait);
  const Tail wait_tail = TailOf(wait);
  layers["server.wait_tail_ms"] = 1e3 * wait_tail.value;
  report->InfoTail("server.wait_tail_ms", wait_tail);
  layers["server.coalesce_frac"] =
      static_cast<double>(t.stats.coalesce_hits) /
      std::max<double>(1, t.stats.received);
  layers["server.queue_depth_max"] = static_cast<double>(
      std::max(t.stats.derive.max_queue_depth, t.stats.mine.max_queue_depth));
  layers["server.rejected"] = static_cast<double>(
      t.stats.rejected_queue_full + t.stats.rejected_unservable);
  const Tail late_tail = TailOf(traced_late);
  layers["gen.late_ms"] = 1e3 * late_tail.value;
  report->InfoTail("gen.late_ms", late_tail);
  // Unattributed time of the request trees: the request's own self time
  // (its three children tile it) plus the await's, over request wall time.
  double self = 0, total = 0, await_self = 0, await_total = 0;
  SelfTime(spans, "request", &self, &total);
  SelfTime(spans, "server.await", &await_self, &await_total);
  layers["query.self_frac"] = total > 0 ? (self + await_self) / total : 0.0;
  report->Info("query.await_self_frac",
               await_total > 0 ? await_self / await_total : 0.0);
  layers["trace.overhead_ms"] =
      1e3 * (Median(Latencies(t)) - Median(latencies));

  if (ingest) {
    layers["live.resolve_us"] = 1e6 * Median(stream.resolve);
    const Tail block = TailOf(stream.submit_block);
    layers["ingest.submit_block_ms"] = 1e3 * block.value;
    report->InfoTail("ingest.submit_block_ms", block);
    const auto& s = ingest_stats;
    layers["ingest.apply_ms"] =
        1e3 * s.apply_seconds / std::max<double>(1, s.applied_batches);
    layers["ingest.publish_ms"] =
        1e3 * s.publish_seconds / std::max<double>(1, s.publishes);
    layers["ingest.writer_busy_frac"] =
        (s.apply_seconds + s.publish_seconds) / ingest_wall;
    layers["ingest.updates_per_busy_s"] = s.UpdatesPerSecond();
    layers["ingest.coalesced_frac"] =
        1.0 - static_cast<double>(s.emitted_updates) /
                  std::max<double>(1, s.submitted_updates);
    layers["ingest.fallback_rebuilds"] = s.fallback_rebuilds;
    layers["ingest.rolled_back_batches"] = s.rolled_back_batches;
    std::vector<double> visible;
    for (size_t i = 0; i < stream.visible; ++i) {
      visible.push_back(stream.visible_at[i] - stream.submitted_at[i]);
    }
    layers["ingest.visible_p50_ms"] = 1e3 * Median(visible);
    const Tail vt = TailOf(visible);
    layers["ingest.visible_tail_ms"] = 1e3 * vt.value;
    report->InfoTail("ingest.visible_tail_ms", vt);
  }
  EmitPerLayer(layers, report);
  return 0;
}

}  // namespace krbench
