// Long-lived (k,r)-core query server: loads one or more workspace
// snapshots into a resident registry and serves concurrent enumerate /
// maximum / derive queries over a newline-delimited stdin/stdout protocol
// (requests: `key=value` tokens; responses: one JSON object per line; see
// docs/SERVER.md for the full grammar and a worked session).
//
// Usage:
//   krcore_cli --dataset=gowalla --k=3 --r=25 --cover=10 --snapshot_out=ws.krws
//   krcore_server --snapshots=main=ws.krws
//     > op=max ws=main k=5 r=18
//     < {"id":"","status":"OK","op":"max","k":5,"r":18,...}
//
// The server is a staged pipeline (admit -> derive -> mine -> respond)
// with bounded admission, coalescing of identical concurrent cells, and
// per-request deadlines; `stats` dumps the per-stage counters as JSON.
//
// Exits non-zero on startup errors; serving errors are per-response.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "server/query_server.h"
#include "server/serve.h"
#include "server/workspace_registry.h"
#include "util/failpoint.h"
#include "util/options.h"

using namespace krcore;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Splits "name=path,name2=path2" into (name, path) pairs.
bool ParseSnapshotSpecs(const std::string& spec,
                        std::vector<std::pair<std::string, std::string>>* out) {
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(start, comma - start);
    size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
      return false;
    }
    out->emplace_back(entry.substr(0, eq), entry.substr(eq + 1));
    start = comma + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser options(argc, argv);
  if (options.Has("help")) {
    std::printf(
        "krcore_server --snapshots=NAME=PATH[,NAME=PATH...] [options]\n"
        "Serves (k,r)-core queries from resident prepared workspaces over\n"
        "newline-delimited stdin/stdout (docs/SERVER.md has the protocol).\n"
        "  --snapshots=SPECS  workspaces to load and register, as\n"
        "                     comma-separated name=path snapshot specs\n"
        "  --load_mode=MODE   lazy (default) mmaps snapshots and defers\n"
        "                     per-component validation to first touch for\n"
        "                     near-instant cold start; eager validates\n"
        "                     everything up front\n"
        "  --queue=N          admission bound: at most N queries in flight;\n"
        "                     further ones are rejected with\n"
        "                     RESOURCE_EXHAUSTED (default 64)\n"
        "  --stage_threads=N  worker threads per pipeline stage (derive and\n"
        "                     mine each get N; default 1 — one each already\n"
        "                     overlaps the two stages)\n"
        "  --threads=N        per-query mining parallelism on the shared\n"
        "                     TaskPool (0 = all hardware cores, 1 = default)\n"
        "  --timeout=S        default per-request deadline in seconds when a\n"
        "                     request carries no timeout= (default 60)\n"
        "  --no_coalesce      disable sharing one execution among identical\n"
        "                     concurrently admitted (k,r) cells\n"
        "  --requests=FILE    read request lines from FILE instead of stdin\n"
        "  --stats            print the JSON stats dump to stderr on exit\n"
        "  --failpoints=SPEC  arm fault-injection sites (server/admit,\n"
        "                     server/derive, server/mine, server/respond;\n"
        "                     same spec syntax as krcore_cli)\n");
    return 0;
  }

  if (Status s = Failpoints::ConfigureFromEnv(); !s.ok()) {
    return Fail("KRCORE_FAILPOINTS: " + s.message());
  }
  if (options.Has("failpoints")) {
    if (Status s = Failpoints::Configure(options.GetString("failpoints", ""));
        !s.ok()) {
      return Fail("--failpoints: " + s.message());
    }
  }

  if (!options.Has("snapshots")) {
    return Fail("need --snapshots=NAME=PATH[,NAME=PATH...]; see --help");
  }
  std::vector<std::pair<std::string, std::string>> specs;
  if (!ParseSnapshotSpecs(options.GetString("snapshots", ""), &specs)) {
    return Fail("bad --snapshots spec (want NAME=PATH[,NAME=PATH...])");
  }

  const std::string load_mode = options.GetString("load_mode", "lazy");
  if (load_mode != "lazy" && load_mode != "eager") {
    return Fail("bad --load_mode '" + load_mode + "' (want lazy or eager)");
  }
  const WorkspaceRegistry::SnapshotLoadMode mode =
      load_mode == "lazy" ? WorkspaceRegistry::SnapshotLoadMode::kLazy
                          : WorkspaceRegistry::SnapshotLoadMode::kEager;

  WorkspaceRegistry registry;
  for (const auto& [name, path] : specs) {
    if (Status s = registry.AddFromSnapshot(name, path, mode); !s.ok()) {
      return Fail("loading '" + name + "' from " + path + ": " + s.message());
    }
    auto ws = registry.Find(name);
    std::string cover_note =
        ws->scored
            ? " (scores cover r=" + std::to_string(ws->score_cover) + ")"
            : "";
    WorkspaceRegistry::Entry reg_entry;
    for (auto& e : registry.List()) {
      if (e.name == name) reg_entry = e;
    }
    std::fprintf(stderr,
                 "registered '%s': k=%u r=%g%s version=%llu, "
                 "%zu components, %u vertices "
                 "(snapshot v%u, %s%s, %.3fs load)\n",
                 name.c_str(), ws->k, ws->threshold, cover_note.c_str(),
                 (unsigned long long)ws->version, ws->components.size(),
                 (unsigned)ws->num_vertices(), reg_entry.snapshot_version,
                 reg_entry.lazy_loaded ? "lazy" : "eager",
                 reg_entry.mapped ? " mmap" : "", reg_entry.load_seconds);
  }
  // Single-workspace ergonomics: requests that omit ws= target "default",
  // so point it at the first snapshot unless the user named one that.
  if (!registry.Find("default")) {
    (void)registry.Alias("default", specs.front().first);
  }

  ServerOptions server_options;
  server_options.queue_capacity =
      static_cast<uint32_t>(options.GetInt("queue", 64));
  uint32_t stage_threads =
      static_cast<uint32_t>(options.GetInt("stage_threads", 1));
  server_options.derive_threads = stage_threads;
  server_options.mine_threads = stage_threads;
  server_options.default_timeout_seconds = options.GetDouble("timeout", 60.0);
  server_options.coalesce = !options.GetBool("no_coalesce", false);
  server_options.parallel.num_threads =
      static_cast<uint32_t>(options.GetInt("threads", 1));

  QueryServer server(&registry, server_options);
  server.Start();

  std::ifstream request_file;
  std::istream* in = &std::cin;
  if (options.Has("requests")) {
    const std::string path = options.GetString("requests", "");
    request_file.open(path);
    if (!request_file) return Fail("cannot open --requests file: " + path);
    in = &request_file;
  }

  SessionReport report = ServeSession(&server, &registry, *in, std::cout);
  server.Stop();

  std::fprintf(stderr,
               "session: %llu lines, %llu queries, %llu responses, "
               "%llu parse errors, %llu admin commands\n",
               (unsigned long long)report.lines_read,
               (unsigned long long)report.queries_submitted,
               (unsigned long long)report.responses_written,
               (unsigned long long)report.parse_errors,
               (unsigned long long)report.admin_commands);
  if (options.GetBool("stats", false)) {
    std::fprintf(stderr, "%s\n", server.Stats().ToJson().c_str());
  }
  return 0;
}
