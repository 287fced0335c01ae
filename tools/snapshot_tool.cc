// Workspace snapshot inspector and validating rewriter.
//
// Usage:
//   snapshot_tool --info=ws.krws [--json]
//   snapshot_tool --convert=ws.krws --out=ws_copy.krws
//
// `--info` walks the file's header, meta, table and checksums without
// requiring the component blobs to pass structural validation — a
// bit-flipped component prints as `checksum BAD` instead of aborting,
// which is the point: this is the first tool to reach for on a torn-file
// report. `--convert` does a full validated load followed by a rewrite, so
// a successful conversion doubles as an integrity check.
//
// Exits 0 on success, 1 on any error (unreadable file, failed validation).

#include <cinttypes>
#include <cstdio>
#include <string>

#include "core/pipeline.h"
#include "snapshot/workspace_snapshot.h"
#include "util/options.h"

using namespace krcore;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

void PrintInfoText(const std::string& path, const SnapshotInfo& info) {
  std::printf("%s: snapshot v%u, %" PRIu64 " bytes\n", path.c_str(),
              info.format_version, info.file_size);
  std::printf("  k=%u r=%g cover=%g scored=%s distance=%s version=%" PRIu64
              " bitset_min_degree=%u\n",
              info.k, info.threshold, info.score_cover,
              info.scored ? "true" : "false",
              info.is_distance ? "true" : "false", info.graph_version,
              info.bitset_min_degree);
  std::printf("  components=%" PRIu64 ", sections=%zu\n", info.num_components,
              info.sections.size());
  for (const auto& s : info.sections) {
    std::printf("  [%9s] offset=%-10" PRIu64 " size=%-10" PRIu64
                " checksum=%016" PRIx64 " %s",
                s.kind.c_str(), s.offset, s.size, s.checksum,
                s.checksum_ok ? "OK " : "BAD");
    if (s.kind == "component") {
      std::printf(" n=%" PRIu64 " edges=%" PRIu64 " pairs=%" PRIu64
                  " reserve=%" PRIu64,
                  s.n, s.num_edges, s.num_pairs, s.num_reserve_pairs);
    }
    std::printf("\n");
  }
}

void PrintInfoJson(const std::string& path, const SnapshotInfo& info) {
  std::printf("{\"path\":\"%s\",\"format_version\":%u,\"file_size\":%" PRIu64
              ",\"k\":%u,\"r\":%g,\"cover\":%g,\"scored\":%s,"
              "\"distance_metric\":%s,\"version\":%" PRIu64
              ",\"bitset_min_degree\":%u,\"components\":%" PRIu64
              ",\"sections\":[",
              path.c_str(), info.format_version, info.file_size, info.k,
              info.threshold, info.score_cover,
              info.scored ? "true" : "false",
              info.is_distance ? "true" : "false", info.graph_version,
              info.bitset_min_degree, info.num_components);
  bool first = true;
  for (const auto& s : info.sections) {
    std::printf("%s{\"kind\":\"%s\",\"offset\":%" PRIu64 ",\"size\":%" PRIu64
                ",\"checksum\":\"%016" PRIx64 "\",\"checksum_ok\":%s",
                first ? "" : ",", s.kind.c_str(), s.offset, s.size, s.checksum,
                s.checksum_ok ? "true" : "false");
    first = false;
    if (s.kind == "component") {
      std::printf(",\"n\":%" PRIu64 ",\"edges\":%" PRIu64 ",\"pairs\":%" PRIu64
                  ",\"reserve\":%" PRIu64,
                  s.n, s.num_edges, s.num_pairs, s.num_reserve_pairs);
    }
    std::printf("}");
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser options(argc, argv);
  if (options.Has("help") || argc == 1) {
    std::printf(
        "snapshot_tool --info=PATH [--json]\n"
        "snapshot_tool --convert=SRC --out=DST\n"
        "Inspects and rewrites (k,r)-core workspace snapshot files.\n"
        "  --info=PATH     print version, identity, and per-section\n"
        "                  sizes/checksums; damaged component sections\n"
        "                  print as BAD instead of aborting\n"
        "  --json          emit --info output as one JSON object\n"
        "  --convert=SRC   load SRC with full validation and rewrite it,\n"
        "                  an integrity check that yields a fresh copy\n"
        "  --out=DST       destination path for --convert\n");
    return 0;
  }

  if (options.Has("info")) {
    const std::string path = options.GetString("info", "");
    SnapshotInfo info;
    if (Status s = InspectSnapshot(path, &info); !s.ok()) {
      return Fail(path + ": " + s.message());
    }
    if (options.GetBool("json", false)) {
      PrintInfoJson(path, info);
    } else {
      PrintInfoText(path, info);
    }
    return 0;
  }

  if (options.Has("convert")) {
    const std::string src = options.GetString("convert", "");
    const std::string dst = options.GetString("out", "");
    if (dst.empty()) return Fail("--convert needs --out=DST");
    PreparedWorkspace ws;
    if (Status s = LoadWorkspaceSnapshot(src, &ws); !s.ok()) {
      return Fail(src + ": " + s.message());
    }
    if (Status s = SaveWorkspaceSnapshot(ws, dst); !s.ok()) {
      return Fail(dst + ": " + s.message());
    }
    std::fprintf(stderr, "converted %s -> %s (v%u, %zu components)\n",
                 src.c_str(), dst.c_str(), kSnapshotVersion,
                 ws.components.size());
    return 0;
  }

  return Fail("need --info=PATH or --convert=SRC --out=DST; see --help");
}
