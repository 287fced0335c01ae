#include "snapshot/workspace_snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/pipeline.h"
#include "test_helpers.h"
#include "util/failpoint.h"

namespace krcore {
namespace {

/// A temp file path that cleans up after the test.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void PutU32(std::string* s, uint32_t v) {
  s->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* s, uint64_t v) {
  s->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutDouble(std::string* s, double v) {
  s->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
/// FNV-1a 64 with the spec's offset basis and prime.
uint64_t Fnv(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

PreparedWorkspace PrepareFixture(const Dataset& dataset, uint32_t k,
                                 double r) {
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, r);
  PipelineOptions opts;
  opts.k = k;
  PreparedWorkspace ws;
  EXPECT_TRUE(PrepareWorkspace(dataset.graph, oracle, opts, &ws).ok());
  return ws;
}

void ExpectComponentsEqual(const std::vector<ComponentContext>& a,
                           const std::vector<ComponentContext>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    EXPECT_EQ(a[i].to_parent, b[i].to_parent);
    ASSERT_EQ(a[i].graph.num_edges(), b[i].graph.num_edges());
    EXPECT_EQ(a[i].num_dissimilar_pairs(), b[i].num_dissimilar_pairs());
    EXPECT_EQ(a[i].dissimilar.bitset_rows(), b[i].dissimilar.bitset_rows());
    for (VertexId u = 0; u < a[i].size(); ++u) {
      auto an = a[i].graph.neighbors(u);
      auto bn = b[i].graph.neighbors(u);
      ASSERT_TRUE(std::equal(an.begin(), an.end(), bn.begin(), bn.end()));
      auto ad = a[i].dissimilar[u];
      auto bd = b[i].dissimilar[u];
      ASSERT_TRUE(std::equal(ad.begin(), ad.end(), bd.begin(), bd.end()));
    }
  }
}

TEST(Snapshot, RoundTripIsLossless) {
  auto dataset = test::MakeRandomGeo(120, 700, 11);
  PreparedWorkspace ws = PrepareFixture(dataset, 3, 0.35);
  ASSERT_FALSE(ws.components.empty());

  TempFile file("roundtrip.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  PreparedWorkspace loaded;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &loaded).ok());

  EXPECT_EQ(loaded.k, ws.k);
  EXPECT_DOUBLE_EQ(loaded.threshold, ws.threshold);
  EXPECT_EQ(loaded.bitset_min_degree, ws.bitset_min_degree);
  ExpectComponentsEqual(ws.components, loaded.components);
}

TEST(Snapshot, MiningFromLoadedSnapshotMatchesFreshPreprocessing) {
  auto dataset = test::MakeRandomGeo(150, 900, 5);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.3);
  const uint32_t k = 3;

  PreparedWorkspace ws = PrepareFixture(dataset, k, 0.3);
  TempFile file("mine.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  PreparedWorkspace loaded;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &loaded).ok());

  auto fresh = EnumerateMaximalCores(dataset.graph, oracle, AdvEnumOptions(k));
  auto served = EnumerateMaximalCores(loaded.components, AdvEnumOptions(k));
  ASSERT_TRUE(fresh.status.ok());
  ASSERT_TRUE(served.status.ok());
  EXPECT_EQ(fresh.cores, served.cores);
  EXPECT_EQ(fresh.stats.prepare_pair_sweeps, 1u);
  EXPECT_EQ(served.stats.prepare_pair_sweeps, 0u);

  auto fresh_max = FindMaximumCore(dataset.graph, oracle, AdvMaxOptions(k));
  auto served_max = FindMaximumCore(loaded.components, AdvMaxOptions(k));
  ASSERT_TRUE(fresh_max.status.ok());
  ASSERT_TRUE(served_max.status.ok());
  EXPECT_EQ(fresh_max.best, served_max.best);
}

TEST(Snapshot, EmptyWorkspaceRoundTrips) {
  PreparedWorkspace ws;
  ws.k = 7;
  ws.threshold = 2.5;
  TempFile file("empty.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  PreparedWorkspace loaded;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &loaded).ok());
  EXPECT_EQ(loaded.k, 7u);
  EXPECT_DOUBLE_EQ(loaded.threshold, 2.5);
  EXPECT_TRUE(loaded.components.empty());
}

TEST(Snapshot, MissingFileIsNotFound) {
  PreparedWorkspace loaded;
  EXPECT_EQ(
      LoadWorkspaceSnapshot("/nonexistent/dir/x.krws", &loaded).code(),
      StatusCode::kNotFound);
}

TEST(Snapshot, WrongMagicIsRejected) {
  TempFile file("magic.krws");
  WriteAll(file.path(), "DEFINITELY NOT A SNAPSHOT FILE................");
  PreparedWorkspace loaded;
  Status s = LoadWorkspaceSnapshot(file.path(), &loaded);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("magic"), std::string::npos);
  EXPECT_TRUE(loaded.components.empty());
}

/// A file in the retired sectioned layout (versions 1-3): magic, version,
/// then one checksummed (tag 1, size, payload, checksum) meta section
/// shaped for that version, describing an empty workspace — a file those
/// versions' readers accepted.
std::string SectionedFile(uint32_t version) {
  std::string meta;
  PutU32(&meta, 2);        // k
  PutDouble(&meta, 1.0);   // threshold
  PutU32(&meta, DissimilarityIndex::kDefaultBitsetMinDegree);
  if (version >= 2) PutU64(&meta, 0);  // graph version
  if (version >= 3) {
    PutU32(&meta, 0);       // flags: unscored
    PutDouble(&meta, 1.0);  // score cover == threshold
  }
  PutU64(&meta, 0);  // no components
  std::string bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(&bytes, version);
  PutU32(&bytes, 1);  // meta tag
  PutU64(&bytes, meta.size());
  bytes += meta;
  PutU64(&bytes, Fnv(meta));
  return bytes;
}

TEST(Snapshot, UnsupportedVersionIsRejected) {
  // Only version 4 loads. Versions 1-3 are the retired sectioned layout;
  // 0 and 5 are a real v4 file with the version field patched.
  auto dataset = test::MakeRandomGeo(40, 150, 3);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  TempFile file("version.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  const std::string v4_bytes = ReadAll(file.path());
  for (uint32_t version : {0u, 1u, 2u, 3u, 5u}) {
    SCOPED_TRACE(::testing::Message() << "version " << version);
    std::string bytes = v4_bytes;
    if (version >= 1 && version <= 3) {
      bytes = SectionedFile(version);
    } else {
      std::memcpy(bytes.data() + 8, &version, sizeof(version));
    }
    WriteAll(file.path(), bytes);
    const std::string named = "version " + std::to_string(version);

    PreparedWorkspace loaded;
    Status s = LoadWorkspaceSnapshot(file.path(), &loaded);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.message().find(named), std::string::npos) << s.ToString();
    EXPECT_TRUE(loaded.components.empty());
    EXPECT_EQ(loaded.k, 0u);

    SnapshotInfo info;
    Status is = InspectSnapshot(file.path(), &info);
    EXPECT_TRUE(is.IsInvalidArgument()) << is.ToString();
    EXPECT_NE(is.message().find(named), std::string::npos) << is.ToString();
    EXPECT_EQ(info.format_version, 0u);
    EXPECT_TRUE(info.sections.empty());
  }
}

TEST(Snapshot, GraphVersionRoundTrips) {
  auto dataset = test::MakeRandomGeo(50, 200, 12);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  ws.version = 41;  // as if 41 update batches had been applied
  TempFile file("version_field.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  PreparedWorkspace loaded;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &loaded).ok());
  EXPECT_EQ(loaded.version, 41u);
}

TEST(Snapshot, TruncationAnywhereIsCleanError) {
  auto dataset = test::MakeRandomGeo(60, 260, 4);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  TempFile file("trunc.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  const std::string bytes = ReadAll(file.path());
  ASSERT_GT(bytes.size(), 64u);
  // Cut at a spread of prefix lengths covering the header, the meta
  // section, and mid-component payloads. Every cut must fail cleanly (and
  // never crash — the ASan CI job leans on this test).
  for (size_t len : {size_t{0}, size_t{4}, size_t{11}, size_t{16},
                     size_t{30}, bytes.size() / 4, bytes.size() / 2,
                     bytes.size() - 9, bytes.size() - 1}) {
    WriteAll(file.path(), bytes.substr(0, len));
    PreparedWorkspace loaded;
    Status s = LoadWorkspaceSnapshot(file.path(), &loaded);
    EXPECT_TRUE(s.IsInvalidArgument()) << "prefix length " << len;
    EXPECT_TRUE(loaded.components.empty()) << "prefix length " << len;
  }
}

TEST(Snapshot, BitFlipFailsChecksum) {
  auto dataset = test::MakeRandomGeo(60, 260, 8);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  TempFile file("flip.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  const std::string bytes = ReadAll(file.path());
  // Flip one byte inside every 64-byte window past the version field: each
  // flip must be caught (checksum mismatch) or rejected by a structural
  // check; which one depends on whether it hits a payload or an envelope.
  for (size_t pos = 13; pos < bytes.size(); pos += 64) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
    WriteAll(file.path(), mutated);
    PreparedWorkspace loaded;
    Status s = LoadWorkspaceSnapshot(file.path(), &loaded);
    EXPECT_FALSE(s.ok()) << "flipped byte at " << pos;
    EXPECT_TRUE(loaded.components.empty()) << "flipped byte at " << pos;
  }
}

// --- An independent v4 writer, built from docs/SNAPSHOT_FORMAT.md rather
// than the library's layout code, so the hostile files below also check
// the written spec. Checksums are valid; the payloads are evil. ------------

/// Zero-pads to the next 64-byte boundary (no-op when already aligned).
void PadTo64(std::string* s) { s->resize((s->size() + 63) / 64 * 64, '\0'); }

/// The meta fields a test varies; the rest are fixed (default bitset
/// degree, graph version 0). Defaults describe an unscored workspace.
struct SpecMeta {
  uint32_t k = 2;
  double threshold = 1.0;
  uint32_t flags = 0;  // bit 0 = scored, bit 1 = distance
  double cover = 1.0;
  /// Declared component count; defaults to the components written.
  std::optional<uint64_t> num_components;
};

/// Meta for a scored similarity-metric workspace: serve r=0.5, cover r=0.8.
SpecMeta ScoredMeta(double threshold = 0.5, double cover = 0.8,
                    uint32_t flags = 1) {
  return SpecMeta{2, threshold, flags, cover, std::nullopt};
}

using Row = std::vector<std::pair<uint32_t, double>>;  // (id, score)

/// One component as the in-memory rows the blob stores, written exactly as
/// given (so a test can make them asymmetric or misclassified). to_parent
/// is the identity. Missing dissimilarity rows are empty.
struct SpecComponent {
  std::vector<std::vector<uint32_t>> adjacency;
  std::vector<Row> active;
  std::vector<Row> reserve;
  /// Declared active pair count; defaults to the entries with id > row.
  std::optional<uint64_t> num_pairs;
};

std::string SpecV4File(const SpecMeta& meta,
                       const std::vector<SpecComponent>& components) {
  const bool scored = (meta.flags & 1) != 0;
  // Header: magic, version 4, zero padding to 64 bytes.
  std::string file(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(&file, 4);
  PadTo64(&file);

  std::string table;
  for (const SpecComponent& c : components) {
    const uint32_t n = static_cast<uint32_t>(c.adjacency.size());
    std::vector<Row> active = c.active;
    std::vector<Row> reserve = c.reserve;
    active.resize(n);
    reserve.resize(n);
    // Blob arrays in spec order, each starting 64-byte aligned.
    std::string blob;
    uint64_t directed = 0;
    uint32_t max_degree = 0;
    PutU64(&blob, 0);  // graph_offsets
    for (const auto& row : c.adjacency) {
      directed += row.size();
      max_degree = std::max(max_degree, static_cast<uint32_t>(row.size()));
      PutU64(&blob, directed);
    }
    PadTo64(&blob);
    for (const auto& row : c.adjacency) {  // neighbors
      for (uint32_t v : row) PutU32(&blob, v);
    }
    PadTo64(&blob);
    for (uint32_t u = 0; u < n; ++u) PutU32(&blob, u);  // to_parent
    PadTo64(&blob);
    uint64_t entries = 0;
    PutU64(&blob, 0);  // d_offsets
    for (uint32_t u = 0; u < n; ++u) {
      entries += active[u].size() + reserve[u].size();
      PutU64(&blob, entries);
    }
    PadTo64(&blob);
    entries = 0;
    for (uint32_t u = 0; u < n; ++u) {  // d_active_end
      PutU64(&blob, entries + active[u].size());
      entries += active[u].size() + reserve[u].size();
    }
    PadTo64(&blob);
    uint64_t num_pairs = 0;
    uint64_t num_reserve = 0;
    for (uint32_t u = 0; u < n; ++u) {  // d_ids: active, then reserve
      for (auto [v, score] : active[u]) {
        PutU32(&blob, v);
        num_pairs += v > u;
      }
      for (auto [v, score] : reserve[u]) {
        PutU32(&blob, v);
        num_reserve += v > u;
      }
    }
    PadTo64(&blob);
    if (scored) {
      for (uint32_t u = 0; u < n; ++u) {  // d_scores, same order
        for (auto [v, score] : active[u]) PutDouble(&blob, score);
        for (auto [v, score] : reserve[u]) PutDouble(&blob, score);
      }
      PadTo64(&blob);
    }
    // Section table entry (64 bytes).
    PutU64(&table, file.size());
    PutU64(&table, blob.size());
    PutU64(&table, Fnv(blob));
    PutU32(&table, n);
    PutU32(&table, max_degree);
    PutU64(&table, directed / 2);
    PutU64(&table, c.num_pairs.value_or(num_pairs));
    PutU64(&table, num_reserve);
    PutU64(&table, 0);  // reserved
    file += blob;
  }

  const uint64_t meta_offset = file.size();
  std::string meta_bytes;
  PutU32(&meta_bytes, meta.k);
  PutDouble(&meta_bytes, meta.threshold);
  PutU32(&meta_bytes, DissimilarityIndex::kDefaultBitsetMinDegree);
  PutU64(&meta_bytes, 0);  // graph version
  PutU32(&meta_bytes, meta.flags);
  PutDouble(&meta_bytes, meta.cover);
  PutU64(&meta_bytes, meta.num_components.value_or(components.size()));
  file += meta_bytes;
  const uint64_t table_offset = file.size();
  file += table;

  // Tail (56 bytes).
  PutU64(&file, meta_offset);
  PutU64(&file, meta_bytes.size());
  PutU64(&file, Fnv(meta_bytes));
  PutU64(&file, table_offset);
  PutU64(&file, Fnv(table));
  PutU64(&file, table_offset + table.size() + 56);  // file size
  file += "KR4FOOTR";
  return file;
}

SnapshotLoadOptions LazyLoad() {
  SnapshotLoadOptions o;
  o.lazy = true;
  return o;
}

/// A defect inside a component blob: the eager load fails, while the lazy
/// load succeeds and its first full validation fails with the same message.
void ExpectComponentRejected(const std::string& bytes,
                             const std::string& expect) {
  TempFile file("hostile_component.krws");
  WriteAll(file.path(), bytes);
  PreparedWorkspace eager;
  Status es = LoadWorkspaceSnapshot(file.path(), &eager);
  EXPECT_TRUE(es.IsInvalidArgument()) << es.ToString();
  EXPECT_NE(es.message().find(expect), std::string::npos) << es.ToString();
  EXPECT_TRUE(eager.components.empty());

  PreparedWorkspace lazy;
  Status ls = LoadWorkspaceSnapshot(file.path(), LazyLoad(), &lazy, nullptr);
  ASSERT_TRUE(ls.ok()) << ls.ToString();
  Status first_touch = lazy.EnsureAllValid();
  EXPECT_TRUE(first_touch.IsInvalidArgument()) << first_touch.ToString();
  EXPECT_EQ(first_touch.message(), es.message());
}

/// A defect in the header, meta or table: eager and lazy loads both fail
/// up front and leave the output reset.
void ExpectFileRejected(const std::string& bytes, const std::string& expect) {
  TempFile file("hostile_file.krws");
  WriteAll(file.path(), bytes);
  for (bool lazy : {false, true}) {
    PreparedWorkspace loaded;
    loaded.k = 99;  // must be reset, not half-filled
    SnapshotLoadOptions options;
    options.lazy = lazy;
    Status s = LoadWorkspaceSnapshot(file.path(), options, &loaded, nullptr);
    EXPECT_TRUE(s.IsInvalidArgument()) << "lazy=" << lazy << " " << s.ToString();
    EXPECT_NE(s.message().find(expect), std::string::npos)
        << "lazy=" << lazy << " " << s.ToString();
    EXPECT_TRUE(loaded.components.empty()) << "lazy=" << lazy;
    EXPECT_EQ(loaded.k, 0u) << "lazy=" << lazy;
  }
}

TEST(Snapshot, SpecWriterMatchesTheLibraryWriter) {
  // The hostile cases below are only meaningful if the spec-built file is
  // otherwise exactly what the library writes: build one valid workspace
  // both ways and compare bytes. Triangle, scored, one active pair (0,1)
  // and one reserve pair (1,2).
  SpecComponent c;
  c.adjacency = {{1, 2}, {0, 2}, {0, 1}};
  c.active = {{{1, 0.3}}, {{0, 0.3}}, {}};
  c.reserve = {{}, {{2, 0.6}}, {{1, 0.6}}};
  const std::string spec_bytes = SpecV4File(ScoredMeta(), {c});
  TempFile spec_file("spec.krws");
  WriteAll(spec_file.path(), spec_bytes);
  PreparedWorkspace loaded;
  Status s = LoadWorkspaceSnapshot(spec_file.path(), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(loaded.components.size(), 1u);
  EXPECT_EQ(loaded.components[0].num_dissimilar_pairs(), 1u);
  EXPECT_EQ(loaded.components[0].dissimilar.num_reserve_pairs(), 1u);
  TempFile resaved("spec_resaved.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(loaded, resaved.path()).ok());
  EXPECT_EQ(ReadAll(resaved.path()), spec_bytes);
}

TEST(Snapshot, AsymmetricAdjacencyIsRejected) {
  // Adjacency rows {0: [], 1: [0], 2: [0]}: every row is sorted, in-range
  // and self-loop free and the degree sum matches one edge, so only the
  // reverse-edge probe can catch it.
  SpecComponent c;
  c.adjacency = {{}, {0}, {0}};
  ExpectComponentRejected(SpecV4File(SpecMeta{}, {c}), "asymmetric adjacency");
}

TEST(Snapshot, OverflowCraftedPairCountIsRejected) {
  // Three isolated vertices declaring 2^61 pairs: the id array would hold
  // L = 2^62 entries, and 4 * L wraps to 0 modulo 2^64, so the layout
  // equation alone would accept a blob with no id bytes at all. The
  // divide-first bound must reject it before that arithmetic runs.
  SpecComponent c;
  c.adjacency = {{}, {}, {}};
  c.num_pairs = uint64_t{1} << 61;
  ExpectFileRejected(SpecV4File(SpecMeta{}, {c}), "counts exceed the payload");
}

TEST(Snapshot, KZeroMetaIsRejected) {
  // No writer produces k = 0 (PrepareWorkspace rejects it), and the
  // prepared-components mining overloads downstream of a load never
  // re-validate k — the loader is the ingress that must close the hole.
  SpecMeta meta;
  meta.k = 0;
  ExpectFileRejected(SpecV4File(meta, {}), "k must be a positive");
}

TEST(Snapshot, HostileComponentCountIsRejectedUpFront) {
  // num_components near 2^63 cannot possibly fit in the file; the loader
  // must fail from the table bound, not by walking that many entries (or
  // reserving room for them).
  SpecMeta meta;
  meta.num_components = uint64_t{1} << 62;
  ExpectFileRejected(SpecV4File(meta, {}), "component count exceeds");
}

// --- Hostile score annotations: every classification invariant the
// derivation layer relies on is enforced at the ingress. --------------------

TEST(Snapshot, ScoredPairOnWrongSideOfThresholdIsRejected) {
  struct Case {
    double active, reserve;
    const char* expect;
  };
  // Similarity metric, serve 0.5, cover 0.8: active needs score < 0.5,
  // reserve needs 0.5 <= score < 0.8.
  const Case cases[] = {
      {0.6, 0.6, "active pair score similar"},
      {0.3, 0.9, "outside the serve..cover band"},
      {0.3, 0.3, "outside the serve..cover band"},
      {std::numeric_limits<double>::quiet_NaN(), 0.6, "non-finite"},
      {0.3, std::numeric_limits<double>::infinity(), "non-finite"},
  };
  for (const Case& tc : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "active=" << tc.active << " reserve=" << tc.reserve);
    // A triangle with active pair (0,1) and reserve pair (1,2).
    SpecComponent c;
    c.adjacency = {{1, 2}, {0, 2}, {0, 1}};
    c.active = {{{1, tc.active}}, {{0, tc.active}}, {}};
    c.reserve = {{}, {{2, tc.reserve}}, {{1, tc.reserve}}};
    ExpectComponentRejected(SpecV4File(ScoredMeta(), {c}), tc.expect);
  }
}

TEST(Snapshot, PairListedInBothBlocksIsRejected) {
  // Pair (0,1) active at 0.3 and again reserve at 0.6: each segment is
  // sorted, classified and mirrored on its own.
  SpecComponent c;
  c.adjacency = {{1, 2}, {0, 2}, {0, 1}};
  c.active = {{{1, 0.3}}, {{0, 0.3}}, {}};
  c.reserve = {{{1, 0.6}}, {{0, 0.6}}, {}};
  ExpectComponentRejected(SpecV4File(ScoredMeta(), {c}),
                          "both active and reserve");
}

TEST(Snapshot, MalformedScoredMetaIsRejected) {
  // Cover looser than serve (similarity metric: smaller), unknown flag
  // bits, and a widened cover on an unscored file.
  const SpecMeta bad_metas[] = {
      ScoredMeta(/*threshold=*/0.5, /*cover=*/0.3, /*flags=*/1),
      ScoredMeta(0.5, 0.8, /*flags=*/8),
      ScoredMeta(0.5, 0.8, /*flags=*/0),
  };
  const char* expects[] = {
      "score cover looser",
      "unknown meta flag bits",
      "unscored workspace with a widened score cover",
  };
  for (size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(::testing::Message() << "case " << i);
    ExpectFileRejected(SpecV4File(bad_metas[i], {}), expects[i]);
  }
}

TEST(Snapshot, TrailingGarbageIsRejected) {
  auto dataset = test::MakeRandomGeo(40, 150, 6);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  TempFile file("trail.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  WriteAll(file.path(), ReadAll(file.path()) + "extra");
  PreparedWorkspace loaded;
  EXPECT_TRUE(LoadWorkspaceSnapshot(file.path(), &loaded).IsInvalidArgument());
}

// --- Crash atomicity: a failed save must never damage the previous
// snapshot, and must never leave the staging file behind. -------------------

class SnapshotFailpoint : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::DisableAll(); }
  void TearDown() override { Failpoints::DisableAll(); }
};

bool FileExists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

TEST_F(SnapshotFailpoint, UnopenablePathIsNotFound) {
  auto dataset = test::MakeRandomGeo(30, 100, 2);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  Status s = SaveWorkspaceSnapshot(ws, "/nonexistent/dir/x.krws");
  EXPECT_EQ(s.code(), StatusCode::kNotFound) << s.ToString();
}

TEST_F(SnapshotFailpoint, FailedSaveLeavesOldSnapshotIntactAndNoTmpFile) {
  auto old_dataset = test::MakeRandomGeo(60, 260, 21);
  auto new_dataset = test::MakeRandomGeo(80, 400, 22);
  PreparedWorkspace old_ws = PrepareFixture(old_dataset, 2, 0.4);
  PreparedWorkspace new_ws = PrepareFixture(new_dataset, 3, 0.35);

  TempFile file("atomic.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(old_ws, file.path()).ok());
  const std::string old_bytes = ReadAll(file.path());

  // A fault at any stage of the save — mid-section (leaving a torn
  // prefix in the staging file), at flush, or at the final rename — must
  // return Internal, leave the committed file byte-identical, and clean
  // up the staging file.
  for (const char* site :
       {"snapshot/write_section", "snapshot/flush", "snapshot/rename"}) {
    Failpoints::Enable(site, FailpointSpec::Once());
    Status s = SaveWorkspaceSnapshot(new_ws, file.path());
    EXPECT_EQ(s.code(), StatusCode::kInternal) << site;
    EXPECT_EQ(ReadAll(file.path()), old_bytes) << site;
    EXPECT_FALSE(FileExists(file.path() + ".tmp")) << site;
    PreparedWorkspace loaded;
    ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &loaded).ok()) << site;
    ExpectComponentsEqual(old_ws.components, loaded.components);
  }

  // With the failpoints drained the very same save commits.
  ASSERT_TRUE(SaveWorkspaceSnapshot(new_ws, file.path()).ok());
  PreparedWorkspace loaded;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &loaded).ok());
  ExpectComponentsEqual(new_ws.components, loaded.components);
  EXPECT_FALSE(FileExists(file.path() + ".tmp"));
}

TEST_F(SnapshotFailpoint, WriteSectionFaultNamesTheSectionTag) {
  auto dataset = test::MakeRandomGeo(40, 150, 9);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  TempFile file("tagged.krws");
  Failpoints::Enable("snapshot/write_section", FailpointSpec::Once());
  Status s = SaveWorkspaceSnapshot(ws, file.path());
  ASSERT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("section tag"), std::string::npos)
      << s.ToString();
}

TEST_F(SnapshotFailpoint, FirstSaveFailureLeavesNoFileAtAll) {
  auto dataset = test::MakeRandomGeo(40, 150, 10);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  TempFile file("fresh_fail.krws");
  Failpoints::Enable("snapshot/rename", FailpointSpec::Once());
  EXPECT_EQ(SaveWorkspaceSnapshot(ws, file.path()).code(),
            StatusCode::kInternal);
  EXPECT_FALSE(FileExists(file.path()));
  EXPECT_FALSE(FileExists(file.path() + ".tmp"));
}

TEST_F(SnapshotFailpoint, ReadFaultFailsLoadWithEmptyOutput) {
  auto dataset = test::MakeRandomGeo(40, 150, 13);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  ASSERT_FALSE(ws.components.empty());
  TempFile file("read_fault.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());

  Failpoints::Enable("snapshot/read_section", FailpointSpec::Once());
  PreparedWorkspace loaded;
  loaded.k = 99;  // must be reset, not half-filled
  Status s = LoadWorkspaceSnapshot(file.path(), &loaded);
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
  EXPECT_TRUE(loaded.components.empty());
  EXPECT_EQ(loaded.k, 0u);

  // The file itself is untouched: the next load succeeds.
  PreparedWorkspace reloaded;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &reloaded).ok());
  ExpectComponentsEqual(ws.components, reloaded.components);
}

}  // namespace
}  // namespace krcore
