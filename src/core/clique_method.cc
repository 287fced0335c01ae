#include "core/clique_method.h"

#include <algorithm>

#include "clique/bron_kerbosch.h"
#include "core/result_set.h"
#include "graph/connectivity.h"
#include "graph/graph_builder.h"
#include "kcore/core_decomposition.h"
#include "util/logging.h"

namespace krcore {

MaximalCoresResult EnumerateByCliqueMethod(const Graph& g,
                                           const SimilarityOracle& oracle,
                                           const CliqueMethodOptions& options) {
  MaximalCoresResult result;
  Timer timer;
  if (options.k == 0) {
    result.status = Status::InvalidArgument("k must be a positive integer");
    return result;
  }

  // Sec 3's improved clique-based method, faithfully: (i) compute the k-core
  // of G first; (ii) delete edges between dissimilar endpoints inside it;
  // (iii) take the connected subgraphs (<without> re-running the k-core —
  // that re-coring is part of our Algorithm 1 pipeline, not of Clique+);
  // (iv) per subgraph, materialize the similarity graph over all vertex
  // pairs and enumerate its maximal cliques; (v) the k-core of the
  // structure subgraph induced by each maximal clique yields candidate
  // (k,r)-cores; (vi) filter non-maximal results.
  std::vector<VertexId> core_vertices = KCoreVertices(g, options.k);
  if (core_vertices.empty()) {
    result.status = Status::OK();
    result.stats.seconds = timer.ElapsedSeconds();
    return result;
  }

  // Edge-filtered structure graph restricted to the k-core.
  std::vector<char> in_core(g.num_vertices(), 0);
  for (VertexId u : core_vertices) in_core[u] = 1;
  GraphBuilder filtered(g.num_vertices());
  for (VertexId u : core_vertices) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v && in_core[v] && oracle.Similar(u, v)) filtered.AddEdge(u, v);
    }
  }
  Graph structure = filtered.Build();

  auto components = ComponentsOfSubset(structure, core_vertices);

  // Pairwise-similarity budget guard (0 means unlimited).
  uint64_t pair_budget = 0;
  for (const auto& comp : components) {
    const uint64_t sz = comp.size();
    pair_budget += sz * (sz - 1) / 2;
  }
  if (options.max_pair_budget > 0 && pair_budget > options.max_pair_budget) {
    result.status = Status::ResourceExhausted(
        "clique method similarity-graph budget exceeded");
    return result;
  }

  ResultSet results;
  for (const auto& comp : components) {
    ++result.stats.components;
    if (comp.size() <= options.k) continue;  // cannot host a (k,r)-core
    if (options.deadline.Expired()) {
      result.status = Status::DeadlineExceeded("clique method budget expired");
      break;
    }

    // Materialize this subgraph's similarity graph (all pairs — the
    // expensive step the paper attributes Clique+'s cost to).
    auto induced = BuildInducedSubgraph(structure, comp);
    const VertexId n = induced.graph.num_vertices();
    GraphBuilder sim_builder(n);
    for (VertexId a = 0; a < n; ++a) {
      for (VertexId b = a + 1; b < n; ++b) {
        if (oracle.Similar(induced.to_parent[a], induced.to_parent[b])) {
          sim_builder.AddEdge(a, b);
        }
      }
    }
    Graph sim_graph = sim_builder.Build();

    CliqueOptions copts;
    copts.min_size = static_cast<size_t>(options.k) + 1;
    copts.deadline = options.deadline;
    Status s = EnumerateMaximalCliques(
        sim_graph, copts, [&](const std::vector<VertexId>& clique) {
          ++result.stats.search_nodes;
          // k-core of the structure subgraph induced by the clique, then
          // connected components: each is a candidate (k,r)-core.
          auto clique_induced = BuildInducedSubgraph(induced.graph, clique);
          auto kcore = KCoreVertices(clique_induced.graph, options.k);
          if (kcore.empty()) return true;
          auto pieces = ComponentsOfSubset(clique_induced.graph, kcore);
          for (const auto& piece : pieces) {
            ++result.stats.emitted_candidates;
            VertexSet parent_ids;
            parent_ids.reserve(piece.size());
            for (VertexId local : piece) {
              parent_ids.push_back(
                  induced.to_parent[clique_induced.to_parent[local]]);
            }
            std::sort(parent_ids.begin(), parent_ids.end());
            results.Insert(std::move(parent_ids));
          }
          return true;
        });
    if (!s.ok()) {
      result.status = s;
      break;
    }
  }

  results.FilterNonMaximal();
  result.cores = results.TakeSorted();
  result.stats.maximal_found = result.cores.size();
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace krcore
