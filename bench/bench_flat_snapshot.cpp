//===- bench/bench_flat_snapshot.cpp - Table 6 + incremental refresh ------===//
//
// Section A reproduces Table 6: BFS running time without a flat snapshot
// (vertex lookups through the vertex tree) and with one (including the
// time to build the snapshot), plus the snapshot-construction time
// itself. Expected shape (paper): 1.12-1.34x speedup including
// construction; the flat snapshot costs 15-24% of the BFS time.
//
// Section B measures what makes flat views economical under streaming
// (DESIGN.md Section 4): per batch size (0.01% / 0.1% / 1% of n touched
// sources), the cost of a full from-scratch flat rebuild versus
// acquireFlat()'s incremental refresh of the store-resident hot flat
// snapshot. The acceptance bar for the incremental path is >= 5x at <= 1%
// touched.
//
// Metric trail: -json <path> writes every reported metric as flat JSON
// (BENCH_flat_snapshot.json is the committed trail; CI uploads it) and
// -compare <path> annotates rows against a previous file, following the
// bench_chunk_ops convention.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "algorithms/bfs.h"
#include "store/sharded_graph.h"

#include <algorithm>

using namespace aspen;

namespace {

//===----------------------------------------------------------------------===
// Section A: Table 6.
//===----------------------------------------------------------------------===

void runTable6(const BenchConfig &C, const std::vector<BenchInput> &Inputs) {
  printHeader("Table 6: BFS with and without flat snapshots");
  std::printf("%-12s %12s %12s %9s %12s\n", "Graph", "Without FS",
              "With FS", "Speedup", "FS Time");
  for (const BenchInput &In : Inputs) {
    Graph G = Graph::fromEdges(In.N, In.Edges);
    TreeGraphView TV(G);

    double Without = benchTime(C.Rounds, [&] { bfs(TV, 0); });
    double FsTime = benchTime(C.Rounds, [&] { FlatSnapshot FS(G); });
    double With = benchTime(C.Rounds, [&] {
      FlatSnapshot FS(G); // included in the with-FS time, as in the paper
      FlatGraphView FV(FS);
      bfs(FV, 0);
    });
    std::string Scope = "table6/" + In.Name;
    recordMetric(Scope + "/bfs_tree_s", Without);
    recordMetric(Scope + "/bfs_flat_incl_build_s", With);
    recordMetric(Scope + "/flat_build_s", FsTime);
    std::printf("%-12s %12s %12s %8.2fx %12s%s\n", In.Name.c_str(),
                fmtTime(Without).c_str(), fmtTime(With).c_str(),
                Without / With, fmtTime(FsTime).c_str(),
                compareSuffix(Scope + "/flat_build_s", FsTime).c_str());
  }
}

//===----------------------------------------------------------------------===
// Section B: rebuild vs incremental refresh per batch size.
//===----------------------------------------------------------------------===

/// A batch of ~K distinct-source undirected updates drawn from an rMAT
/// stream (realistic degree skew; symmetrized like every input).
std::vector<EdgePair> updateBatch(const BenchInput &In, size_t K,
                                  uint64_t Seq) {
  std::vector<EdgePair> Out;
  Out.reserve(2 * K);
  for (size_t I = 0; I < K; ++I) {
    // Deterministic picks from the input's own edges: updates hit
    // existing vertices with the graph's degree distribution.
    const EdgePair &E = In.Edges[size_t(hashAt(Seq, I) % In.Edges.size())];
    Out.push_back(E);
    Out.push_back({E.second, E.first});
  }
  return dedupEdges(std::move(Out));
}

void runRefresh(const BenchConfig &C, const std::vector<BenchInput> &Inputs) {
  printHeader("Incremental flat snapshots: full rebuild vs "
              "acquireFlat() refresh");
  std::printf("%-12s %10s %9s %12s %12s %9s %9s\n", "Graph", "Batch",
              "Touched", "Rebuild", "Refresh", "Speedup", "Shared");
  const double Fracs[] = {0.0001, 0.001, 0.01};
  const char *FracNames[] = {"0.01%", "0.1%", "1%"};
  for (const BenchInput &In : Inputs) {
    for (int F = 0; F < 3; ++F) {
      size_t K = std::max<size_t>(1, size_t(double(In.N) * Fracs[F] / 2));
      ShardedGraphStore Store(1, In.N, In.Edges);
      auto Warm = Store.acquireFlat(); // populate the hot cache
      double RebuildT = benchTime(C.Rounds, [&] {
        FlatSnapshot FS(Store.acquire().shard(0));
      });

      // Each round: one batch, then time the catch-up refresh.
      std::vector<double> Times;
      uint64_t TouchedSum = 0;
      size_t SharedPages = 0, TotalPages = 1;
      for (int R = 0; R < C.Rounds; ++R) {
        auto Prev = Store.acquireFlat();
        auto Batch = updateBatch(In, K, uint64_t(R) * 7919 + F);
        // The digest size this refresh replays: distinct sources of the
        // (sorted, deduplicated) batch.
        for (size_t I = 0; I < Batch.size(); ++I)
          TouchedSum += (I == 0 || Batch[I].first != Batch[I - 1].first);
        Store.insertBatch(Batch);
        Timer T;
        auto FE = Store.acquireFlat();
        Times.push_back(T.elapsed());
        SharedPages = FE->Flats[0].sharedPages();
        TotalPages = FE->Flats[0].numPages();
      }
      double RefreshT = percentile(Times, 0.5);
      auto Stats = Store.flatStats();
      bool AllRefreshed = Stats.Rebuilds == 1; // only the warm-up build
      std::string Scope =
          "refresh/" + In.Name + "/b" + FracNames[F];
      recordMetric(Scope + "/rebuild_s", RebuildT);
      recordMetric(Scope + "/refresh_s", RefreshT);
      recordMetric(Scope + "/speedup", RebuildT / RefreshT);
      char Touched[32];
      std::snprintf(Touched, sizeof(Touched), "%llu",
                    static_cast<unsigned long long>(
                        TouchedSum / uint64_t(C.Rounds)));
      std::printf("%-12s %10s %9s %12s %12s %8.2fx %8.0f%%%s%s\n",
                  In.Name.c_str(), FracNames[F], Touched,
                  fmtTime(RebuildT).c_str(), fmtTime(RefreshT).c_str(),
                  RebuildT / RefreshT,
                  100.0 * double(SharedPages) / double(TotalPages),
                  AllRefreshed ? "" : "  [fell back to rebuild]",
                  compareSuffix(Scope + "/speedup", RebuildT / RefreshT)
                      .c_str());
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  BenchConfig C = parseBenchConfig(Argc, Argv);
  // Sub-10ms BFS runs are noisy; more rounds stabilize the medians.
  if (C.Rounds < 5)
    C.Rounds = 5;
  auto Inputs = makeInputs(C);
  printEnvironment();

  std::string ComparePath = CL.getString("compare");
  if (!ComparePath.empty() && !loadBenchBaseline(ComparePath))
    std::fprintf(stderr, "warning: cannot read -compare file %s\n",
                 ComparePath.c_str());

  runTable6(C, Inputs);
  runRefresh(C, Inputs);

  finishMetricTrail(CL);
  return 0;
}
