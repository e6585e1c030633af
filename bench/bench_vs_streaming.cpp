//===- bench/bench_vs_streaming.cpp - Tables 10 and 11 ---------------------===//
//
// Reproduces the streaming-system comparisons:
//  * Table 10 - batch edge insertions into an initially-empty graph:
//    Stinger-like versus Aspen, batch sizes 10 .. 2e6 (rMAT updates).
//  * Table 11 - BFS and BC running times on Stinger-like, LLAMA-like, and
//    Aspen. As in the paper, Aspen runs without direction optimization
//    for fairness (A), with its single-thread time (A(1)) reported for
//    the sequential-BC comparison, and with direction optimization (A+)
//    for reference.
//
// Expected shape (paper): Aspen's update rate is ~an order of magnitude
// higher than Stinger's even at small batches and the gap grows with
// batch size; Aspen's BFS is 2.8-10.2x faster than both systems.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include <algorithm>

#include "algorithms/bc.h"
#include "algorithms/bfs.h"
#include "baselines/llama_like.h"
#include "baselines/stinger_like.h"
#include "graph/graph.h"

using namespace aspen;

int main(int Argc, char **Argv) {
  BenchConfig C = parseBenchConfig(Argc, Argv);
  BenchInput In = makeInput(C);
  printEnvironment();

  //===------------------------------------------------------------------===
  // Table 10: batch updates into an empty graph.
  //===------------------------------------------------------------------===
  printHeader("Table 10: batch inserts into an empty graph (rMAT stream)");
  std::printf("%-10s %12s %14s %12s %14s\n", "Batch", "Stinger",
              "ST upd/s", "Aspen", "Asp upd/s");
  RMatGenerator Stream(C.LogN, C.Seed + 2000);
  Graph EmptyBase = Graph::fromEdges(In.N, {});
  for (uint64_t BS : {10ull, 100ull, 1000ull, 10000ull, 100000ull,
                      1000000ull, 2000000ull}) {
    auto Batch = Stream.edges(0, BS);
    // Time only the ingest (graph construction excluded), median of
    // C.Rounds trials onto a fresh empty graph each time.
    double StT = 0;
    {
      std::vector<double> Ts;
      for (int R = 0; R < C.Rounds; ++R) {
        StingerGraph ST(In.N);
        Ts.push_back(timeIt([&] { ST.batchInsert(Batch); }));
      }
      StT = percentile(Ts, 0.5);
    }
    double AspT = benchTime(C.Rounds, [&] {
      Graph G2 = EmptyBase.insertEdges(Batch);
      (void)G2;
    });
    std::printf("%-10zu %12s %14s %12s %14s\n", size_t(BS),
                fmtTime(StT).c_str(), fmtRate(double(BS) / StT).c_str(),
                fmtTime(AspT).c_str(), fmtRate(double(BS) / AspT).c_str());
  }

  //===------------------------------------------------------------------===
  // Table 11: algorithm performance vs Stinger and LLAMA.
  //===------------------------------------------------------------------===
  StingerGraph ST(In.N);
  ST.batchInsert(In.Edges);
  LlamaGraph LL(In.N);
  size_t Step = In.Edges.size() / 8 + 1;
  for (size_t I = 0; I < In.Edges.size(); I += Step)
    LL.ingestBatch(std::vector<EdgePair>(
        In.Edges.begin() + I,
        In.Edges.begin() + std::min(In.Edges.size(), I + Step)));
  Graph G = Graph::fromEdges(In.N, In.Edges);
  FlatSnapshot FS(G);
  FlatGraphView FV(FS);

  EdgeMapOptions NoDense;
  NoDense.NoDense = true;

  printHeader("Table 11: BFS / BC vs Stinger-like and LLAMA-like");
  std::printf("%-6s %12s %12s %12s %12s %12s %8s %8s\n", "App", "ST", "LL",
              "A", "A(1)", "A+", "ST/A", "LL/A");

  VertexId Src = 0;
  double StBfs = benchTime(C.Rounds, [&] { bfs(ST, Src, NoDense); });
  double LlBfs = benchTime(C.Rounds, [&] { bfs(LL, Src, NoDense); });
  double ABfs = benchTime(C.Rounds, [&] { bfs(FV, Src, NoDense); });
  double A1Bfs = benchTimeSequential([&] { bfs(FV, Src, NoDense); });
  double ADBfs = benchTime(C.Rounds, [&] { bfs(FV, Src); });
  std::printf("%-6s %12s %12s %12s %12s %12s %7.2fx %7.2fx\n", "BFS",
              fmtTime(StBfs).c_str(), fmtTime(LlBfs).c_str(),
              fmtTime(ABfs).c_str(), fmtTime(A1Bfs).c_str(),
              fmtTime(ADBfs).c_str(), StBfs / ABfs, LlBfs / ABfs);

  // Stinger's public BC is sequential (Section 7.5), so its row runs in
  // sequential mode and is compared against Aspen's one-thread time.
  double StBc = benchTimeSequential([&] { bc(ST, Src, NoDense); });
  double LlBc = benchTime(C.Rounds, [&] { bc(LL, Src, NoDense); });
  double ABc = benchTime(C.Rounds, [&] { bc(FV, Src, NoDense); });
  double A1Bc = benchTimeSequential([&] { bc(FV, Src, NoDense); });
  double ADBc = benchTime(C.Rounds, [&] { bc(FV, Src); });
  std::printf("%-6s %12s %12s %12s %12s %12s %7.2fx %7.2fx\n", "BC",
              fmtTime(StBc).c_str(), fmtTime(LlBc).c_str(),
              fmtTime(ABc).c_str(), fmtTime(A1Bc).c_str(),
              fmtTime(ADBc).c_str(), StBc / A1Bc, LlBc / ABc);
  std::printf("\n(ST BC row is sequential, compared against A(1), as in "
              "the paper)\n");
  return 0;
}
