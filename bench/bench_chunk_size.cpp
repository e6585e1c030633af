//===- bench/bench_chunk_size.cpp - Table 5 + representation sweep --------===//
//
// Reproduces Table 5: memory usage and BFS/BC/MIS running times as a
// function of the expected chunk size b = 2^1 .. 2^12. Head selection is
// a per-tree construction parameter (CTreeSet::BuildParams), so each
// sweep point simply rebuilds the graph with a different HeadMask — no
// process-global state is mutated.
//
// Expected shape (paper): memory decreases steeply until b ~ 2^8 then
// flattens; running times improve with b up to ~2^8 and then degrade as
// chunks get too coarse for parallelism. The paper picks b = 2^8.
//
// On top of the sweep, this bench reports the degree-adaptive hybrid
// representation (graph/hybrid_set.h):
//  * the parameters autotuneHybridParams selects per degree class for
//    this input (inline capacity, chunked-class b, hot threshold), with
//    the vertex population of each class, and
//  * an end-to-end hybrid-vs-chunked comparison: memory and
//    triangleCount (the probe-heavy algorithm) on the same rMAT
//    power-law input at the autotuned parameters.
//
//   -json <path>    write every reported metric to <path> as flat JSON
//   -compare <path> load a previous -json file, print before/after ratios
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "algorithms/bc.h"
#include "algorithms/bfs.h"
#include "algorithms/mis.h"
#include "algorithms/triangle_count.h"
#include "graph/graph.h"

using namespace aspen;

namespace {

void reportMetric(const std::string &Key, double Value) {
  recordMetric(Key, Value);
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  BenchConfig C = parseBenchConfig(Argc, Argv);
  std::string ComparePath = CL.getString("compare");
  if (!ComparePath.empty() && !loadBenchBaseline(ComparePath))
    std::fprintf(stderr, "warning: cannot read -compare file %s\n",
                 ComparePath.c_str());
  BenchInput In = makeInput(C);
  printEnvironment();

  std::printf("\n== Table 5: chunk-size sweep on %s (n=%u, m=%zu) ==\n",
              In.Name.c_str(), In.N, In.Edges.size());
  std::printf("%-6s %12s %12s %12s %12s\n", "b", "Memory", "BFS (P)",
              "BC (P)", "MIS (P)");

  for (int LogB = 1; LogB <= 12; ++LogB) {
    uint64_t B = uint64_t(1) << LogB;
    Graph G = Graph::fromEdges(In.N, In.Edges, {B - 1});
    FlatSnapshot FS(G);
    FlatGraphView FV(FS);
    std::string Scope = "sweep/b" + std::to_string(LogB);
    double Mem = double(G.memoryBytes());
    double Bfs = benchTime(C.Rounds, [&] { bfs(FV, 0); });
    double Bc = benchTime(C.Rounds, [&] { bc(FV, 0); });
    double Mis = benchTime(C.Rounds, [&] { mis(FV); });
    reportMetric(Scope + "/memory_bytes", Mem);
    reportMetric(Scope + "/bfs_s", Bfs);
    reportMetric(Scope + "/bc_s", Bc);
    reportMetric(Scope + "/mis_s", Mis);
    std::printf("2^%-4d %12s %12s %12s %12s%s\n", LogB,
                fmtBytes(Mem).c_str(), fmtTime(Bfs).c_str(),
                fmtTime(Bc).c_str(), fmtTime(Mis).c_str(),
                compareSuffix(Scope + "/bfs_s", Bfs).c_str());
  }
  std::printf("\n(the paper selects b = 2^8 as the best tradeoff)\n");

  //===--------------------------------------------------------------------===
  // Hub-forming power-law input for the hybrid comparison: some vertices
  // accumulate thousands of *distinct* neighbors, so the source side is
  // skewed hard toward high ids (a+b = 0.2) while the destination side
  // stays near-uniform (a+c = 0.5) — a symmetric-parameter rMAT collapses
  // hub edges into duplicates and never grows a 4096-degree adjacency.
  // High-id hubs also put the hubs on the scanned side of the ordered
  // triangle-count intersection (v > u).
  //===--------------------------------------------------------------------===

  int HubLogN = C.LogN > 2 ? C.LogN - 2 : C.LogN;
  VertexId HubN = VertexId(1) << HubLogN;
  RMatGenerator HubGen(HubLogN, C.Seed, /*A=*/0.05, /*B=*/0.15,
                       /*C=*/0.45);
  std::vector<EdgePair> HubEdges = dedupEdges(symmetrize(
      HubGen.edges(0, (C.EdgeFactor * 4) << HubLogN)));

  HybridParams HP = autotuneHybridParams(HubN, HubEdges);
  std::vector<uint32_t> Degrees(HubN, 0);
  for (const EdgePair &E : HubEdges)
    if (E.first < HubN)
      ++Degrees[E.first];
  uint64_t NInline = 0, NChunked = 0;
  for (uint32_t D : Degrees) {
    if (D <= HybridInlineCap)
      ++NInline;
    else
      ++NChunked;
  }
  printHeader("autotuned hybrid parameters (per degree class)");
  std::printf("  input: rmat-hub-%d (n=%u, m=%zu, skew 0.05/0.15/0.45)\n",
              HubLogN, HubN, HubEdges.size());
  std::printf("  %-8s %-24s %12s\n", "class", "parameter", "vertices");
  std::printf("  %-8s degree <= %-14u %12llu\n", "inline",
              unsigned(HybridInlineCap), (unsigned long long)NInline);
  std::printf("  %-8s b = 2^%-17u %12llu\n", "chunked",
              unsigned(HP.LogB), (unsigned long long)NChunked);
  reportMetric("autotune/logb", double(HP.LogB));
  reportMetric("autotune/class_inline_vertices", double(NInline));
  reportMetric("autotune/class_chunked_vertices", double(NChunked));

  //===--------------------------------------------------------------------===
  // Hybrid vs pure-chunked end to end at the autotuned parameters: memory
  // and triangleCount. Both run the same merge intersections; the hybrid
  // differs only by keeping degree <= 8 adjacencies inline.
  //===--------------------------------------------------------------------===

  printHeader("hybrid vs chunked (autotuned parameters)");
  Graph GC = Graph::fromEdges(HubN, HubEdges, {HP.headMask()});
  HybridGraph GH = HybridGraph::fromEdges(HubN, HubEdges, HP);
  FlatSnapshot FSC(GC);
  FlatGraphView FVC(FSC);
  HybridFlatSnapshot FSH(GH);
  FlatGraphView FVH(FSH);

  double MemC = double(GC.memoryBytes());
  double MemH = double(GH.memoryBytes());
  uint64_t TriC = 0, TriH = 0;
  double TC = benchTime(C.Rounds, [&] { TriC = triangleCount(FVC); });
  double TH = benchTime(C.Rounds, [&] { TriH = triangleCount(FVH); });
  if (TriC != TriH) {
    std::fprintf(stderr,
                 "FATAL: triangle counts disagree (chunked %llu, "
                 "hybrid %llu)\n",
                 (unsigned long long)TriC, (unsigned long long)TriH);
    return 1;
  }
  reportMetric("hybrid/memory/chunked_bytes", MemC);
  reportMetric("hybrid/memory/hybrid_bytes", MemH);
  reportMetric("hybrid/tri/chunked_s", TC);
  reportMetric("hybrid/tri/hybrid_s", TH);
  reportMetric("hybrid/tri/speedup", TC / TH);
  std::printf("  %-10s %12s %14s\n", "", "memory", "triangles");
  std::printf("  %-10s %12s %14s\n", "chunked", fmtBytes(MemC).c_str(),
              fmtTime(TC).c_str());
  std::printf("  %-10s %12s %14s%s\n", "hybrid", fmtBytes(MemH).c_str(),
              fmtTime(TH).c_str(),
              compareSuffix("hybrid/tri/hybrid_s", TH).c_str());
  std::printf("  triangleCount speedup: %.2fx (count %llu)\n", TC / TH,
              (unsigned long long)TriC);

  finishMetricTrail(CL);
  return 0;
}
