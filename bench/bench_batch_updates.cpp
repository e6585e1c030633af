//===- bench/bench_batch_updates.cpp - Table 8 and Figure 5 ----------------===//
//
// Reproduces Table 8 / Figure 5: throughput (directed edges per second) of
// parallel batch insertions and deletions with batch sizes 10 .. 10^7
// (10^8+ behind -huge), where inserted edges are sampled from the rMAT
// generator. Each batch is inserted and then deleted; the median of
// `rounds` trials is reported, and timings include sorting the batch and
// combining duplicates, as in the paper. Deleting the batch just inserted
// times where the insert left those keys, so a second delete row removes
// an independent batch of the base graph's own edges (drawn with
// replacement) from the base graph.
//
// Expected shape (paper): throughput grows by ~4 orders of magnitude from
// batches of 10 to 10^9, approaching memory bandwidth; deletions run
// within ~10% of insertions (Figure 5).
//
// Beyond the Table 8 curves, the trail records the within-shard ingest
// scaling rows: a skewed batch (1M edges into ONE vertex, and the same
// batch into a one-shard store) is timed under the full worker pool and
// again in sequential mode. These batches defeat shard- and vertex-level
// parallelism by construction, so their par/seq speedup isolates the
// parallel unionBC/diffBC group routing, the work-weighted pam forks, and
// the parallel mergeShard group builds (DESIGN.md §5).
//
// The hub rows grow one vertex of the base graph past degree 60K by
// 20-edge batches, on the C-tree graph and on the hybrid graph, and
// report the p50/p90 batch time over the last 500 batches: the cost of a
// small batch into a high-degree vertex, which should depend on the
// chunks the batch touches, not on the degree (DESIGN.md §6). They run in
// sequential mode: a 20-edge batch has no parallel work, and at several
// workers the fork overhead of the merge would hide the edge-set cost.
//
//   -json <path>    write every metric as flat JSON (BENCH_batch_updates.json)
//   -compare <path> annotate rows with before/after ratios vs a prior file
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "graph/graph.h"
#include "store/sharded_graph.h"
#include "util/hash.h"

using namespace aspen;

namespace {

void reportRow(const std::string &Key, double Value, const char *Unit) {
  recordMetric(Key, Value);
  std::printf("  %-40s %12s %s%s\n", Key.c_str(), fmtRate(Value).c_str(),
              Unit, compareSuffix(Key, Value).c_str());
}

/// 1M distinct-destination edges all sourced at one vertex: no vertex- or
/// shard-level parallelism exists in this batch by construction.
std::vector<EdgePair> hotVertexBatch(VertexId Hot, size_t K, VertexId N,
                                     uint64_t Seed) {
  std::vector<EdgePair> Out(K);
  for (size_t I = 0; I < K; ++I)
    Out[I] = {Hot, VertexId(hashAt(Seed, I) % N)};
  return Out;
}

/// Grow vertex \p Hub of \p Base to degree > \p Target by 20-edge
/// batches of new neighbors; return the batch times of the last
/// \p Tail batches (seconds).
template <class G>
std::vector<double> hubInsertTimes(G Base, VertexId Hub, uint64_t Target,
                                   size_t Tail) {
  const size_t K = 20;
  VertexId N = Base.numVertices();
  size_t Batches = size_t(Target / K) + 1;
  std::vector<double> Times;
  std::vector<EdgePair> Batch(K);
  for (size_t B = 0; B < Batches; ++B) {
    // Odd stride mod 2^k visits each destination once: every edge is new
    // unless the base graph already holds it.
    for (size_t I = 0; I < K; ++I)
      Batch[I] = {Hub, VertexId((uint64_t(B * K + I) * 40503 + 1) % N)};
    Timer T;
    Base = Base.insertEdges(Batch);
    double Dt = T.elapsed();
    if (B + Tail >= Batches)
      Times.push_back(Dt);
  }
  return Times;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchConfig C = parseBenchConfig(Argc, Argv, /*DefaultLogN=*/17);
  CommandLine CL(Argc, Argv);
  bool Huge = CL.has("huge");
  std::string ComparePath = CL.getString("compare");
  if (!ComparePath.empty() && !loadBenchBaseline(ComparePath))
    std::fprintf(stderr, "warning: cannot read -compare file %s\n",
                 ComparePath.c_str());
  BenchInput In = makeInput(C);
  printEnvironment();

  Graph Base = Graph::fromEdges(In.N, In.Edges);
  RMatGenerator Stream(C.LogN, C.Seed + 1000);

  std::printf(
      "\n== Table 8 / Figure 5: batch update throughput on %s ==\n",
      In.Name.c_str());
  std::printf("%-10s %16s %16s %16s %14s %14s\n", "Batch",
              "Insert (edges/s)", "Delete (edges/s)", "Del-base (e/s)",
              "Insert time", "Delete time");

  std::vector<uint64_t> Sizes = {10, 100, 1000, 10000, 100000, 1000000,
                                 10000000};
  if (Huge)
    Sizes.push_back(100000000);

  for (uint64_t BS : Sizes) {
    auto Batch = Stream.edges(0, BS);
    Graph WithBatch;
    double InsertT = benchTime(C.Rounds, [&] {
      WithBatch = Base.insertEdges(Batch);
    });
    double DeleteT = benchTime(C.Rounds, [&] {
      Graph After = WithBatch.deleteEdges(Batch);
      (void)After;
    });
    auto Existing = tabulate(size_t(BS), [&](size_t I) {
      return In.Edges[hashAt(C.Seed + BS, I) % In.Edges.size()];
    });
    double DeleteBaseT = benchTime(C.Rounds, [&] {
      Graph After = Base.deleteEdges(Existing);
      (void)After;
    });
    std::printf("%-10zu %16s %16s %16s %14s %14s\n", size_t(BS),
                fmtRate(double(BS) / InsertT).c_str(),
                fmtRate(double(BS) / DeleteT).c_str(),
                fmtRate(double(BS) / DeleteBaseT).c_str(),
                fmtTime(InsertT).c_str(), fmtTime(DeleteT).c_str());
    std::string Scope = "table8/" + std::to_string(BS);
    recordMetric(Scope + "/insert_eps", double(BS) / InsertT);
    recordMetric(Scope + "/delete_eps", double(BS) / DeleteT);
    recordMetric(Scope + "/delete_existing_eps", double(BS) / DeleteBaseT);
  }

  std::printf("\nFigure 5 series (log-log): the two columns above are the "
              "insertion (I) and deletion (D) curves.\n");

  //===------------------------------------------------------------------===
  // Skewed-batch ingest: worker scaling where only within-shard
  // parallelism can help.
  //===------------------------------------------------------------------===

  const size_t HotK = 1000000;
  auto Hot = hotVertexBatch(/*Hot=*/7, HotK, In.N, C.Seed + 77);

  std::printf("\n== skewed ingest: %zu edges into one vertex on %s "
              "(%d workers vs sequential) ==\n",
              HotK, In.Name.c_str(), numWorkers());

  {
    Graph Out;
    double ParT = benchTime(C.Rounds, [&] { Out = Base.insertEdges(Hot); });
    setSequentialMode(true);
    double SeqT = benchTime(C.Rounds, [&] {
      Graph S = Base.insertEdges(Hot);
      (void)S;
    });
    setSequentialMode(false);
    reportRow("skewed/onevertex/insert_par_eps", double(HotK) / ParT,
              "edges/s");
    reportRow("skewed/onevertex/insert_seq_eps", double(HotK) / SeqT,
              "edges/s");
    reportRow("skewed/onevertex/insert_speedup", SeqT / ParT, "x");

    double DParT = benchTime(C.Rounds, [&] {
      Graph D = Out.deleteEdges(Hot);
      (void)D;
    });
    setSequentialMode(true);
    double DSeqT = benchTime(C.Rounds, [&] {
      Graph D = Out.deleteEdges(Hot);
      (void)D;
    });
    setSequentialMode(false);
    reportRow("skewed/onevertex/delete_par_eps", double(HotK) / DParT,
              "edges/s");
    reportRow("skewed/onevertex/delete_seq_eps", double(HotK) / DSeqT,
              "edges/s");
    reportRow("skewed/onevertex/delete_speedup", DSeqT / DParT, "x");
  }

  std::printf("\n== skewed ingest: %zu-edge batch into a ONE-shard store "
              "==\n",
              HotK);

  {
    // A one-shard store sends the whole batch through a single mergeShard
    // call: shard-level parallelism is zero, so any speedup comes from
    // the within-shard machinery. Each round inserts then deletes the
    // batch, so the store returns to its base state between rounds.
    auto Mixed = Stream.edges(5 * HotK, HotK);
    ShardedGraphStore St(1, In.N, In.Edges);
    double ParT = benchTime(C.Rounds, [&] {
      St.insertBatch(Mixed);
      St.deleteBatch(Mixed);
    });
    setSequentialMode(true);
    double SeqT = benchTime(C.Rounds, [&] {
      St.insertBatch(Mixed);
      St.deleteBatch(Mixed);
    });
    setSequentialMode(false);
    double Edges = 2.0 * double(HotK); // insert + delete per round
    reportRow("skewed/oneshard/update_par_eps", Edges / ParT, "edges/s");
    reportRow("skewed/oneshard/update_seq_eps", Edges / SeqT, "edges/s");
    reportRow("skewed/oneshard/update_speedup", SeqT / ParT, "x");
  }

  //===------------------------------------------------------------------===
  // Small batches into one growing hub, C-tree vs hybrid edge sets.
  //===------------------------------------------------------------------===

  {
    const VertexId Hub = 3;
    uint64_t Target = std::min<uint64_t>(60000, In.N - 1);
    std::printf("\n== skewed ingest, sequential: 20-edge batches into one "
                "vertex growing to degree %llu (p50/p90 over the last "
                "500) ==\n",
                (unsigned long long)Target);
    HybridGraph BaseH = HybridGraph::fromEdges(In.N, In.Edges);
    auto Row = [&](const char *Rep, std::vector<double> Times) {
      std::string Scope = std::string("skewed/hub/") + Rep;
      double P50 = percentile(Times, 0.5), P90 = percentile(Times, 0.9);
      recordMetric(Scope + "/insert20_p50_s", P50);
      recordMetric(Scope + "/insert20_p90_s", P90);
      std::printf("  %-40s %12s %12s%s\n", Scope.c_str(),
                  fmtTime(P50).c_str(), fmtTime(P90).c_str(),
                  compareSuffix(Scope + "/insert20_p50_s", P50).c_str());
    };
    setSequentialMode(true);
    Row("ctree", hubInsertTimes(Base, Hub, Target, 500));
    Row("hybrid", hubInsertTimes(BaseH, Hub, Target, 500));
    setSequentialMode(false);
  }

  finishMetricTrail(CL);
  return 0;
}
