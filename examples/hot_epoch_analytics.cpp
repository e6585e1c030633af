//===- examples/hot_epoch_analytics.cpp - Flat views on hot epochs --------===//
//
// The streaming scenario flat snapshots exist for: a writer thread
// ingests batches into the sharded store while an analytics reader
// re-runs PageRank and BFS after every few batches on acquireFlat() —
// the store-maintained hot flat snapshot, which each batch's writer
// refreshes in O(touched) work from its merge's slots right after the
// batch is acknowledged, rather than rebuilt O(n) from scratch per epoch
// (DESIGN.md Section 4). The final stats line shows the split: one
// rebuild (the reader's first call), one refresh per batch after it,
// and the reader's hits.
//
//   ./example_hot_epoch_analytics [-scale 14] [-batches 60]
//                                 [-batchsize 150] [-paceus 3000]
//
// The stream is paced (the paper's low-latency regime: updates arrive
// over time, they are not replayed at memory speed).
//
//===----------------------------------------------------------------------===//

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "gen/generators.h"
#include "memory/algo_context.h"
#include "store/sharded_graph.h"
#include "util/command_line.h"
#include "util/timer.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

using namespace aspen;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  int LogN = int(CL.getInt("scale", 14));
  int Batches = int(CL.getInt("batches", 60));
  size_t BatchSize = size_t(CL.getInt("batchsize", 150));
  int PaceUs = int(CL.getInt("paceus", 3000));
  const VertexId N = VertexId(1) << LogN;

  ShardedGraphStore Store(4, N, rmatGraphEdges(LogN, 4, 1));
  std::printf("initial graph: %u vertices, %llu edges, %zu shards\n", N,
              static_cast<unsigned long long>(Store.acquire().numEdges()),
              Store.numShards());

  std::atomic<bool> Done{false};
  std::thread Writer([&] {
    RMatGenerator Stream(LogN, 777);
    Timer T;
    for (int B = 0; B < Batches; ++B) {
      auto Raw = Stream.edges(uint64_t(B) * BatchSize, BatchSize);
      Store.insertBatch(symmetrize(Raw));
      if (PaceUs > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(PaceUs));
    }
    double S = T.elapsed();
    std::printf("[writer] %d batches of %zu updates in %.3fs "
                "(%.0f directed edges/sec)\n",
                Batches, 2 * BatchSize, S,
                double(Batches) * 2 * double(BatchSize) / S);
    Done.store(true);
  });

  // Reader: every iteration acquires the hot flat epoch (O(1) vertex
  // access for the traversals below; caught up incrementally when the
  // writer has moved on) and runs PageRank + BFS on it. The AlgoContext
  // keeps steady-state queries allocation-free.
  AlgoContext Ctx;
  uint64_t Queries = 0;
  uint64_t LastSeq = ~0ull;
  uint64_t LastReached = 0;
  double LastPr = 0;
  while (!Done.load()) {
    auto FE = Store.acquireFlat();
    auto FV = FE->view();
    auto Pr = pageRank(FV, Ctx, /*MaxIters=*/5);
    auto Dist = bfsDistances(FV, 0, Ctx);
    uint64_t Reached = 0;
    for (uint32_t D : Dist)
      Reached += (D != ~0u) ? 1 : 0;
    LastReached = Reached;
    LastPr = Pr[0];
    LastSeq = FE->BatchSeq;
    ++Queries;
  }
  Writer.join();

  auto Final = Store.acquireFlat();
  auto Stats = Store.flatStats();
  std::printf("[reader] %llu PageRank+BFS rounds on hot flat epochs "
              "(last: epoch %llu, %llu reachable, pr[0]=%.3g)\n",
              static_cast<unsigned long long>(Queries),
              static_cast<unsigned long long>(LastSeq),
              static_cast<unsigned long long>(LastReached), LastPr);
  std::printf("[reader] flat maintenance: %llu refreshes, %llu rebuilds, "
              "%llu cache hits; workspace misses: %llu\n",
              static_cast<unsigned long long>(Stats.Refreshes),
              static_cast<unsigned long long>(Stats.Rebuilds),
              static_cast<unsigned long long>(Stats.Hits),
              static_cast<unsigned long long>(Ctx.missCount()));
  std::printf("final epoch %llu: %llu edges\n",
              static_cast<unsigned long long>(Final->BatchSeq),
              static_cast<unsigned long long>(Final->NumEdges));
  return 0;
}
