//===- examples/streaming_analytics.cpp - Concurrent updates + queries ----===//
//
// The paper's headline scenario (Section 7.3): a writer thread ingests a
// live stream of edge updates while analytics queries run concurrently on
// consistent snapshots, never blocking each other. The store runs with
// one shard: the paper's single version list over one graph.
//
//   ./examples/streaming_analytics [-scale 14] [-batches 50]
//
//===----------------------------------------------------------------------===//

#include "algorithms/bfs.h"
#include "algorithms/cc.h"
#include "gen/generators.h"
#include "memory/algo_context.h"
#include "store/sharded_graph.h"
#include "util/command_line.h"
#include "util/timer.h"

#include <cstdio>
#include <thread>

using namespace aspen;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  int LogN = int(CL.getInt("scale", 14));
  int Batches = int(CL.getInt("batches", 50));
  const VertexId N = VertexId(1) << LogN;
  const size_t BatchSize = 2000;

  // Start from a moderately dense rMAT graph.
  ShardedGraphStore Store(1, N, rmatGraphEdges(LogN, 4, 1));
  std::printf("initial graph: %u vertices, %llu edges\n", N,
              static_cast<unsigned long long>(Store.acquire().numEdges()));

  // Writer: streams rMAT update batches.
  std::atomic<bool> Done{false};
  std::thread Writer([&] {
    RMatGenerator Stream(LogN, 777);
    Timer T;
    for (int B = 0; B < Batches; ++B) {
      auto Raw = Stream.edges(uint64_t(B) * BatchSize, BatchSize);
      Store.insertBatch(symmetrize(Raw));
    }
    double S = T.elapsed();
    std::printf("[writer] %d batches of %zu updates in %.3fs "
                "(%.0f directed edges/sec)\n",
                Batches, 2 * BatchSize, S,
                double(Batches) * 2 * BatchSize / S);
    Done.store(true);
  });

  // Reader: repeatedly measures reachability from vertex 0 on the most
  // recent snapshot. Each query runs on an immutable version, so the
  // writer never blocks it and it never sees a half-applied batch. The
  // reader owns an AlgoContext workspace, so after the first query its
  // BFS runs perform no heap allocation in the analytics layer.
  AlgoContext Ctx;
  uint64_t Queries = 0;
  uint64_t LastReached = 0;
  while (!Done.load()) {
    auto V = Store.acquire();
    FlatSnapshot FS(V.shard(0));
    FlatGraphView FV(FS);
    auto Dist = bfsDistances(FV, 0, Ctx);
    uint64_t Reached = 0;
    for (uint32_t D : Dist)
      Reached += (D != ~0u) ? 1 : 0;
    LastReached = Reached;
    ++Queries;
  }
  Writer.join();
  std::printf("[reader] workspace misses over %llu queries: %llu "
              "(steady state: 0 per query)\n",
              static_cast<unsigned long long>(Queries),
              static_cast<unsigned long long>(Ctx.missCount()));

  auto Final = Store.acquire();
  std::printf("[reader] ran %llu BFS queries concurrently; "
              "final reachable set: %llu of %u vertices\n",
              static_cast<unsigned long long>(Queries),
              static_cast<unsigned long long>(LastReached), N);
  std::printf("final graph: %llu edges across %llu versions published\n",
              static_cast<unsigned long long>(Final.numEdges()),
              static_cast<unsigned long long>(Final.batchSeq()));
  return 0;
}
