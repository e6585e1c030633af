//===- examples/snapshot_server.cpp - Multi-tenant serving walkthrough ----===//
//
// The serving layer end to end (DESIGN.md Section 8): a SnapshotServer
// over a hybrid sharded store, several tenants submitting analytics
// queries, and a writer streaming update batches — all through the
// admission queue. Demonstrates:
//
//   - queries running on their worker's own AlgoContext with per-query
//     snapshot pins (each sees one consistent epoch; the context is
//     reused allocation-free), or, when every worker is parked, on the
//     submitting tenant's thread before submitQuery returns,
//   - writer batches queued behind an install coalescing into one group,
//   - load shedding: offered load beyond the queue bound is rejected
//     up front instead of growing an unbounded backlog,
//   - the final stats lines: admitted/shed, reads run on their caller,
//     epoch lag, coalesced groups.
//
//   ./example_snapshot_server [-scale 13] [-tenants 4] [-queries 200]
//                             [-batches 50] [-batchsize 2000]
//
//===----------------------------------------------------------------------===//

#include "algorithms/bfs.h"
#include "gen/generators.h"
#include "serve/server.h"
#include "util/command_line.h"
#include "util/timer.h"

#include <atomic>
#include <cstdio>
#include <thread>

using namespace aspen;

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  int LogN = int(CL.getInt("scale", 13));
  size_t Tenants = size_t(CL.getInt("tenants", 4));
  size_t QueriesPer = size_t(CL.getInt("queries", 200));
  size_t Batches = size_t(CL.getInt("batches", 50));
  size_t BatchSize = size_t(CL.getInt("batchsize", 2000));
  const VertexId N = VertexId(1) << LogN;

  HybridShardedGraphStore Store(8, N, rmatGraphEdges(LogN, 6, 1));
  std::printf("store: %u vertices, %llu edges, %zu shards (hybrid)\n", N,
              static_cast<unsigned long long>(Store.acquire().numEdges()),
              Store.numShards());

  SnapshotServer::Options O;
  O.Workers = 4;
  O.ReadQueueCap = 512;
  O.WriteQueueCap = 64;
  SnapshotServer Server(Store, O);

  Timer Wall;

  // The writer streams batches through the admission queue; a full write
  // queue sheds (the writer retries), so ingest backpressure is visible
  // to the producer instead of accumulating silently.
  std::thread Writer([&] {
    RMatGenerator Stream(LogN, 777);
    for (size_t B = 0; B < Batches; ++B) {
      auto Batch = symmetrize(Stream.edges(B * BatchSize, BatchSize));
      while (!Server.submitInsert(Batch))
        std::this_thread::yield();
    }
  });

  // Tenants: each runs its queries through the shared worker pool. A
  // query pins one flat epoch (lock-free when the cache is current) and
  // runs BFS from a tenant-specific source on its worker's context. At
  // an idle server it runs inside submitQuery on the tenant's thread, so
  // a query must never wait for what its tenant does after submitting.
  std::vector<std::atomic<uint64_t>> Reached(Tenants);
  std::vector<std::thread> Ts;
  for (size_t T = 0; T < Tenants; ++T)
    Ts.emplace_back([&, T] {
      for (size_t Q = 0; Q < QueriesPer; ++Q) {
        bool Ok = Server.submitQuery([&, T, Q](auto &QC) {
          auto F = QC.flat();
          auto Dist =
              bfsDistances(F->view(), VertexId((T * 131 + Q) % N), QC.ctx());
          uint64_t R = 0;
          for (uint32_t D : Dist)
            R += (D != ~0u) ? 1 : 0;
          Reached[T].store(R);
        });
        if (!Ok) // shed: the read queue is full — back off and retry
          std::this_thread::yield();
      }
    });

  for (auto &T : Ts)
    T.join();
  Writer.join();
  Server.drain();
  auto St = Server.stats();
  Server.stop();

  std::printf("[%.2fs] served %llu queries, %llu write batches\n",
              Wall.elapsed(),
              static_cast<unsigned long long>(St.QueriesDone),
              static_cast<unsigned long long>(St.WritesDone));
  for (size_t T = 0; T < Tenants; ++T)
    std::printf("  tenant %zu: last BFS reached %llu vertices\n", T,
                static_cast<unsigned long long>(Reached[T].load()));
  std::printf("admission: %llu/%llu reads admitted (%llu shed), "
              "%llu/%llu writes admitted (%llu shed)\n",
              static_cast<unsigned long long>(St.Admission.AdmittedReads),
              static_cast<unsigned long long>(St.Admission.AdmittedReads +
                                              St.Admission.ShedReads),
              static_cast<unsigned long long>(St.Admission.ShedReads),
              static_cast<unsigned long long>(St.Admission.AdmittedWrites),
              static_cast<unsigned long long>(St.Admission.AdmittedWrites +
                                              St.Admission.ShedWrites),
              static_cast<unsigned long long>(St.Admission.ShedWrites));
  std::printf("caller-run reads: %llu (submitted while every worker was "
              "parked)\n",
              static_cast<unsigned long long>(St.CallerReads));
  std::printf("ingest front: %llu batches in %llu installs (max group "
              "%llu); epoch lag mean %.2f max %llu\n",
              static_cast<unsigned long long>(St.Front.Submitted),
              static_cast<unsigned long long>(St.Front.Installs),
              static_cast<unsigned long long>(St.Front.MaxGroup),
              St.QueriesDone ? double(St.EpochLagSum) / double(St.QueriesDone)
                             : 0.0,
              static_cast<unsigned long long>(St.EpochLagMax));
  std::printf("final epoch: %llu batches, %llu edges\n",
              static_cast<unsigned long long>(Store.batchSeq()),
              static_cast<unsigned long long>(
                  Store.acquire().numEdges()));
  return 0;
}
