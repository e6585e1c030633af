//===- tests/serving_test.cpp - Serving layer: coalescing + admission -----===//
//
// The multi-tenant serving subsystem (src/serve/, DESIGN.md Section 8):
//
//  - Coalesced ingest is BYTE-IDENTICAL to one-at-a-time serialized
//    ingest (chunk-level: checkpoint serialization memcmp), including
//    through a server fed by concurrent writers and across a durable
//    close/reopen with per-batch WAL records inside coalesced installs.
//    A server installs the writes queued behind a busy worker as one
//    group per same-kind run.
//  - AdmissionQueueT: queue-full rejection, FIFO within a class,
//    weighted-fair scheduling under saturation, work conservation.
//  - SnapshotServerT: writes apply in submission order at any worker
//    count, a failed group install still finishes every batch, queries
//    under concurrent ingest see consistent epochs, overload sheds
//    instead of stalling, epoch lag is sampled at dequeue, no request
//    is lost to the poll-then-park wake path, stop() and drain() stay
//    exact while workers poll, park or shed, and a worker's own context
//    serves warm queries allocation-free. Tests that need a worker held
//    hold it with WorkerHold, since a query may run on its caller.
//  - Caller-run reads (both store types): a read at an all-parked server
//    runs on the submitting thread and is counted; one behind a held
//    write group is queued; one after an ack sees that epoch; after
//    stop() nothing runs; a throwing one frees the slot; one caller at
//    a time; drain() waits for it.
//  - acquireFlat() lock-free fast path: repeated hits on an unchanged
//    epoch are counted and all readers see the same flat; a write's
//    worker refreshes the flat and releases the one it superseded.
//
//===----------------------------------------------------------------------===//

#include "algorithms/bfs.h"
#include "gen/generators.h"
#include "serve/server.h"
#include "store/checkpoint.h"
#include "store/sharded_graph.h"
#include "util/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <dirent.h>
#include <future>
#include <memory>
#include <thread>
#include <unistd.h>

using namespace aspen;

namespace {

std::vector<EdgePair> randomBatch(VertexId N, size_t K, uint64_t Seed) {
  return dedupEdges(symmetrize(uniformRandomEdges(N, K, Seed)));
}

/// A batch whose sources all hash to shard 0 of an S-shard store — the
/// hot-shard writer stream the coalescing front exists for.
std::vector<EdgePair> oneShardBatch(VertexId N, size_t Shards, size_t K,
                                    uint64_t Seed) {
  std::vector<EdgePair> Out;
  uint64_t X = Seed * 0x9E3779B97F4A7C15ull + 1;
  auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  Out.reserve(K);
  for (size_t I = 0; I < K; ++I) {
    VertexId Src = VertexId((Next() % (N / Shards)) * Shards); // shard 0
    VertexId Dst = VertexId(Next() % N);
    Out.push_back({Src, Dst});
  }
  return dedupEdges(std::move(Out));
}

/// Chunk-level bytes of every shard (checkpoint serialization is
/// chunk-verbatim for C-tree sets).
template <class Store>
std::vector<std::vector<uint8_t>> storeBytes(Store &S) {
  auto R = S.acquire();
  std::vector<std::vector<uint8_t>> Out(R.numShards());
  for (size_t Sh = 0; Sh < R.numShards(); ++Sh)
    serializeSnapshot(R.shard(Sh), Out[Sh]);
  return Out;
}

struct TempDir {
  std::string P;
  TempDir() {
    char Buf[] = "/tmp/aspen-serve-XXXXXX";
    const char *R = ::mkdtemp(Buf);
    EXPECT_NE(R, nullptr);
    P = Buf;
  }
  ~TempDir() {
    if (DIR *D = ::opendir(P.c_str())) {
      while (struct dirent *E = ::readdir(D)) {
        std::string N = E->d_name;
        if (N != "." && N != "..")
          (void)::unlink((P + "/" + N).c_str());
      }
      ::closedir(D);
      (void)::rmdir(P.c_str());
    }
  }
};

/// Holds \p Held workers of a server in queries that block until
/// release(), whatever the timing. Each blocking query is submitted from
/// its own helper thread. A query submitted to an idle server takes the
/// caller slot and blocks its helper instead of a worker, so queries are
/// added until \p Held of them run on workers; there is one caller slot,
/// so that takes at most Held + 1 queries.
template <class Server> class WorkerHold {
public:
  WorkerHold(Server &Srv, size_t Held) : Open(Gate.get_future().share()) {
    while (OnWorkers < Held) {
      std::atomic<int> &St = States.emplace_back(Pending);
      Helpers.emplace_back([&Srv, &St, Open = Open] {
        const std::thread::id Me = std::this_thread::get_id();
        bool Ok = Srv.submitQuery([&St, Me, Open](auto &) {
          St.store(std::this_thread::get_id() == Me ? OnCaller : OnWorker);
          Open.wait();
        });
        if (!Ok)
          St.store(Shed);
      });
      int S;
      while ((S = St.load()) == Pending)
        std::this_thread::yield();
      EXPECT_NE(S, Shed) << "a blocking query was shed";
      if (S == Shed)
        return;
      OnWorkers += S == OnWorker;
    }
  }
  ~WorkerHold() { release(); }

  /// Open the gate: every blocking query returns.
  void release() {
    if (!Released) {
      Released = true;
      Gate.set_value();
    }
    for (std::thread &T : Helpers)
      if (T.joinable())
        T.join();
  }

  /// Blocking queries submitted, the one on the caller slot included.
  size_t queries() const { return States.size(); }

private:
  enum { Pending, OnCaller, OnWorker, Shed };
  std::promise<void> Gate;
  std::shared_future<void> Open;
  std::deque<std::atomic<int>> States;
  std::vector<std::thread> Helpers;
  size_t OnWorkers = 0;
  bool Released = false;
};

} // namespace

//===----------------------------------------------------------------------===
// Coalescing byte identity.
//===----------------------------------------------------------------------===

TEST(ServeCoalesce, ApplySpansMatchesOneAtATime) {
  const VertexId N = 1 << 10;
  const size_t Shards = 4;
  // A mixed schedule: runs of inserts and deletes. Coalescing may only
  // merge same-kind runs, so the grouped store splits each run into
  // spans of up to 3 batches.
  std::vector<std::pair<bool, std::vector<EdgePair>>> Sched;
  for (int I = 0; I < 5; ++I)
    Sched.push_back({true, randomBatch(N, 700, 100 + I)});
  Sched.push_back({false, Sched[1].second}); // delete a prior batch
  Sched.push_back({false, randomBatch(N, 400, 200)}); // partly absent
  for (int I = 0; I < 4; ++I)
    Sched.push_back({true, randomBatch(N, 500, 300 + I)});
  Sched.push_back({false, randomBatch(N, 300, 400)});

  ShardedGraphStore Serial(Shards, N), Grouped(Shards, N);
  for (auto &B : Sched)
    B.first ? Serial.insertBatch(B.second) : Serial.deleteBatch(B.second);

  for (size_t I = 0; I < Sched.size();) {
    size_t J = I;
    while (J < Sched.size() && Sched[J].first == Sched[I].first &&
           J - I < 3)
      ++J;
    std::vector<EdgeSpan> Spans;
    for (size_t K = I; K < J; ++K)
      Spans.push_back({Sched[K].second.data(), Sched[K].second.size()});
    Grouped.applySpans(Spans.data(), Spans.size(), Sched[I].first);
    I = J;
  }

  EXPECT_EQ(Serial.batchSeq(), Sched.size());
  EXPECT_EQ(Grouped.batchSeq(), Sched.size());
  auto A = storeBytes(Serial), B = storeBytes(Grouped);
  ASSERT_EQ(A.size(), B.size());
  for (size_t Sh = 0; Sh < A.size(); ++Sh) {
    ASSERT_EQ(A[Sh].size(), B[Sh].size()) << "shard " << Sh;
    EXPECT_EQ(std::memcmp(A[Sh].data(), B[Sh].data(), A[Sh].size()), 0)
        << "shard " << Sh;
  }
}

TEST(ServeCoalesce, PrepareCommitSplitMatchesDirectApply) {
  const VertexId N = 1 << 9;
  ShardedGraphStore A(4, N), B(4, N);
  auto B1 = oneShardBatch(N, 4, 400, 1);
  auto B2 = oneShardBatch(N, 4, 400, 2);
  auto B3 = oneShardBatch(N, 4, 300, 3);
  A.insertBatch(B1);
  A.insertBatch(B2);
  A.insertBatch(B3);

  // Pipelined split: prepare the second group while nothing holds the
  // locks, then commit both in order.
  std::vector<EdgeSpan> G1{{B1.data(), B1.size()}, {B2.data(), B2.size()}};
  auto P1 = B.prepareSpans(G1.data(), G1.size(), true);
  std::vector<EdgeSpan> G2{{B3.data(), B3.size()}};
  auto P2 = B.prepareSpans(G2.data(), G2.size(), true);
  EXPECT_EQ(B.commitPrepared(std::move(P1)), 2u);
  EXPECT_EQ(B.commitPrepared(std::move(P2)), 3u);

  auto BA = storeBytes(A), BB = storeBytes(B);
  for (size_t Sh = 0; Sh < BA.size(); ++Sh)
    EXPECT_EQ(BA[Sh], BB[Sh]) << "shard " << Sh;
}

TEST(ServeCoalesce, IngestFrontConcurrentInsertIdentity) {
  const VertexId N = 1 << 10;
  const size_t Shards = 4, Writers = 4, PerWriter = 12;
  // Insert-only workload: set union is order-independent, so the final
  // state must match a sequential reference regardless of interleaving.
  std::vector<std::vector<EdgePair>> Batches;
  for (size_t W = 0; W < Writers; ++W)
    for (size_t I = 0; I < PerWriter; ++I)
      Batches.push_back(oneShardBatch(N, Shards, 300, 7 * W + 100 * I + 1));

  ShardedGraphStore Ref(Shards, N);
  for (auto &B : Batches)
    Ref.insertBatch(B);

  ShardedGraphStore S(Shards, N);
  using Server = SnapshotServerT<ShardedGraphStore>;
  Server::Options O;
  O.Workers = 2;
  Server Srv(S, O);
  std::vector<std::thread> Ts;
  for (size_t W = 0; W < Writers; ++W)
    Ts.emplace_back([&, W] {
      for (size_t I = 0; I < PerWriter; ++I)
        EXPECT_TRUE(Srv.submitInsert(Batches[W * PerWriter + I]));
    });
  for (auto &T : Ts)
    T.join();
  Srv.drain();

  EXPECT_EQ(S.batchSeq(), Batches.size());
  auto St = Srv.stats();
  EXPECT_EQ(St.WriteErrors, 0u);
  EXPECT_EQ(St.Front.Submitted, Batches.size());
  EXPECT_LE(St.Front.Installs, St.Front.Submitted);
  EXPECT_GE(St.Front.MaxGroup, 1u);
  EXPECT_LE(St.Front.MaxGroup, IngestFrontT<ShardedGraphStore>::MaxCoalesce);

  auto A = storeBytes(Ref), B = storeBytes(S);
  for (size_t Sh = 0; Sh < A.size(); ++Sh)
    EXPECT_EQ(A[Sh], B[Sh]) << "shard " << Sh;
}

TEST(ServeCoalesce, ServerCoalescesQueuedWrites) {
  const VertexId N = 512;
  ShardedGraphStore S(2, N), Ref(2, N);
  auto B1 = randomBatch(N, 300, 21);
  auto B2 = randomBatch(N, 200, 22);
  auto B3 = randomBatch(N, 100, 23);
  auto B4 = randomBatch(N, 150, 24);
  Ref.insertBatch(B1);
  Ref.insertBatch(B2);
  Ref.insertBatch(B3);
  Ref.deleteBatch(B2);
  Ref.insertBatch(B4);

  using Server = SnapshotServerT<ShardedGraphStore>;
  Server::Options O;
  O.Workers = 1;
  Server Srv(S, O);
  // Hold the only worker in a query while I I I D I queue behind it.
  WorkerHold<Server> Hold(Srv, 1);
  ASSERT_TRUE(Srv.submitInsert(B1));
  ASSERT_TRUE(Srv.submitInsert(B2));
  ASSERT_TRUE(Srv.submitInsert(B3));
  ASSERT_TRUE(Srv.submitDelete(B2));
  ASSERT_TRUE(Srv.submitInsert(B4));
  Hold.release();
  Srv.drain();

  // One install per same-kind run: {B1 B2 B3}, {-B2}, {B4}.
  auto St = Srv.stats().Front;
  EXPECT_EQ(St.Submitted, 5u);
  EXPECT_EQ(St.Installs, 3u);
  EXPECT_EQ(St.MaxGroup, 3u);
  EXPECT_EQ(S.batchSeq(), 5u);
  auto A = storeBytes(Ref), B = storeBytes(S);
  for (size_t Sh = 0; Sh < A.size(); ++Sh)
    EXPECT_EQ(A[Sh], B[Sh]) << "shard " << Sh;
}

TEST(ServeCoalesce, IngestFrontMixedKindsKeepFIFO) {
  const VertexId N = 512;
  ShardedGraphStore S(2, N), Ref(2, N);
  IngestFrontT<ShardedGraphStore> Front(S);
  auto B1 = randomBatch(N, 800, 1);
  auto B2 = randomBatch(N, 500, 2);
  EXPECT_EQ(Front.insertBatch(B1), 1u);
  EXPECT_EQ(Front.insertBatch(B2), 2u);
  EXPECT_EQ(Front.deleteBatch(B1), 3u);
  EXPECT_EQ(Front.insertBatch(B1), 4u);
  Ref.insertBatch(B1);
  Ref.insertBatch(B2);
  Ref.deleteBatch(B1);
  Ref.insertBatch(B1);
  auto A = storeBytes(Ref), B = storeBytes(S);
  for (size_t Sh = 0; Sh < A.size(); ++Sh)
    EXPECT_EQ(A[Sh], B[Sh]) << "shard " << Sh;
}

TEST(ServeCoalesce, DurableCoalescedInstallReplays) {
  const VertexId N = 512;
  TempDir D;
  DurabilityOptions O;
  O.Dir = D.P;
  O.FsyncOnCommit = false;
  auto B1 = randomBatch(N, 600, 11);
  auto B2 = randomBatch(N, 400, 12);
  auto B3 = randomBatch(N, 300, 13);
  std::vector<std::vector<uint8_t>> Before;
  {
    ShardedGraphStore S(O, 4, N);
    // One coalesced install of three batches: three WAL records, one
    // epoch, BatchSeq 3.
    std::vector<EdgeSpan> G{{B1.data(), B1.size()},
                            {B2.data(), B2.size()},
                            {B3.data(), B3.size()}};
    EXPECT_EQ(S.applySpans(G.data(), G.size(), true), 3u);
    EXPECT_EQ(S.batchSeq(), 3u);
    Before = storeBytes(S);
  }
  {
    // Recovery replays the WAL batch-per-epoch; the acknowledged state
    // must come back byte-identical with the same sequence number.
    ShardedGraphStore S(O, 4, N);
    EXPECT_EQ(S.batchSeq(), 3u);
    auto After = storeBytes(S);
    ASSERT_EQ(Before.size(), After.size());
    for (size_t Sh = 0; Sh < Before.size(); ++Sh)
      EXPECT_EQ(Before[Sh], After[Sh]) << "shard " << Sh;
  }
}

//===----------------------------------------------------------------------===
// Admission control.
//===----------------------------------------------------------------------===

TEST(ServeAdmission, RejectsWhenFull) {
  AdmissionQueueT<int> Q({/*ReadCap=*/2, /*WriteCap=*/1});
  EXPECT_TRUE(Q.tryPush(RequestClass::Read, 1));
  EXPECT_TRUE(Q.tryPush(RequestClass::Read, 2));
  EXPECT_FALSE(Q.tryPush(RequestClass::Read, 3)); // shed
  EXPECT_TRUE(Q.tryPush(RequestClass::Write, 10));
  EXPECT_FALSE(Q.tryPush(RequestClass::Write, 11)); // shed
  auto St = Q.stats();
  EXPECT_EQ(St.AdmittedReads, 2u);
  EXPECT_EQ(St.ShedReads, 1u);
  EXPECT_EQ(St.AdmittedWrites, 1u);
  EXPECT_EQ(St.ShedWrites, 1u);
  // Admitted work drains FIFO within its class even after stop().
  Q.stop();
  EXPECT_FALSE(Q.tryPush(RequestClass::Read, 4));
  std::vector<int> Reads;
  int Writes = 0;
  while (auto R = Q.pop())
    (R->first == RequestClass::Read ? (void)Reads.push_back(R->second)
                                    : (void)++Writes);
  EXPECT_EQ(Reads, (std::vector<int>{1, 2}));
  EXPECT_EQ(Writes, 1);
}

TEST(ServeAdmission, WeightedFairUnderSaturation) {
  const unsigned RPW = AdmissionQueueT<int>::ReadsPerWrite;
  AdmissionQueueT<int> Q({/*ReadCap=*/256, /*WriteCap=*/64});
  for (int I = 0; I < 64; ++I)
    ASSERT_TRUE(Q.tryPush(RequestClass::Read, I));
  for (int I = 0; I < 8; ++I)
    ASSERT_TRUE(Q.tryPush(RequestClass::Write, 1000 + I));
  // With both classes saturated, the pop pattern is RPW reads : 1 write
  // — a query flood cannot starve ingest.
  for (int Round = 0; Round < 8; ++Round) {
    for (unsigned I = 0; I < RPW; ++I) {
      auto R = Q.pop();
      ASSERT_TRUE(R.has_value());
      EXPECT_EQ(R->first, RequestClass::Read) << "round " << Round;
    }
    auto W = Q.pop();
    ASSERT_TRUE(W.has_value());
    EXPECT_EQ(W->first, RequestClass::Write) << "round " << Round;
    EXPECT_EQ(W->second, 1000 + Round); // writes drain FIFO
  }
}

TEST(ServeAdmission, WorkConservingWhenOneClassIdle) {
  AdmissionQueueT<int> Q({16, 16});
  // Writes only: served back-to-back, no read credit throttling.
  for (int I = 0; I < 6; ++I)
    ASSERT_TRUE(Q.tryPush(RequestClass::Write, I));
  for (int I = 0; I < 6; ++I) {
    auto R = Q.pop();
    ASSERT_TRUE(R.has_value());
    EXPECT_EQ(R->first, RequestClass::Write);
    EXPECT_EQ(R->second, I);
  }
  // Reads only: credit is not charged while no write waits, so a later
  // write doesn't inherit a stale exhausted credit.
  for (int I = 0; I < 16; ++I)
    ASSERT_TRUE(Q.tryPush(RequestClass::Read, I));
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(Q.pop()->first, RequestClass::Read);
}

//===----------------------------------------------------------------------===
// Server end-to-end.
//===----------------------------------------------------------------------===

TEST(ServeServer, QueriesUnderConcurrentIngest) {
  const VertexId N = 1 << 10;
  HybridShardedGraphStore Store(4, N, randomBatch(N, 4000, 5));
  SnapshotServer::Options O;
  O.Workers = 4;
  O.ReadQueueCap = 4096;
  O.WriteQueueCap = 256;
  SnapshotServer Server(Store, O);

  std::atomic<uint64_t> Inconsistent{0};
  size_t Queries = 200, Writes = 40;
  for (size_t I = 0; I < Writes; ++I) {
    ASSERT_TRUE(Server.submitInsert(randomBatch(N, 200, 1000 + I)));
    for (size_t Q = 0; Q < Queries / Writes; ++Q)
      ASSERT_TRUE(Server.submitQuery([&](auto &QC) {
        // Epoch consistency: the pinned tree epoch and the pinned flat
        // epoch each sum degrees to their own epoch's edge count.
        auto &R = QC.snapshot();
        auto V = R.view();
        uint64_t Sum = 0;
        for (VertexId U = 0; U < N; ++U)
          Sum += V.degree(U);
        if (Sum != R.numEdges())
          Inconsistent.fetch_add(1);
        auto F = QC.flat();
        auto FV = F->view();
        uint64_t FSum = 0;
        for (VertexId U = 0; U < N; ++U)
          FSum += FV.degree(U);
        if (FSum != F->NumEdges)
          Inconsistent.fetch_add(1);
      }));
  }
  Server.drain();
  auto St = Server.stats();
  EXPECT_EQ(Inconsistent.load(), 0u);
  EXPECT_EQ(St.QueriesDone, Queries);
  EXPECT_EQ(St.WritesDone, Writes);
  EXPECT_EQ(St.QueryErrors, 0u);
  EXPECT_EQ(St.WriteErrors, 0u);
  EXPECT_EQ(St.Front.Submitted, Writes);
  EXPECT_EQ(Store.batchSeq(), Writes);
  Server.stop();
}

TEST(ServeServer, OverloadShedsInsteadOfStalling) {
  const VertexId N = 256;
  HybridShardedGraphStore Store(2, N);
  SnapshotServer::Options O;
  O.Workers = 1;
  O.ReadQueueCap = 2;
  O.WriteQueueCap = 1;
  SnapshotServer Server(Store, O);

  // Saturate the single worker: hold it, then offer slow queries. A busy
  // worker keeps them off the caller slot, so the bounded queue must
  // shed the excess synchronously (no blocking, no collapse).
  WorkerHold<SnapshotServer> Hold(Server, 1);
  std::atomic<int> Running{0};
  size_t Accepted = 0, Shed = 0;
  for (int I = 0; I < 64; ++I) {
    bool Ok = Server.submitQuery([&](auto &) {
      ++Running;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    Ok ? ++Accepted : ++Shed;
  }
  EXPECT_GT(Shed, 0u);
  EXPECT_EQ(Running.load(), 0); // none ran on this thread
  Hold.release();
  Server.drain();
  auto St = Server.stats();
  EXPECT_EQ(St.QueriesDone, Accepted + Hold.queries());
  EXPECT_EQ(St.Admission.ShedReads, Shed);
  EXPECT_EQ(size_t(Running.load()), Accepted);
  Server.stop();
}

TEST(ServeServer, WarmWorkerQueriesAreAllocationFree) {
  // A query runs on the worker's own context or, at an idle server, on
  // the caller slot's. Each context caches every BFS workspace block
  // after its first query, so later queries on it miss nothing (perfbench
  // reports the same quantity as memory.ctx_misses).
  const VertexId N = 1 << 10;
  HybridShardedGraphStore Store(2, N, randomBatch(N, 4000, 3));
  SnapshotServer::Options O;
  O.Workers = 1;
  SnapshotServer Server(Store, O);

  const size_t Queries = 8;
  const std::thread::id Me = std::this_thread::get_id();
  std::vector<uint64_t> Misses(Queries);
  std::vector<bool> OnCaller(Queries);
  std::vector<std::vector<VertexId>> Parents(Queries);
  for (size_t I = 0; I < Queries; ++I) {
    ASSERT_TRUE(Server.submitQuery([&, I](auto &QC) {
      OnCaller[I] = std::this_thread::get_id() == Me;
      uint64_t M0 = QC.ctx().missCount();
      Parents[I] = bfs(QC.flat()->view(), 0, QC.ctx());
      Misses[I] = QC.ctx().missCount() - M0;
    }));
    Server.drain();
  }
  bool Used[2] = {false, false}; // worker context, caller context
  for (size_t I = 0; I < Queries; ++I) {
    bool &First = Used[OnCaller[I]];
    if (!First) // cold: the first query on a context fills it
      EXPECT_GT(Misses[I], 0u) << "query " << I;
    else
      EXPECT_EQ(Misses[I], 0u) << "query " << I;
    First = true;
    EXPECT_EQ(Parents[I].size(), Parents[0].size());
  }
  EXPECT_EQ(Server.stats().CallerReads,
            size_t(std::count(OnCaller.begin(), OnCaller.end(), true)));
  EXPECT_EQ(Server.stats().QueryErrors, 0u);
  EXPECT_EQ(Server.stats().SessionWaits, 0u);
  Server.stop();
}

TEST(ServeServer, EpochLagIsSampledAtDequeue) {
  const VertexId N = 256;
  HybridShardedGraphStore Store(2, N);
  SnapshotServer::Options O;
  O.Workers = 2;
  SnapshotServer Server(Store, O);

  // A query is admitted and dequeued by one worker at batch sequence 0,
  // then blocks while the other worker installs a batch: that install
  // happens during its execution, not while it queued, so it adds no lag.
  WorkerHold<SnapshotServer> Hold(Server, 1);
  ASSERT_TRUE(Server.submitInsert(randomBatch(N, 16, 7)));
  while (Store.batchSeq() == 0)
    std::this_thread::yield();
  Hold.release();
  Server.drain();
  auto St = Server.stats();
  EXPECT_EQ(St.QueriesDone, Hold.queries());
  EXPECT_EQ(St.QueriesDone - St.CallerReads, 1u); // one ran on a worker
  EXPECT_EQ(St.EpochLagSum, 0u);
  EXPECT_EQ(St.EpochLagMax, 0u);
  Server.stop();
}

TEST(ServeServer, WritesApplyInSubmissionOrder) {
  // Each pair inserts an edge and then deletes it, with nothing drained
  // between pairs: four workers race for the queued writes, and a delete
  // installed before its insert would leave the edge behind.
  const VertexId N = 1024;
  const size_t Rounds = 40, Pairs = 500;
  HybridShardedGraphStore Store(4, N);
  SnapshotServer::Options O;
  O.Workers = 4;
  O.WriteQueueCap = 2 * Pairs;
  SnapshotServer Server(Store, O);
  for (size_t R = 0; R < Rounds; ++R) {
    for (size_t I = 0; I < Pairs; ++I) {
      EdgePair E{VertexId(I), VertexId((I + 1 + R) % N)};
      ASSERT_TRUE(Server.submitInsert({E}));
      ASSERT_TRUE(Server.submitDelete({E}));
    }
    Server.drain();
    ASSERT_EQ(Store.acquire().numEdges(), 0u) << "round " << R;
  }
  auto St = Server.stats();
  EXPECT_EQ(St.WriteErrors, 0u);
  EXPECT_EQ(Store.batchSeq(), Rounds * 2 * Pairs);
  Server.stop();
}

TEST(ServeServer, FailedGroupInstallReleasesWriteClass) {
  const VertexId N = 256;
  TempDir D;
  DurabilityOptions DO;
  DO.Dir = D.P;
  DO.FsyncOnCommit = false;
  ShardedGraphStore Store(DO, 2, N);
  using Server = SnapshotServerT<ShardedGraphStore>;
  Server::Options O;
  O.Workers = 1;
  Server Srv(Store, O);
  // Queue I I I D behind a held worker; the first group's WAL append
  // crashes, so its install throws.
  WorkerHold<Server> Hold(Srv, 1);
  for (uint64_t I = 0; I < 3; ++I)
    ASSERT_TRUE(Srv.submitInsert(randomBatch(N, 16, 40 + I)));
  ASSERT_TRUE(Srv.submitDelete(randomBatch(N, 16, 40)));
  FailpointGuard G("wal.enqueue.before", FailAction::crash());
  Hold.release();
  Srv.drain();
  // Every batch of the failed group counts as an error and finishes, and
  // the delete group is still taken afterwards.
  auto St = Srv.stats();
  EXPECT_EQ(St.WritesDone, 4u);
  EXPECT_GE(St.WriteErrors, 3u);
  EXPECT_EQ(St.Front.Installs, 2u);
  EXPECT_EQ(St.Front.MaxGroup, 3u);
  Srv.stop();
}

namespace {

/// Busy-wait (with yields) for \p Us microseconds: sleep_for overshoots
/// gaps this short.
void pauseFor(std::chrono::microseconds Us) {
  auto End = std::chrono::steady_clock::now() + Us;
  while (std::chrono::steady_clock::now() < End)
    std::this_thread::yield();
}

} // namespace

TEST(ServeServer, NoLostWakeupAcrossSpinWindow) {
  using Queue = AdmissionQueueT<int>;
  const std::chrono::microseconds Gaps[] = {
      std::chrono::microseconds(0), Queue::SpinWindow / 2,
      Queue::SpinWindow * 2, std::chrono::microseconds(5000)};
  const VertexId N = 256;
  for (size_t Producers = 1; Producers <= 4; ++Producers) {
    HybridShardedGraphStore Store(2, N);
    SnapshotServer::Options O;
    O.Workers = 2;
    SnapshotServer Server(Store, O);
    const size_t Each = 24;
    std::atomic<uint64_t> Reads{0}, Admitted{0};
    std::vector<std::thread> Ts;
    for (size_t P = 0; P < Producers; ++P)
      Ts.emplace_back([&, P] {
        uint64_t X = 0x9E3779B97F4A7C15ull * (P + 1) + Producers;
        for (size_t I = 0; I < Each; ++I) {
          X ^= X << 13;
          X ^= X >> 7;
          X ^= X << 17;
          pauseFor(Gaps[X % 4]);
          bool Ok = (X >> 8) % 3 == 0
                        ? Server.submitInsert(randomBatch(N, 8, X))
                        : Server.submitQuery([&](auto &) { ++Reads; });
          if (Ok)
            ++Admitted;
        }
      });
    for (auto &T : Ts)
      T.join();
    // Every admitted request completes without another arrival to wake
    // a worker for it.
    auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    auto Done = [&] {
      auto St = Server.stats();
      return St.QueriesDone + St.WritesDone;
    };
    while (Done() < Admitted.load() &&
           std::chrono::steady_clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    ASSERT_EQ(Done(), Admitted.load()) << Producers << " producers";
    EXPECT_EQ(Admitted.load(), Producers * Each);
    Server.drain();
    auto St = Server.stats();
    EXPECT_EQ(St.QueriesDone, Reads.load());
    EXPECT_EQ(St.QueryErrors + St.WriteErrors, 0u);
    Server.stop();
  }
}

TEST(ServeServer, StopWhilePollingAndParkedServesAdmitted) {
  using Queue = AdmissionQueueT<int>;
  const std::chrono::microseconds Delays[] = {
      std::chrono::microseconds(0), Queue::SpinWindow / 2,
      Queue::SpinWindow * 2};
  const VertexId N = 256;
  for (auto Delay : Delays) {
    HybridShardedGraphStore Store(2, N);
    SnapshotServer::Options O;
    O.Workers = 2;
    SnapshotServer Server(Store, O);
    // After one served query, its worker polls and the other is parked.
    std::atomic<int> Ran{0};
    ASSERT_TRUE(Server.submitQuery([&](auto &) { ++Ran; }));
    while (Ran.load() == 0)
      std::this_thread::yield();
    pauseFor(Delay);
    const int More = 8;
    for (int I = 0; I < More; ++I)
      ASSERT_TRUE(Server.submitQuery([&](auto &) { ++Ran; }));
    ASSERT_TRUE(Server.submitInsert(randomBatch(N, 8, 3)));
    auto T0 = std::chrono::steady_clock::now();
    Server.stop();
    auto Took = std::chrono::steady_clock::now() - T0;
    EXPECT_LT(Took, std::chrono::seconds(2)) << Delay.count() << " us";
    EXPECT_EQ(Ran.load(), 1 + More) << Delay.count() << " us";
    EXPECT_EQ(Server.stats().WritesDone, 1u);
    EXPECT_EQ(Store.batchSeq(), 1u);
    // Stopped: nothing more is admitted.
    EXPECT_FALSE(Server.submitQuery([](auto &) {}));
  }
  // An idle queue's poppers (one polling, one parked) return at once.
  Queue Q;
  std::vector<std::thread> Poppers;
  for (int I = 0; I < 2; ++I)
    Poppers.emplace_back([&] { EXPECT_FALSE(Q.pop().has_value()); });
  pauseFor(Queue::SpinWindow / 4);
  Q.stop();
  for (auto &T : Poppers)
    T.join();
}

TEST(ServeServer, DrainIsExactWhileRequestsShed) {
  const VertexId N = 256;
  HybridShardedGraphStore Store(2, N);
  SnapshotServer::Options O;
  O.Workers = 1;
  O.ReadQueueCap = 2;
  O.WriteQueueCap = 1;
  SnapshotServer Server(Store, O);

  std::atomic<uint64_t> Admitted{0}, Shed{0};
  std::atomic<bool> Producing{true}, Draining{false};
  std::vector<std::thread> Ts;
  for (int P = 0; P < 3; ++P)
    Ts.emplace_back([&, P] {
      while (!Draining.load())
        std::this_thread::yield();
      auto End = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(100);
      for (int I = 0; std::chrono::steady_clock::now() < End; ++I) {
        bool Ok = P == 0 && I % 8 == 0
                      ? Server.submitInsert(randomBatch(N, 4, I))
                      : Server.submitQuery([](auto &) {
                          pauseFor(std::chrono::microseconds(50));
                        });
        ++(Ok ? Admitted : Shed);
      }
    });
  // Each drain() returns only once every request admitted before it
  // began has finished, even while rolled-back sheds move the count.
  uint64_t Drains = 0, Early = 0;
  std::thread Drainer([&] {
    Draining.store(true);
    do {
      uint64_t Before = Admitted.load();
      Server.drain();
      auto St = Server.stats();
      Early += St.QueriesDone + St.WritesDone < Before;
      ++Drains;
    } while (Producing.load());
  });
  for (auto &T : Ts)
    T.join();
  Producing.store(false);
  Drainer.join();
  Server.drain();
  auto St = Server.stats();
  EXPECT_GT(Shed.load(), 0u);
  EXPECT_GT(Drains, 0u);
  EXPECT_EQ(Early, 0u);
  EXPECT_EQ(St.QueriesDone + St.WritesDone, Admitted.load());
  EXPECT_EQ(St.Admission.ShedReads + St.Admission.ShedWrites, Shed.load());
  Server.stop();
}

//===----------------------------------------------------------------------===
// Caller-run reads: a read submitted to an idle server runs on the
// submitting thread.
//===----------------------------------------------------------------------===

namespace {

/// A store whose applySpans() (the server's only install call) can be
/// held at its entry, so a test controls when a worker holds a write
/// group.
template <class Base> class GatedStore : public Base {
public:
  using Base::Base;

  uint64_t applySpans(const EdgeSpan *Spans, size_t N, bool Insert) {
    if (Armed.exchange(false)) {
      Entered.store(true);
      Open.wait();
    }
    return Base::applySpans(Spans, N, Insert);
  }

  /// Hold the next install at its entry until open() is called.
  void arm() { Armed.store(true); }
  bool entered() const { return Entered.load(); }
  void open() { Gate.set_value(); }

private:
  std::atomic<bool> Armed{false}, Entered{false};
  std::promise<void> Gate;
  std::shared_future<void> Open{Gate.get_future().share()};
};

/// Submit reads from this thread, each after an idle gap far past the
/// spin window (so every worker parks), until one runs on this thread.
/// Every read runs \p Body(QC, OnCaller). Returns how many reads were
/// submitted; 0 if none ran on this thread within 10 s.
template <class Server, class Fn> size_t submitUntilOnCaller(Server &Srv,
                                                             Fn Body) {
  const std::thread::id Me = std::this_thread::get_id();
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (size_t N = 1; std::chrono::steady_clock::now() < Deadline; ++N) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::atomic<int> Where{0}; // 1 = this thread, 2 = a worker
    EXPECT_TRUE(Srv.submitQuery([&](auto &QC) {
      bool OnCaller = std::this_thread::get_id() == Me;
      Where.store(OnCaller ? 1 : 2);
      Body(QC, OnCaller);
    }));
    int AtReturn = Where.load();
    Srv.drain(); // a worker's writes in Body are visible after this
    if (Where.load() == 1) {
      EXPECT_EQ(AtReturn, 1); // it ran before submitQuery returned
      return N;
    }
  }
  ADD_FAILURE() << "no read ran on the submitting thread";
  return 0;
}

} // namespace

template <class Store> class ServeCallerRead : public ::testing::Test {};
using CallerReadStores =
    ::testing::Types<ShardedGraphStore, HybridShardedGraphStore>;
TYPED_TEST_SUITE(ServeCallerRead, CallerReadStores);

TYPED_TEST(ServeCallerRead, IdleServerRunsReadOnSubmittingThread) {
  using Server = SnapshotServerT<TypeParam>;
  const VertexId N = 512;
  TypeParam Store(2, N, randomBatch(N, 2000, 51));
  typename Server::Options O;
  O.Workers = 2;
  Server Srv(Store, O);
  uint64_t Edges = 0;
  size_t Reads = submitUntilOnCaller(Srv, [&](auto &QC, bool OnCaller) {
    if (OnCaller)
      Edges = QC.flat()->NumEdges;
  });
  ASSERT_GT(Reads, 0u);
  EXPECT_EQ(Edges, Store.acquire().numEdges());
  auto St = Srv.stats();
  EXPECT_EQ(St.QueriesDone, Reads);
  EXPECT_EQ(St.Admission.AdmittedReads, Reads);
  EXPECT_EQ(St.CallerReads, 1u);
  EXPECT_EQ(St.QueryErrors, 0u);
  EXPECT_EQ(St.EpochLagMax, 0u);
  Srv.stop();
}

TYPED_TEST(ServeCallerRead, ReadBehindHeldWriteGroupIsQueued) {
  using Gated = GatedStore<TypeParam>;
  using Server = SnapshotServerT<Gated>;
  const VertexId N = 512;
  Gated Store(2, N);
  typename Server::Options O;
  O.Workers = 2;
  Server Srv(Store, O);
  // One worker holds a write group; the other is idle, so the read is
  // not run here but queued, and that worker serves it.
  Store.arm();
  ASSERT_TRUE(Srv.submitInsert(randomBatch(N, 16, 52)));
  while (!Store.entered())
    std::this_thread::yield();
  const std::thread::id Me = std::this_thread::get_id();
  std::atomic<int> Ran{0}; // 1 = here, 2 = on a worker
  ASSERT_TRUE(Srv.submitQuery([&](auto &) {
    Ran.store(std::this_thread::get_id() == Me ? 1 : 2);
  }));
  EXPECT_NE(Ran.load(), 1);
  while (Ran.load() == 0)
    std::this_thread::yield();
  EXPECT_EQ(Ran.load(), 2);
  EXPECT_EQ(Store.batchSeq(), 0u); // the group is still held
  Store.open();
  Srv.drain();
  auto St = Srv.stats();
  EXPECT_EQ(St.CallerReads, 0u);
  EXPECT_EQ(St.QueriesDone, 1u);
  EXPECT_EQ(St.WritesDone, 1u);
  EXPECT_EQ(Store.batchSeq(), 1u);
  Srv.stop();
}

TYPED_TEST(ServeCallerRead, ReadAfterAckSeesThatEpoch) {
  using Server = SnapshotServerT<TypeParam>;
  const VertexId N = 512;
  TypeParam Store(2, N, randomBatch(N, 2000, 53));
  (void)Store.acquireFlat(); // live: every install's writer refreshes it
  typename Server::Options O;
  O.Workers = 2;
  Server Srv(Store, O);
  uint64_t Stale = 0, Mismatched = 0;
  for (uint64_t K = 1; K <= 4; ++K) {
    ASSERT_TRUE(Srv.submitInsert(randomBatch(N, 40, 60 + K)));
    while (Store.batchSeq() < K) // the acknowledgement
      std::this_thread::yield();
    ASSERT_GT(submitUntilOnCaller(Srv,
                                  [&](auto &QC, bool) {
                                    const auto &R = QC.snapshot();
                                    const auto &F = QC.flat();
                                    Stale += R.batchSeq() < K;
                                    Stale += F->BatchSeq < K;
                                    Mismatched +=
                                        F->BatchSeq == R.batchSeq() &&
                                        F->NumEdges != R.numEdges();
                                  }),
              0u);
  }
  EXPECT_EQ(Stale, 0u);
  EXPECT_EQ(Mismatched, 0u);
  EXPECT_EQ(Srv.stats().CallerReads, 4u);
  Srv.stop();
}

TYPED_TEST(ServeCallerRead, SubmitAfterStopRunsNothing) {
  using Server = SnapshotServerT<TypeParam>;
  const VertexId N = 256;
  TypeParam Store(2, N);
  typename Server::Options O;
  O.Workers = 2;
  Server Srv(Store, O);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Srv.stop();
  bool Ran = false;
  EXPECT_FALSE(Srv.submitQuery([&](auto &) { Ran = true; }));
  EXPECT_FALSE(Ran);
  Srv.drain(); // nothing in flight
  auto St = Srv.stats();
  EXPECT_EQ(St.QueriesDone, 0u);
  EXPECT_EQ(St.CallerReads, 0u);
  EXPECT_EQ(St.Admission.AdmittedReads, 0u);
}

TYPED_TEST(ServeCallerRead, ThrowingCallerReadCountsAndFreesSlot) {
  using Server = SnapshotServerT<TypeParam>;
  const VertexId N = 256;
  TypeParam Store(2, N);
  typename Server::Options O;
  O.Workers = 2;
  Server Srv(Store, O);
  size_t First = submitUntilOnCaller(Srv, [](auto &, bool OnCaller) {
    if (OnCaller)
      throw std::runtime_error("query failed");
  });
  ASSERT_GT(First, 0u);
  auto St = Srv.stats();
  EXPECT_EQ(St.QueryErrors, 1u);
  EXPECT_EQ(St.CallerReads, 1u);
  EXPECT_EQ(St.QueriesDone, First);
  // The slot was given back: a later read runs on the caller again.
  size_t Second = submitUntilOnCaller(Srv, [](auto &, bool) {});
  ASSERT_GT(Second, 0u);
  St = Srv.stats();
  EXPECT_EQ(St.QueryErrors, 1u);
  EXPECT_EQ(St.CallerReads, 2u);
  EXPECT_EQ(St.QueriesDone, First + Second);
  Srv.stop();
}

TYPED_TEST(ServeCallerRead, OneCallerReadAtATime) {
  using Server = SnapshotServerT<TypeParam>;
  const VertexId N = 256;
  TypeParam Store(2, N);
  typename Server::Options O;
  O.Workers = 2;
  Server Srv(Store, O);

  // Deterministic: while one thread's read holds the caller slot, another
  // thread's reads are queued to the workers.
  std::promise<void> Gate;
  std::shared_future<void> Open(Gate.get_future());
  std::atomic<bool> Holding{false};
  std::thread Holder([&] {
    submitUntilOnCaller(Srv, [&](auto &, bool OnCaller) {
      if (OnCaller) {
        Holding.store(true);
        Open.wait();
      }
    });
  });
  while (!Holding.load())
    std::this_thread::yield();
  const std::thread::id Me = std::this_thread::get_id();
  std::atomic<int> Here{0}, Done{0};
  for (int I = 0; I < 8; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(Srv.submitQuery([&](auto &) {
      Here += std::this_thread::get_id() == Me;
      ++Done;
    }));
  }
  while (Done.load() < 8)
    std::this_thread::yield();
  EXPECT_EQ(Here.load(), 0);
  Gate.set_value();
  Holder.join();
  Srv.drain();
  uint64_t CallerBefore = Srv.stats().CallerReads;
  EXPECT_EQ(CallerBefore, 1u);

  // Stress: four submitters with idle gaps either side of the spin
  // window; at most one read runs on a caller at a time, and at most
  // Workers + 1 reads run at once.
  std::atomic<int> OnCallerNow{0}, MaxOnCaller{0}, RunningNow{0},
      MaxRunning{0};
  std::atomic<uint64_t> CallerRuns{0};
  auto Raise = [](std::atomic<int> &Max, int V) {
    int Prev = Max.load();
    while (V > Prev && !Max.compare_exchange_weak(Prev, V))
      ;
  };
  std::vector<std::thread> Ts;
  for (int P = 0; P < 4; ++P)
    Ts.emplace_back([&, P] {
      const std::thread::id Self = std::this_thread::get_id();
      uint64_t X = 0x9E3779B97F4A7C15ull * (P + 1);
      for (int I = 0; I < 40; ++I) {
        X ^= X << 13;
        X ^= X >> 7;
        X ^= X << 17;
        pauseFor(std::chrono::microseconds(X % 1500));
        EXPECT_TRUE(Srv.submitQuery([&](auto &) {
          bool Mine = std::this_thread::get_id() == Self;
          Raise(MaxRunning, ++RunningNow);
          if (Mine) {
            Raise(MaxOnCaller, ++OnCallerNow);
            ++CallerRuns;
          }
          pauseFor(std::chrono::microseconds(200));
          if (Mine)
            --OnCallerNow;
          --RunningNow;
        }));
      }
    });
  for (auto &T : Ts)
    T.join();
  Srv.drain();
  EXPECT_LE(MaxOnCaller.load(), 1);
  EXPECT_LE(MaxRunning.load(), int(O.Workers) + 1);
  auto St = Srv.stats();
  EXPECT_EQ(St.CallerReads - CallerBefore, CallerRuns.load());
  EXPECT_EQ(St.QueriesDone, St.Admission.AdmittedReads);
  Srv.stop();
}

TYPED_TEST(ServeCallerRead, DrainWaitsForCallerRead) {
  using Server = SnapshotServerT<TypeParam>;
  const VertexId N = 256;
  TypeParam Store(2, N);
  typename Server::Options O;
  O.Workers = 2;
  Server Srv(Store, O);
  std::promise<void> Gate;
  std::shared_future<void> Open(Gate.get_future());
  std::atomic<bool> Holding{false}, Finished{false};
  std::thread Caller([&] {
    submitUntilOnCaller(Srv, [&](auto &, bool OnCaller) {
      if (OnCaller) {
        Holding.store(true);
        Open.wait();
        Finished.store(true);
      }
    });
  });
  while (!Holding.load())
    std::this_thread::yield();
  std::atomic<bool> Drained{false};
  std::thread Drainer([&] {
    Srv.drain();
    EXPECT_TRUE(Finished.load());
    Drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Drained.load());
  Gate.set_value();
  Drainer.join();
  Caller.join();
  EXPECT_TRUE(Drained.load());
  EXPECT_EQ(Srv.stats().CallerReads, 1u);
  Srv.stop();
}

//===----------------------------------------------------------------------===
// Lock-free flat fast path.
//===----------------------------------------------------------------------===

TEST(ServeFlat, FastPathHitsOnUnchangedEpoch) {
  const VertexId N = 1 << 10;
  ShardedGraphStore Store(4, N, randomBatch(N, 3000, 9));
  auto F0 = Store.acquireFlat(); // cold: rebuild
  const size_t Threads = 4, Iters = 50;
  std::atomic<uint64_t> Mismatches{0};
  std::vector<std::thread> Ts;
  for (size_t T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      for (size_t I = 0; I < Iters; ++I) {
        auto F = Store.acquireFlat();
        if (F.get() != F0.get()) // unchanged epoch: same cached object
          Mismatches.fetch_add(1);
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
  auto St = Store.flatStats();
  EXPECT_EQ(St.Rebuilds, 1u);
  EXPECT_EQ(St.Refreshes, 0u);
  EXPECT_EQ(St.Hits, Threads * Iters);
  // The batch's writer refreshes the flat, so the acquires after it hit.
  Store.insertBatch(randomBatch(N, 100, 10));
  auto F1 = Store.acquireFlat();
  EXPECT_NE(F1.get(), F0.get());
  EXPECT_EQ(Store.acquireFlat().get(), F1.get());
  St = Store.flatStats();
  EXPECT_EQ(St.Refreshes + St.Rebuilds, 2u);
  EXPECT_EQ(St.Hits, Threads * Iters + 2);
}

TEST(ServeFlat, WriterReleasesSupersededFlatAfterItsAck) {
  const VertexId N = 1 << 10;
  ShardedGraphStore Store(4, N, randomBatch(N, 3000, 11));
  std::weak_ptr<const ShardedGraphStore::FlatEpoch> Prev =
      Store.acquireFlat();
  SnapshotServerT<ShardedGraphStore>::Options O;
  O.Workers = 1;
  SnapshotServerT<ShardedGraphStore> Server(Store, O);
  ASSERT_TRUE(Server.submitInsert(randomBatch(N, 40, 12)));
  Server.drain();
  // The write's worker refreshed the flat after the batch was published
  // and released the one it superseded; no query ran to do either.
  EXPECT_EQ(Store.batchSeq(), 1u);
  EXPECT_TRUE(Prev.expired());
  std::atomic<uint64_t> PinnedSeq{0};
  ASSERT_TRUE(Server.submitQuery([&](auto &QC) {
    PinnedSeq.store(QC.flat()->BatchSeq); // a hit on the refreshed flat
  }));
  Server.drain();
  EXPECT_EQ(PinnedSeq.load(), 1u);
  auto St = Store.flatStats();
  EXPECT_EQ(St.Rebuilds, 1u);
  EXPECT_EQ(St.Refreshes, 1u);
  EXPECT_EQ(St.Hits, 1u);
  Server.stop();
}

TEST(ServeFlat, SingleShardFastPathHits) {
  const VertexId N = 512;
  ShardedGraphStore Store(1, N, randomBatch(N, 2000, 3));
  auto F0 = Store.acquireFlat();
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Store.acquireFlat().get(), F0.get());
  auto St = Store.flatStats();
  EXPECT_EQ(St.Rebuilds, 1u);
  EXPECT_EQ(St.Hits, 10u);
  Store.insertBatch(randomBatch(N, 20, 4)); // its writer refreshes
  auto F1 = Store.acquireFlat();
  EXPECT_NE(F1.get(), F0.get());
  St = Store.flatStats();
  EXPECT_EQ(St.Refreshes, 1u);
}
