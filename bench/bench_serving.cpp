//===- bench/bench_serving.cpp - Multi-tenant snapshot serving ------------===//
//
// The serving subsystem end to end (DESIGN.md Section 8): how much a
// contended same-shard writer stream gains from coalesced installs,
// what sustained query throughput looks like
// while a writer streams batches (latency percentiles, epoch lag,
// coalescing behavior), and that overload degrades to load shedding with
// bounded latency for admitted queries rather than collapse.
//
// Reported rows:
//   serve/coalesce/*        4-writer hot-shard ingest: coalesced installs
//                           vs serialized one-batch-at-a-time (acceptance:
//                           >= 1.5x); front_* submit through a 2-worker
//                           server
//   serve/qps/<store>/*     sustained queries/sec under concurrent ingest
//                           with p50/p99/p999 latency and epoch lag, on
//                           the default hybrid store and on chunked
//   serve/overload/*        shed fraction + admitted-query p99 when
//                           offered load far exceeds capacity
//   serve/handoff/*         after an idle gap of 20 us .. 20 ms (either
//                           side of the admission queue's spin window):
//                           gap_* submit -> query start for one query at
//                           a time (at an idle server it runs on the
//                           submitting thread), write_gap_* submit ->
//                           publish of a 1-edge insert (always a worker's
//                           wake); each series starts with one
//                           acknowledged write, and gap_*/caller_frac is
//                           the share of its reads that ran on the
//                           submitting thread; and the idle server's CPU
//                           share once traffic stops (its poller parks)
//
//   -json <path>    write every metric as flat JSON (BENCH_serving.json)
//   -compare <path> annotate rows with before/after ratios vs a prior file
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "serve/server.h"
#include "util/hash.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <time.h>

using namespace aspen;

namespace {

void reportValue(const std::string &Key, double V, const char *Unit) {
  recordMetric(Key, V);
  std::printf("  %-44s %12.4g %s%s\n", Key.c_str(), V, Unit,
              compareSuffix(Key, V).c_str());
}

void reportTime(const std::string &Key, double Seconds) {
  recordMetric(Key, Seconds);
  std::printf("  %-44s %12s%s\n", Key.c_str(), fmtTime(Seconds).c_str(),
              compareSuffix(Key, Seconds).c_str());
}

/// Batches that all land on shard 0 of an S-shard store: the contended
/// writer stream that coalesced installs target.
std::vector<std::vector<EdgePair>> hotShardBatches(VertexId N, size_t Shards,
                                                   size_t NumBatches,
                                                   size_t BatchSize,
                                                   uint64_t Seed) {
  std::vector<std::vector<EdgePair>> Out(NumBatches);
  for (size_t B = 0; B < NumBatches; ++B) {
    Out[B].reserve(BatchSize);
    for (size_t I = 0; I < BatchSize; ++I) {
      uint64_t H = hash64(Seed + B * BatchSize + I);
      VertexId Src = VertexId((H % (N / Shards)) * Shards); // shard 0
      VertexId Dst = VertexId((H >> 24) % N);
      Out[B].push_back({Src, Dst});
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===
// Section A: writer coalescing vs serialized ingest.
//===----------------------------------------------------------------------===

void benchCoalesce(const BenchConfig &C) {
  const VertexId N = VertexId(1) << C.LogN;
  const size_t Shards = 8, Writers = 4;
  const size_t PerWriter = 12, BatchSize = 20000;
  auto Batches =
      hotShardBatches(N, Shards, Writers * PerWriter, BatchSize, C.Seed);
  double TotalEdges = double(Batches.size()) * double(BatchSize);

  std::printf("\n== same-shard ingest: %zu writers x %zu batches x %zu "
              "edges ==\n",
              Writers, PerWriter, BatchSize);

  // Serialized baseline: one batch at a time through the shard locks —
  // what a convoy of direct store calls does.
  auto RunSerialized = [&] {
    ShardedGraphStore S(Shards, N);
    for (const auto &B : Batches)
      S.insertBatch(B);
  };

  // Coalesced installs: the same stream in groups of `Writers` merged
  // spans — what the server's writer installs when the 4 writers'
  // batches queue up behind an install. One tree-merge pass over the
  // hot shard per group instead of per batch.
  auto RunCoalesced = [&] {
    ShardedGraphStore S(Shards, N);
    for (size_t G = 0; G < Batches.size(); G += Writers) {
      std::vector<EdgeSpan> Spans;
      for (size_t I = G; I < std::min(G + Writers, Batches.size()); ++I)
        Spans.push_back({Batches[I].data(), Batches[I].size()});
      S.applySpans(Spans.data(), Spans.size(), /*Insert=*/true);
    }
  };

  // The live path: 4 client threads submitting to a 2-worker server.
  // The worker holding the write class installs the same-kind batches
  // queued behind it as one group, so group formation depends on clients
  // queueing batches while an install runs.
  uint64_t Installs = 0, MaxGroup = 0, Coalesced = 0;
  auto RunFront = [&] {
    ShardedGraphStore S(Shards, N);
    SnapshotServerT<ShardedGraphStore>::Options O;
    O.Workers = 2;
    SnapshotServerT<ShardedGraphStore> Server(S, O);
    std::vector<std::thread> Ts;
    for (size_t W = 0; W < Writers; ++W)
      Ts.emplace_back([&, W] {
        for (size_t B = 0; B < PerWriter; ++B)
          while (!Server.submitInsert(Batches[W * PerWriter + B]))
            std::this_thread::yield();
      });
    for (auto &T : Ts)
      T.join();
    Server.drain();
    auto St = Server.stats().Front;
    Installs = St.Installs;
    MaxGroup = St.MaxGroup;
    Coalesced = St.Coalesced;
  };

  double TSer = benchTime(C.Rounds, RunSerialized);
  double TCoal = benchTime(C.Rounds, RunCoalesced);
  double TFront = benchTime(C.Rounds, RunFront);

  reportValue("serve/coalesce/serialized_edges_per_s", TotalEdges / TSer,
              "edges/s");
  reportValue("serve/coalesce/coalesced_edges_per_s", TotalEdges / TCoal,
              "edges/s");
  reportValue("serve/coalesce/front_edges_per_s", TotalEdges / TFront,
              "edges/s");
  auto ReportX = [&](const char *Key, double V) {
    recordMetric(Key, V);
    std::printf("  %-44s %11.2fx%s\n", Key, V,
                compareSuffix(Key, V).c_str());
  };
  ReportX("serve/coalesce/speedup_vs_serialized", TSer / TCoal);
  ReportX("serve/coalesce/front_speedup_vs_serialized", TSer / TFront);
  reportValue("serve/coalesce/front_installs", double(Installs), "groups");
  reportValue("serve/coalesce/front_batches_coalesced", double(Coalesced),
              "batches");
  reportValue("serve/coalesce/front_max_group", double(MaxGroup),
              "batches");
}

//===----------------------------------------------------------------------===
// Section B: sustained query throughput under concurrent ingest.
//===----------------------------------------------------------------------===

template <class Store>
void benchServing(const char *StoreName, const BenchConfig &C) {
  const VertexId N = VertexId(1) << C.LogN;
  const size_t Shards = 8;
  Store S(Shards, N, rmatGraphEdges(C.LogN, C.EdgeFactor, C.Seed));

  typename SnapshotServerT<Store>::Options O;
  O.Workers = size_t(std::max(2, numWorkers() - 1));
  O.ReadQueueCap = 1 << 14;
  O.WriteQueueCap = 256;
  SnapshotServerT<Store> Server(S, O);

  const size_t Tenants = 4, QueriesPer = 20000;
  const size_t WriteBatch = 5000;
  const double RunSeconds = 2.0;

  std::printf("\n== sustained serving (%s): %zu workers, %zu tenants, "
              "writer streaming %zu-edge batches ==\n",
              StoreName, O.Workers, Tenants, WriteBatch);

  // Per-query latency samples: slot-addressed, no locking in the hot path.
  std::vector<double> Latency(Tenants * QueriesPer, -1.0);
  std::vector<std::atomic<uint64_t>> TenantDone(Tenants);
  for (auto &D : TenantDone)
    D.store(0);
  std::atomic<bool> StopWriter{false};
  std::atomic<uint64_t> WriterBatches{0};

  std::thread Writer([&] {
    RMatGenerator Stream(C.LogN, C.Seed + 77);
    uint64_t At = 0;
    while (!StopWriter.load(std::memory_order_acquire)) {
      while (!Server.submitInsert(Stream.edges(At, WriteBatch)))
        std::this_thread::yield();
      At += WriteBatch;
      WriterBatches.fetch_add(1, std::memory_order_relaxed);
    }
  });

  Timer Wall;
  std::vector<std::thread> TenantTs;
  std::atomic<uint64_t> Submitted{0};
  for (size_t T = 0; T < Tenants; ++T)
    TenantTs.emplace_back([&, T] {
      // Closed-loop tenant: issue a neighborhood-analytics query (1-hop
      // walk from a source plus a strided degree sweep over the flat
      // rendering), wait for it to complete, repeat. Sustained QPS is
      // what the server actually completes per second at 4 concurrent
      // tenants; latency is submission-to-completion under the
      // weighted-fair scheduler while the writer streams.
      for (size_t I = 0;
           I < QueriesPer && Wall.elapsed() < RunSeconds; ++I) {
        size_t Slot = T * QueriesPer + I;
        VertexId Src = VertexId(hash64(Slot) % N);
        Timer QT;
        bool Ok = Server.submitQuery([&, T, Slot, Src, QT](auto &QC) {
          auto F = QC.flat();
          auto V = F->view();
          uint64_t Sum = V.degree(Src);
          V.mapNeighbors(Src, [&](VertexId U) { Sum += V.degree(U); });
          // Strided edge-list sweep: decodes real adjacency (where the
          // edge-set representation earns or loses its keep).
          for (VertexId U = Src % 64; U < N; U += 64)
            V.mapNeighbors(U, [&](VertexId X) { Sum += X; });
          (void)Sum;
          Latency[Slot] = QT.elapsed();
          TenantDone[T].fetch_add(1, std::memory_order_release);
        });
        if (!Ok) {
          std::this_thread::yield();
          --I;
          continue;
        }
        Submitted.fetch_add(1, std::memory_order_relaxed);
        while (TenantDone[T].load(std::memory_order_acquire) <= I)
          std::this_thread::yield();
      }
    });
  for (auto &T : TenantTs)
    T.join();
  // Stop the writer before draining: drain() waits for a moment with no
  // in-flight requests, which never comes while a writer streams.
  StopWriter.store(true, std::memory_order_release);
  Writer.join();
  Server.drain();
  double Elapsed = Wall.elapsed();
  auto St = Server.stats();
  Server.stop();

  std::vector<double> Lat;
  Lat.reserve(Latency.size());
  for (double L : Latency)
    if (L >= 0.0)
      Lat.push_back(L);

  std::string P = std::string("serve/qps/") + StoreName;
  reportValue(P + "/queries_per_s", double(St.QueriesDone) / Elapsed,
              "q/s");
  reportTime(P + "/latency_p50_s", percentile(Lat, 0.50));
  reportTime(P + "/latency_p99_s", percentile(Lat, 0.99));
  reportTime(P + "/latency_p999_s", percentile(Lat, 0.999));
  reportValue(P + "/writer_batches_per_s",
              double(WriterBatches.load()) / Elapsed, "batches/s");
  reportValue(P + "/epoch_lag_mean",
              St.QueriesDone
                  ? double(St.EpochLagSum) / double(St.QueriesDone)
                  : 0.0,
              "batches");
  reportValue(P + "/epoch_lag_max", double(St.EpochLagMax), "batches");
  reportValue(P + "/front_installs", double(St.Front.Installs), "groups");
  reportValue(P + "/front_coalesced", double(St.Front.Coalesced),
              "batches");
  reportValue(P + "/session_waits", double(St.SessionWaits), "waits");
}

//===----------------------------------------------------------------------===
// Section C: overload — shed, don't collapse.
//===----------------------------------------------------------------------===

void benchOverload(const BenchConfig &C) {
  const VertexId N = VertexId(1) << (C.LogN - 2);
  HybridShardedGraphStore S(
      4, N, rmatGraphEdges(C.LogN - 2, C.EdgeFactor, C.Seed));

  // Build the flat before the flood, untimed, as the end-to-end
  // benchmark's set-up does: otherwise the first query pays the cold
  // rebuild while every query admitted behind it waits.
  (void)S.acquireFlat();
  const FlatMaintenanceStats Before = S.flatStats();

  SnapshotServer::Options O;
  O.Workers = 2;
  O.ReadQueueCap = 64; // tiny on purpose: force admission control
  SnapshotServer Server(S, O);

  std::printf("\n== overload: %zu workers, %zu-deep read queue, offered "
              "load unbounded ==\n",
              O.Workers, O.ReadQueueCap);

  const size_t Offered = 20000;
  std::vector<double> Lat;
  Lat.reserve(Offered);
  std::mutex LatM;
  size_t Admitted = 0;
  for (size_t I = 0; I < Offered; ++I) {
    VertexId Src = VertexId(hash64(I) % N);
    Timer QT;
    bool Ok = Server.submitQuery([&, Src, QT](auto &QC) {
      auto F = QC.flat();
      auto V = F->view();
      uint64_t Sum = 0;
      V.mapNeighbors(Src, [&](VertexId U) { Sum += V.degree(U); });
      (void)Sum;
      double L = QT.elapsed();
      std::lock_guard<std::mutex> G(LatM);
      Lat.push_back(L);
    });
    if (Ok)
      ++Admitted;
  }
  Server.drain();
  auto St = Server.stats();
  Server.stop();
  const FlatMaintenanceStats After = S.flatStats();
  std::printf("  flat during the flood: %llu rebuilds, %llu refreshes, "
              "%llu hits\n",
              (unsigned long long)(After.Rebuilds - Before.Rebuilds),
              (unsigned long long)(After.Refreshes - Before.Refreshes),
              (unsigned long long)(After.Hits - Before.Hits));

  double ShedFrac = double(Offered - Admitted) / double(Offered);
  reportValue("serve/overload/offered", double(Offered), "queries");
  reportValue("serve/overload/shed_fraction", ShedFrac, "");
  reportTime("serve/overload/admitted_p50_s", percentile(Lat, 0.50));
  reportTime("serve/overload/admitted_p99_s", percentile(Lat, 0.99));
  std::printf("  (admitted %zu, shed %zu — p99 above is bounded by the "
              "%zu-deep queue, not the offered load)\n",
              Admitted, Offered - Admitted, O.ReadQueueCap);
  (void)St;
}

//===----------------------------------------------------------------------===
// Section D: the admission handoff, either side of the spin window.
//===----------------------------------------------------------------------===

double processCpuSeconds() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return double(T.tv_sec) + double(T.tv_nsec) * 1e-9;
}

/// Process CPU time over wall time while the calling thread sleeps
/// \p Seconds.
double idleCpuFrac(double Seconds) {
  double Cpu0 = processCpuSeconds();
  Timer Wall;
  std::this_thread::sleep_for(std::chrono::duration<double>(Seconds));
  return (processCpuSeconds() - Cpu0) / Wall.elapsed();
}

void benchHandoff(const BenchConfig &C) {
  const VertexId N = VertexId(1) << (C.LogN - 2);
  HybridShardedGraphStore S(
      4, N, rmatGraphEdges(C.LogN - 2, C.EdgeFactor, C.Seed));
  SnapshotServer::Options O;
  O.Workers = 2; // the end-to-end benchmark's tiny_stream server
  auto Server = std::make_unique<SnapshotServer>(S, O);

  std::printf("\n== handoff: %zu workers, one request at a time after an "
              "idle gap (spin window %lld us) ==\n",
              O.Workers,
              static_cast<long long>(
                  AdmissionQueueT<int>::SpinWindow.count()));

  struct Gap {
    const char *Name;
    std::chrono::microseconds Length;
    size_t Samples;
  };
  const Gap Gaps[] = {{"20us", std::chrono::microseconds(20), 2000},
                      {"200us", std::chrono::microseconds(200), 1000},
                      {"2ms", std::chrono::microseconds(2000), 200},
                      {"20ms", std::chrono::microseconds(20000), 100}};
  // A write always goes through the queue, so it shows the wake a read
  // no longer pays: inside the spin window the poller takes it, past it
  // a parked worker is woken. The wait includes the 1-edge install.
  uint64_t Edge = 0;
  auto WriteOnce = [&] {
    uint64_t H = hash64(++Edge);
    EdgePair E{VertexId(H % N), VertexId((H >> 32) % N)};
    uint64_t Seq = S.batchSeq() + 1;
    Timer WT;
    while (!Server->submitInsert({E}))
      std::this_thread::yield();
    while (S.batchSeq() < Seq)
      std::this_thread::yield();
    return WT.elapsed();
  };

  // One request at a time after each gap; Once() submits one and returns
  // its wait. The client polls through the gap, as the end-to-end
  // benchmark's generator does, so only the server's handoff is measured.
  // Each series starts from the same state, a worker inside its spin
  // window after an acknowledged write: once both workers have parked,
  // short-gap reads would run on the caller and never wake them, and
  // the series would time the state it began in. A read series reports
  // which path it timed as caller_frac.
  auto Sweep = [&](const char *Prefix, bool Reads, auto Once) {
    for (const Gap &G : Gaps) {
      WriteOnce();
      uint64_t Caller0 = Server->stats().CallerReads;
      std::vector<double> Wait;
      Wait.reserve(G.Samples);
      for (size_t I = 0; I < G.Samples; ++I) {
        auto Due = std::chrono::steady_clock::now() + G.Length;
        while (std::chrono::steady_clock::now() < Due)
          std::this_thread::yield();
        Wait.push_back(Once());
      }
      std::string P = std::string("serve/handoff/") + Prefix + G.Name;
      reportTime(P + "/wait_p50_s", percentile(Wait, 0.50));
      reportTime(P + "/wait_p99_s", percentile(Wait, 0.99));
      if (Reads)
        reportValue(P + "/caller_frac",
                    double(Server->stats().CallerReads - Caller0) /
                        double(G.Samples),
                    "of reads");
    }
  };

  Sweep("write_gap_", false, WriteOnce);

  // A read, submit -> start: on the caller slot once both workers have
  // parked, else on a worker.
  Sweep("gap_", true, [&] {
    std::atomic<bool> Done{false};
    double Waited = 0;
    Timer QT;
    while (!Server->submitQuery([&, QT](auto &) {
      Waited = QT.elapsed();
      Done.store(true, std::memory_order_release);
    }))
      std::this_thread::yield();
    while (!Done.load(std::memory_order_acquire))
      std::this_thread::yield();
    return Waited;
  });

  // Traffic just stopped: the poller spins out its window, then parks.
  // The scheduler's idle helpers also use CPU, so the same silence with
  // the server gone is subtracted.
  double WithServer = idleCpuFrac(0.1);
  Server.reset();
  double Floor = idleCpuFrac(0.1);
  reportValue("serve/handoff/idle_cpu_frac", std::max(0.0, WithServer - Floor),
              "cores");
}

} // namespace

int main(int Argc, char **Argv) {
  BenchConfig C = parseBenchConfig(Argc, Argv, /*DefaultLogN=*/16);
  CommandLine CL(Argc, Argv);
  std::string ComparePath = CL.getString("compare");
  if (!ComparePath.empty() && !loadBenchBaseline(ComparePath))
    std::fprintf(stderr, "warning: cannot read -compare file %s\n",
                 ComparePath.c_str());
  printEnvironment();

  benchCoalesce(C);
  benchServing<HybridShardedGraphStore>("hybrid", C);
  benchServing<ShardedGraphStore>("chunked", C);
  benchOverload(C);
  benchHandoff(C);

  finishMetricTrail(CL, {{"bench", "serving"}});
  return 0;
}
