//===- bench/bench_wal.cpp - Durable-ingest and recovery benchmarks --------===//
//
// The cost of durability (DESIGN.md Section 7): how much of the in-memory
// batch-ingest throughput survives when every batch is WAL-logged and
// group-committed before the call returns, what the per-batch commit
// latency looks like (p50/p99), and how recovery time scales with the
// length of the WAL that must be replayed -- with and without an
// intervening checkpoint to truncate it.
//
// Reported rows:
//   wal/ingest/*            durable vs in-memory throughput and the ratio
//                           (acceptance floor: ratio >= 0.5)
//   wal/commit/*            group-commit latency percentiles
//   wal/recover/replay<K>/* reopen time after K uncheckpointed batches
//   wal/recover/ckpt/*      reopen time when a checkpoint truncated the log
//   wal/ckpt/*              full vs incremental checkpoint bytes and time
//                           (a 1-of-S-shards delta should write ~1/S)
//   wal/ship/*              cold follower catch-up over the in-process
//                           transport (bytes shipped per second)
//   wal/scrub/*             one full scrubber verification pass
//
//   -json <path>    write every metric as flat JSON (BENCH_wal.json)
//   -compare <path> annotate rows with before/after ratios vs a prior file
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "store/replication.h"
#include "store/sharded_graph.h"
#include "util/hash.h"

#include <algorithm>
#include <cstdlib>
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace aspen;

namespace {

/// A fresh scratch directory for one benchmark scenario, removed (with its
/// contents) when the scenario ends.
class ScratchDir {
public:
  ScratchDir() {
    char Tmpl[] = "/tmp/aspen-bench-wal-XXXXXX";
    const char *D = mkdtemp(Tmpl);
    Path = D ? D : "/tmp/aspen-bench-wal-fallback";
    if (!D)
      ::mkdir(Path.c_str(), 0755);
  }
  ~ScratchDir() { removeAll(); }

  void removeAll() {
    DIR *D = ::opendir(Path.c_str());
    if (!D)
      return;
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        ::unlink((Path + "/" + Name).c_str());
    }
    ::closedir(D);
    ::rmdir(Path.c_str());
  }

  std::string Path;
};

void reportRate(const std::string &Key, double Value, const char *Unit) {
  recordMetric(Key, Value);
  std::printf("  %-40s %12s %s%s\n", Key.c_str(), fmtRate(Value).c_str(),
              Unit, compareSuffix(Key, Value).c_str());
}

void reportTime(const std::string &Key, double Seconds) {
  recordMetric(Key, Seconds);
  std::printf("  %-40s %12s%s\n", Key.c_str(), fmtTime(Seconds).c_str(),
              compareSuffix(Key, Seconds).c_str());
}

void reportRatio(const std::string &Key, double Value) {
  recordMetric(Key, Value);
  std::printf("  %-40s %11.2fx%s\n", Key.c_str(), Value,
              compareSuffix(Key, Value).c_str());
}

double fileBytes(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? double(St.st_size) : 0.0;
}

std::vector<std::vector<EdgePair>> makeBatches(RMatGenerator &G,
                                               size_t NumBatches,
                                               size_t BatchSize) {
  std::vector<std::vector<EdgePair>> Out;
  Out.reserve(NumBatches);
  for (size_t I = 0; I < NumBatches; ++I)
    Out.push_back(G.edges(I * BatchSize, BatchSize));
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchConfig C = parseBenchConfig(Argc, Argv, /*DefaultLogN=*/17);
  CommandLine CL(Argc, Argv);
  std::string ComparePath = CL.getString("compare");
  if (!ComparePath.empty() && !loadBenchBaseline(ComparePath))
    std::fprintf(stderr, "warning: cannot read -compare file %s\n",
                 ComparePath.c_str());
  printEnvironment();

  const VertexId N = VertexId(1) << C.LogN;
  const size_t Shards = 8;
  RMatGenerator Stream(C.LogN, C.Seed + 2000);

  //===------------------------------------------------------------------===
  // Durable vs in-memory ingest throughput.
  //===------------------------------------------------------------------===

  const size_t TputBatches = 16, TputBatchSize = 100000;
  auto Batches = makeBatches(Stream, TputBatches, TputBatchSize);
  double TotalEdges = double(TputBatches) * double(TputBatchSize);

  std::printf("\n== durable ingest: %zu batches x %zu edges, %zu shards "
              "==\n",
              TputBatches, TputBatchSize, Shards);

  double MemT = benchTime(C.Rounds, [&] {
    ShardedGraphStore St(Shards, N, std::vector<EdgePair>{});
    for (auto &B : Batches)
      St.insertBatch(B);
  });
  double MemEps = TotalEdges / MemT;
  reportRate("wal/ingest/memory_eps", MemEps, "edges/s");

  double DurT = benchTime(C.Rounds, [&] {
    ScratchDir Dir;
    DurabilityOptions O;
    O.Dir = Dir.Path;
    ShardedGraphStore St(O, Shards, N);
    for (auto &B : Batches)
      St.insertBatch(B);
  });
  double DurEps = TotalEdges / DurT;
  reportRate("wal/ingest/durable_eps", DurEps, "edges/s");
  reportRatio("wal/ingest/durable_ratio", DurEps / MemEps);

  double CkptT = benchTime(C.Rounds, [&] {
    ScratchDir Dir;
    DurabilityOptions O;
    O.Dir = Dir.Path;
    O.CheckpointEveryBatches = 8;
    ShardedGraphStore St(O, Shards, N);
    for (auto &B : Batches)
      St.insertBatch(B);
  });
  reportRate("wal/ingest/durable_ckpt8_eps", TotalEdges / CkptT, "edges/s");

  //===------------------------------------------------------------------===
  // Group-commit latency percentiles (single writer, small batches).
  //===------------------------------------------------------------------===

  const size_t LatBatches = 400, LatBatchSize = 1000;
  std::printf("\n== group-commit latency: %zu batches x %zu edges ==\n",
              LatBatches, LatBatchSize);
  {
    ScratchDir Dir;
    DurabilityOptions O;
    O.Dir = Dir.Path;
    ShardedGraphStore St(O, 1, 0);
    std::vector<double> Lat;
    Lat.reserve(LatBatches);
    for (size_t I = 0; I < LatBatches; ++I) {
      auto B = Stream.edges(4000000 + I * LatBatchSize, LatBatchSize);
      Lat.push_back(timeIt([&] { St.insertBatch(B); }));
    }
    double P50 = percentile(Lat, 0.50);
    double P99 = percentile(Lat, 0.99);
    reportTime("wal/commit/p50_s", P50);
    reportTime("wal/commit/p99_s", P99);
    reportRate("wal/commit/p50_eps", double(LatBatchSize) / P50, "edges/s");
  }

  //===------------------------------------------------------------------===
  // Recovery time vs WAL length.
  //===------------------------------------------------------------------===

  const size_t RecBatchSize = 5000;
  std::printf("\n== recovery: reopen after K uncheckpointed batches of %zu "
              "edges ==\n",
              RecBatchSize);
  for (size_t K : {16u, 64u, 256u}) {
    ScratchDir Dir;
    DurabilityOptions O;
    O.Dir = Dir.Path;
    {
      ShardedGraphStore St(O, 1, 0);
      for (size_t I = 0; I < K; ++I)
        St.insertBatch(
            Stream.edges(8000000 + I * RecBatchSize, RecBatchSize));
    }
    double RecT = timeIt([&] {
      ShardedGraphStore Re(O, 1, 0);
      if (Re.durability()->recovered().MaxSeq != K)
        std::abort(); // lost batches: the numbers below would be fiction
    });
    std::string Prefix = "wal/recover/replay" + std::to_string(K);
    reportTime(Prefix + "/time_s", RecT);
    reportRate(Prefix + "/eps", double(K) * double(RecBatchSize) / RecT,
               "edges/s");
  }

  std::printf("\n== recovery: checkpoint at batch 192 of 256 truncates the "
              "replay ==\n");
  {
    ScratchDir Dir;
    DurabilityOptions O;
    O.Dir = Dir.Path;
    O.CheckpointEveryBatches = 192;
    {
      ShardedGraphStore St(O, 1, 0);
      for (size_t I = 0; I < 256; ++I)
        St.insertBatch(
            Stream.edges(16000000 + I * RecBatchSize, RecBatchSize));
    }
    double RecT = timeIt([&] {
      ShardedGraphStore Re(O, 1, 0);
      if (Re.durability()->recovered().MaxSeq != 256)
        std::abort();
    });
    reportTime("wal/recover/ckpt/time_s", RecT);
  }

  //===------------------------------------------------------------------===
  // Full vs incremental checkpoint cost.
  //===------------------------------------------------------------------===

  std::printf("\n== checkpoints: full vs 1-of-%zu-shards incremental ==\n",
              Shards);
  ScratchDir ShipDir; // stays populated: the ship + scrub sections reuse it
  {
    DurabilityOptions O;
    O.Dir = ShipDir.Path;
    ShardedGraphStore St(O, Shards, N);
    for (auto &B : Batches)
      St.insertBatch(B);
    double FullT = timeIt([&] { St.checkpointNow(); });
    uint64_t FullSeq = St.batchSeq();
    double FullBytes =
        fileBytes(ShipDir.Path + "/" + detail::ckptFileName(FullSeq));
    // One delta confined to shard 0: endpoints folded onto multiples of
    // the shard count, so exactly one root pointer moves.
    std::vector<EdgePair> Delta = Stream.edges(24000000, 20000);
    for (EdgePair &E : Delta) {
      E.first &= ~VertexId(Shards - 1);
      E.second &= ~VertexId(Shards - 1);
    }
    St.insertBatch(Delta);
    double IncrT = timeIt([&] { St.checkpointNow(); });
    double IncrBytes =
        fileBytes(ShipDir.Path + "/" + detail::ckptFileName(FullSeq + 1));
    reportTime("wal/ckpt/full_s", FullT);
    reportRate("wal/ckpt/full_bytes", FullBytes, "bytes");
    reportTime("wal/ckpt/incr_s", IncrT);
    reportRate("wal/ckpt/incr_bytes", IncrBytes, "bytes");
    reportRatio("wal/ckpt/incr_ratio", IncrBytes / FullBytes);
  }

  //===------------------------------------------------------------------===
  // Snapshot shipping: cold follower catch-up.
  //===------------------------------------------------------------------===

  std::printf("\n== snapshot shipping: cold follower catch-up ==\n");
  {
    ScratchDir FollowerDir;
    InProcessShipService Svc(ShipDir.Path);
    Replicator R(FollowerDir.Path, Svc.connector());
    double ShipT = timeIt([&] { R.catchUp(); });
    const ReplicationStats &S = R.stats();
    reportTime("wal/ship/time_s", ShipT);
    reportRate("wal/ship/bytes_per_s", double(S.BytesFetched) / ShipT,
               "B/s");
    reportRate("wal/ship/files", double(S.FilesFetched), "files");
  }

  //===------------------------------------------------------------------===
  // Scrubbing: one full verification pass.
  //===------------------------------------------------------------------===

  std::printf("\n== scrubber: one verification pass over the directory "
              "==\n");
  {
    DurabilityOptions O;
    O.Dir = ShipDir.Path;
    DurabilityEngine E(O);
    Scrubber Sc(E);
    ScrubStats SS;
    double ScrubT = timeIt([&] { SS = Sc.scrubOnce(); });
    if (SS.CorruptFound)
      std::abort(); // a clean directory must scrub clean
    reportTime("wal/scrub/time_s", ScrubT);
    reportRate("wal/scrub/bytes_per_s", double(SS.BytesVerified) / ScrubT,
               "B/s");
  }

  finishMetricTrail(CL);
  return 0;
}
