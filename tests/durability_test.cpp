//===- tests/durability_test.cpp - Fault-injected crash recovery ----------===//
//
// The durability subsystem's differential suite (DESIGN.md Section 7).
// Structure:
//
//   * Unit tests for the primitives: CRC32C vectors, failpoint
//     mechanics, WAL append/scan/torn-tail/poisoning, checkpoint
//     round-trip and corruption fallback.
//   * The randomized kill-point matrix: for every fault schedule
//     (crash before/inside/after WAL append, mid-checkpoint,
//     mid-truncate; torn writes; fsync failures; bit flips), ingest
//     until the injected fault fires, "crash" (destroy the store),
//     recover from the directory, and assert the recovered store is
//     *byte-identical* — chunk Count/Bytes/memcmp, as in
//     parallel_merge_test.cpp — to an uncrashed in-memory reference
//     that applied exactly the recovered prefix of batches. Run on
//     the store at one shard and at four.
//   * A concurrent ingest + background checkpoint test (TSan coverage)
//     asserting reopen reproduces the exact final state.
//
// Crash simulation is exception-based over unbuffered fd I/O: bytes
// written before a SimulatedCrash stay in the files exactly as a kill
// -9 after a partial write would leave them (util/failpoint.h).
//
//===----------------------------------------------------------------------===//

#include "durable_test_util.h"

#include "gen/generators.h"
#include "graph/graph.h"
#include "store/checkpoint.h"
#include "store/durability.h"
#include "store/sharded_graph.h"
#include "store/wal.h"
#include "util/crc.h"
#include "util/failpoint.h"
#include "util/hash.h"

#include <gtest/gtest.h>

#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace aspen;
using namespace aspen::dtest;

namespace {

using CTS = CTreeSet<VertexId, DeltaByteCodec>;
using P64 = ChunkPayload<VertexId>;

// The chunk-verbatim checkpoint path must be selected exactly for
// C-tree storage; everything else serializes elements.
static_assert(HasChunkStorageV<CTS>, "CTreeSet serializes chunk-verbatim");
static_assert(!HasChunkStorageV<UncompressedSet<VertexId>>,
              "UncompressedSet takes the element fallback");
static_assert(!HasChunkStorageV<HybridEdgeSet>,
              "HybridEdgeSet takes the element fallback");

/// Apply the first \p Count batches of \p Batches to \p St in order.
void applyPrefix(ShardedGraphStore &St, const BatchList &Batches,
                 size_t Count) {
  for (size_t B = 0; B < Count; ++B) {
    if (Batches[B].first)
      St.insertBatch(Batches[B].second);
    else
      St.deleteBatch(Batches[B].second);
  }
}

// Shared helpers (TempDir, flipByteAt, the *Identical byte-comparison
// family, makeBatches, optsFor) live in durable_test_util.h — the
// replication suite uses the same bar for follower identity.

//===----------------------------------------------------------------------===
// CRC32C.
//===----------------------------------------------------------------------===

TEST(Crc32c, CheckValue) {
  // The canonical CRC32C check value of "123456789".
  const char *S = "123456789";
  EXPECT_EQ(crc32c(S, 9), 0xE3069283u);
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  std::vector<uint8_t> Buf(1337);
  for (size_t I = 0; I < Buf.size(); ++I)
    Buf[I] = uint8_t(hashAt(7, I));
  uint32_t Whole = crc32c(Buf.data(), Buf.size());
  for (size_t Cut : {size_t(0), size_t(1), size_t(8), size_t(513), Buf.size()}) {
    uint32_t Part = crc32c(Buf.data(), Cut);
    EXPECT_EQ(crc32c(Buf.data() + Cut, Buf.size() - Cut, Part), Whole);
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<uint8_t> Buf(256);
  for (size_t I = 0; I < Buf.size(); ++I)
    Buf[I] = uint8_t(I * 31);
  uint32_t Ref = crc32c(Buf.data(), Buf.size());
  for (size_t Bit : {size_t(0), size_t(77), size_t(2047)}) {
    Buf[Bit / 8] ^= uint8_t(1u << (Bit % 8));
    EXPECT_NE(crc32c(Buf.data(), Buf.size()), Ref);
    Buf[Bit / 8] ^= uint8_t(1u << (Bit % 8));
  }
}

//===----------------------------------------------------------------------===
// Failpoints.
//===----------------------------------------------------------------------===

TEST(Failpoint, HitIndexAndOneShot) {
  FailpointGuard G("t.site", FailAction::crash(), 1);
  FailAction A;
  EXPECT_FALSE(failpoints().check("t.site", A)); // hit 0: below index
  EXPECT_TRUE(failpoints().check("t.site", A));  // hit 1: triggers
  EXPECT_EQ(A.K, FailAction::Crash);
  EXPECT_FALSE(failpoints().check("t.site", A)); // spent (one-shot)
  EXPECT_FALSE(failpoints().check("other.site", A));
  EXPECT_EQ(failpoints().hits("t.site"), 3u);
}

TEST(Failpoint, GuardResetsRegistry) {
  { FailpointGuard G("leak.site", FailAction::crash()); }
  FailAction A;
  EXPECT_FALSE(failpoints().check("leak.site", A));
}

//===----------------------------------------------------------------------===
// WAL.
//===----------------------------------------------------------------------===

TEST(Wal, AppendScanRoundTrip) {
  TempDir D;
  std::string Path = D.path() + "/wal-0000000000000001.log";
  std::vector<EdgePair> B1{{1, 2}, {3, 4}}, B2{{5, 6}}, B3{};
  {
    WalLog L(Path, /*FsyncOnCommit=*/true);
    L.enqueue(WalKind::InsertBatch, 1, B1.data(), B1.size());
    L.enqueue(WalKind::DeleteBatch, 2, B2.data(), B2.size());
    L.sync(2); // one group commit covers both
    L.enqueue(WalKind::InsertBatch, 3, B3.data(), B3.size());
    L.sync(3);
    EXPECT_EQ(L.stats().Appends, 3u);
    EXPECT_EQ(L.stats().GroupCommits, 2u);
    EXPECT_EQ(L.durableSeq(), 3u);
  }
  std::vector<std::pair<uint64_t, std::vector<EdgePair>>> Got;
  std::vector<WalKind> Kinds;
  WalScanResult R = walScanSegment(Path, false, [&](const WalRecordView &V) {
    Got.emplace_back(V.Seq,
                     std::vector<EdgePair>(V.Edges, V.Edges + V.NumEdges));
    Kinds.push_back(V.Kind);
  });
  ASSERT_EQ(R.NumRecords, 3u);
  EXPECT_FALSE(R.Torn);
  EXPECT_EQ(R.MinSeq, 1u);
  EXPECT_EQ(R.MaxSeq, 3u);
  EXPECT_EQ(Got[0].second, B1);
  EXPECT_EQ(Got[1].second, B2);
  EXPECT_TRUE(Got[2].second.empty());
  EXPECT_EQ(Kinds[1], WalKind::DeleteBatch);
}

TEST(Wal, TornTailTruncatedOnOpen) {
  TempDir D;
  std::string Path = D.path() + "/wal-0000000000000001.log";
  std::vector<EdgePair> B{{9, 9}};
  {
    WalLog L(Path, true);
    L.enqueue(WalKind::InsertBatch, 1, B.data(), B.size());
    L.sync(1);
  }
  // A crash mid-append leaves trailing garbage.
  int Fd = ::open(Path.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(Fd, 0);
  const char Junk[] = "\x7f torn record tail";
  ASSERT_EQ(::write(Fd, Junk, sizeof(Junk)), ssize_t(sizeof(Junk)));
  ::close(Fd);

  WalScanResult R1 = walScanSegment(Path, /*TruncateTorn=*/true);
  EXPECT_EQ(R1.NumRecords, 1u);
  EXPECT_TRUE(R1.Torn);
  // After truncation the file is exactly the valid prefix again.
  WalScanResult R2 = walScanSegment(Path);
  EXPECT_EQ(R2.NumRecords, 1u);
  EXPECT_FALSE(R2.Torn);

  // And a WalLog reopened over it keeps appending where seq 1 left off.
  WalLog L(Path, true);
  EXPECT_EQ(L.durableSeq(), 1u);
  L.enqueue(WalKind::InsertBatch, 2, B.data(), B.size());
  L.sync(2);
  EXPECT_EQ(walScanSegment(Path).NumRecords, 2u);
}

TEST(Wal, ShortWritePoisonsAndRecoversPrefix) {
  TempDir D;
  std::string Path = D.path() + "/wal-0000000000000001.log";
  std::vector<EdgePair> B{{1, 2}, {3, 4}, {5, 6}};
  {
    WalLog L(Path, true);
    L.enqueue(WalKind::InsertBatch, 1, B.data(), B.size());
    L.sync(1);
    FailpointGuard G("wal.record.write", FailAction::shortWrite(11));
    L.enqueue(WalKind::InsertBatch, 2, B.data(), B.size());
    EXPECT_THROW(L.sync(2), SimulatedCrash);
    // Poisoned: nothing may be acknowledged past an unknown durable
    // prefix.
    EXPECT_THROW(L.enqueue(WalKind::InsertBatch, 3, B.data(), B.size()),
                 WalDeadError);
    EXPECT_THROW(L.sync(2), WalDeadError);
  }
  WalScanResult R = walScanSegment(Path, true);
  EXPECT_EQ(R.NumRecords, 1u);
  EXPECT_EQ(R.MaxSeq, 1u);
  EXPECT_TRUE(R.Torn);
}

TEST(Wal, BitFlipCaughtByChecksum) {
  TempDir D;
  std::string Path = D.path() + "/wal-0000000000000001.log";
  std::vector<EdgePair> B{{1, 2}, {3, 4}};
  {
    WalLog L(Path, true);
    L.enqueue(WalKind::InsertBatch, 1, B.data(), B.size());
    L.sync(1);
    // Flip one payload bit of the second record on its way to disk: the
    // write "succeeds" (media corruption), but the checksum must refuse
    // the record at scan time.
    FailpointGuard G("wal.record.write",
                     FailAction::bitFlip(8 * sizeof(detail::WalRecordHeader) +
                                         13));
    L.enqueue(WalKind::InsertBatch, 2, B.data(), B.size());
    L.sync(2);
  }
  WalScanResult R = walScanSegment(Path, true);
  EXPECT_EQ(R.NumRecords, 1u);
  EXPECT_TRUE(R.Torn);
}

//===----------------------------------------------------------------------===
// Checkpoints.
//===----------------------------------------------------------------------===

Graph buildTestGraph(size_t NumEdges, VertexId Universe, uint64_t Seed) {
  std::vector<EdgePair> E(NumEdges);
  for (size_t I = 0; I < NumEdges; ++I) {
    uint64_t H = hashAt(Seed, I);
    E[I] = {VertexId(H % Universe), VertexId((H >> 20) % Universe)};
  }
  return Graph::fromEdges(Universe, std::move(E));
}

TEST(Checkpoint, SnapshotRoundTripIsByteIdentical) {
  Graph G = buildTestGraph(20000, 5000, 11);
  std::vector<uint8_t> Stream;
  serializeSnapshot(G, Stream);
  ByteReader R(Stream.data(), Stream.size());
  Graph Back = deserializeSnapshot<CTS>(R, G.buildParams());
  EXPECT_TRUE(R.exhausted());
  EXPECT_TRUE(graphsIdentical(G, Back));
  EXPECT_EQ(G.numEdges(), Back.numEdges());
}

TEST(Checkpoint, FileRoundTripAndValidation) {
  TempDir D;
  Graph G = buildTestGraph(30000, 4000, 23);
  std::vector<std::vector<uint8_t>> Streams(1);
  serializeSnapshot(G, Streams[0]);
  writeCheckpointFile(D.path(), 42, 0, Streams, true);
  auto L = readCheckpointFile(D.path() + "/" + detail::ckptFileName(42));
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(L->Seq, 42u);
  ASSERT_EQ(L->ShardStreams.size(), 1u);
  EXPECT_EQ(L->ShardStreams[0], Streams[0]);
}

TEST(Checkpoint, CorruptionDetectedAndOlderUsed) {
  TempDir D;
  Graph G1 = buildTestGraph(5000, 2000, 3);
  Graph G2 = buildTestGraph(9000, 2000, 5);
  std::vector<std::vector<uint8_t>> S1(1), S2(1);
  serializeSnapshot(G1, S1[0]);
  serializeSnapshot(G2, S2[0]);
  writeCheckpointFile(D.path(), 1, 0, S1, true);
  writeCheckpointFile(D.path(), 2, 0, S2, true);
  std::string Newest = D.path() + "/" + detail::ckptFileName(2);
  flipByteAt(Newest, 100); // inside a data page: its CRC must catch it
  EXPECT_FALSE(readCheckpointFile(Newest).has_value());

  DurabilityOptions O;
  O.Dir = D.path();
  DurabilityEngine E(O);
  ASSERT_TRUE(E.recovered().Ckpt.has_value());
  EXPECT_EQ(E.recovered().Ckpt->Seq, 1u); // fell back past the corruption
}

//===----------------------------------------------------------------------===
// Durable single-shard store: basics.
//===----------------------------------------------------------------------===

TEST(DurableSingleShard, PersistAndReopenByteIdentical) {
  TempDir D;
  BatchList Batches = makeBatches(9, 300, 3000, 77);
  ShardedGraphStore Ref(1, 0);
  {
    ShardedGraphStore St(optsFor(D.path()), 1, 0);
    applyPrefix(St, Batches, Batches.size());
    applyPrefix(Ref, Batches, Batches.size());
    EXPECT_TRUE(shardedIdentical(St, Ref));
  }
  ShardedGraphStore Re(optsFor(D.path()), 1, 0);
  EXPECT_EQ(Re.durability()->recovered().MaxSeq, Batches.size());
  EXPECT_TRUE(shardedIdentical(Re, Ref));

  // The reopened store keeps ingesting durably where the log left off.
  std::vector<EdgePair> More{{1, 7}, {2, 9}};
  Re.insertBatch(More);
  Ref.insertBatch(More);
  EXPECT_TRUE(shardedIdentical(Re, Ref));
}

TEST(DurableSingleShard, CheckpointTrimsWalAndRecovers) {
  TempDir D;
  BatchList Batches = makeBatches(11, 250, 2500, 31);
  {
    ShardedGraphStore St(optsFor(D.path(), /*Every=*/4), 1, 0);
    applyPrefix(St, Batches, Batches.size());
    EXPECT_GE(St.durability()->lastCheckpointSeq(), 8u);
  }
  EXPECT_GE(countFilesWithPrefix(D.path(), "ckpt-"), 1u);
  // Segments fully covered by the newest checkpoint were trimmed; what
  // remains is the post-checkpoint suffix plus the fresh generation.
  EXPECT_LE(countFilesWithPrefix(D.path(), "wal-"), 3u);

  ShardedGraphStore Re(optsFor(D.path()), 1, 0);
  ShardedGraphStore Ref(1, 0);
  applyPrefix(Ref, Batches, Batches.size());
  EXPECT_EQ(Re.durability()->recovered().MaxSeq, Batches.size());
  EXPECT_TRUE(shardedIdentical(Re, Ref));
}

TEST(DurableSingleShard, RecoveryPrimesFlat) {
  TempDir D;
  BatchList Batches = makeBatches(9, 60, 4000, 13);
  {
    ShardedGraphStore St(optsFor(D.path(), /*Every=*/6), 1, 0);
    applyPrefix(St, Batches, Batches.size());
  }
  // Recovery: checkpoint at 6, replay 7..9, then one flat build from the
  // replayed epoch — so the first user acquireFlat() is a hit.
  ShardedGraphStore Re(optsFor(D.path()), 1, 0);
  FlatMaintenanceStats S0 = Re.flatStats();
  EXPECT_EQ(S0.Rebuilds, 1u); // the recovery priming itself
  EXPECT_EQ(S0.Refreshes, 0u);
  auto F = Re.acquireFlat();
  FlatMaintenanceStats S1 = Re.flatStats();
  EXPECT_EQ(S1.Rebuilds, 1u);
  EXPECT_EQ(S1.Refreshes, 0u);
  EXPECT_EQ(S1.Hits, 1u);
  EXPECT_EQ(F->BatchSeq, Batches.size());
  // And the primed flat agrees with the authoritative tree.
  auto V = Re.acquire();
  const Graph &G = V.shard(0);
  uint64_t DegTree = 0, DegFlat = 0;
  for (VertexId X = 0; X < G.vertexUniverse(); ++X)
    DegTree += G.degree(X);
  FlatGraphView FV(F->Flats[0]);
  for (VertexId X = 0; X < FV.numVertices(); ++X)
    DegFlat += FV.degree(X);
  EXPECT_EQ(DegTree, DegFlat);
}

//===----------------------------------------------------------------------===
// The randomized kill-point matrix (one shard and four).
//===----------------------------------------------------------------------===

struct FaultSchedule {
  const char *Site;
  FailAction Action;
  uint64_t Hit;
  /// BitFlip models silent media corruption: records at/after the flip
  /// may be lost even though they were acknowledged (single-copy WAL).
  /// Every other fault keeps the acked prefix fully recoverable.
  bool AckedGuaranteed;
};

std::vector<FaultSchedule> killPointMatrix(uint64_t Seed) {
  std::vector<FaultSchedule> S;
  size_t I = 0;
  auto Rnd = [&](uint64_t M) { return hashAt(Seed, I++) % M; };
  for (const char *Site :
       {"wal.enqueue.before", "wal.sync.before", "wal.record.write",
        "wal.fsync", "ckpt.page.write", "ckpt.manifest.write", "ckpt.fsync",
        "ckpt.rename.before", "ckpt.rename.after", "ckpt.dirsync",
        "wal.trim.before", "wal.trim.mid", "wal.trim.after"})
    S.push_back({Site, FailAction::crash(), Rnd(3), true});
  for (int K = 0; K < 4; ++K)
    S.push_back({"wal.record.write", FailAction::shortWrite(Rnd(64)),
                 Rnd(3), true});
  S.push_back({"ckpt.page.write", FailAction::shortWrite(100), 0, true});
  S.push_back({"ckpt.manifest.write", FailAction::shortWrite(9), 0, true});
  S.push_back({"wal.fsync", FailAction::failFsync(), Rnd(3), true});
  S.push_back({"ckpt.fsync", FailAction::failFsync(), 0, true});
  for (int K = 0; K < 3; ++K)
    S.push_back({"wal.record.write", FailAction::bitFlip(Rnd(2048)),
                 Rnd(3), false});
  return S;
}

TEST(DurableSharded, KillPointMatrixRecoversByteIdentical) {
  const VertexId Universe = 2500;
  // Each shard count runs its own batch schedule and fault matrix.
  struct Config {
    size_t Shards;
    uint64_t BatchSeed, MatrixSeed;
  };
  for (const Config &C : {Config{1, 101, 0xD00D}, Config{4, 202, 0xBEEF}}) {
    BatchList Batches = makeBatches(12, 200, Universe, C.BatchSeed);
    for (const FaultSchedule &FS : killPointMatrix(C.MatrixSeed)) {
      SCOPED_TRACE("shards=" + std::to_string(C.Shards) + " " +
                   std::string(FS.Site) + " action=" +
                   std::to_string(int(FS.Action.K)) + " hit=" +
                   std::to_string(FS.Hit));
      TempDir D;
      size_t Acked = 0;
      {
        ShardedGraphStore St(optsFor(D.path(), /*Every=*/5), C.Shards,
                             Universe);
        FailpointGuard G(FS.Site, FS.Action, FS.Hit);
        try {
          for (auto &B : Batches) {
            if (B.first)
              St.insertBatch(B.second);
            else
              St.deleteBatch(B.second);
            ++Acked;
          }
        } catch (const std::exception &) {
          // Simulated crash (or poisoned log): stop ingesting, drop the
          // store, recover from the directory below.
        }
      }
      failpoints().reset();

      ShardedGraphStore Re(optsFor(D.path()), C.Shards, Universe);
      uint64_t R = Re.durability()->recovered().MaxSeq;
      if (FS.AckedGuaranteed) {
        EXPECT_GE(R, Acked) << "acknowledged batch lost";
      }
      EXPECT_LE(R, Batches.size());
      EXPECT_EQ(Re.batchSeq(), R);

      ShardedGraphStore Ref(C.Shards, Universe);
      applyPrefix(Ref, Batches, R);
      EXPECT_TRUE(shardedIdentical(Re, Ref))
          << "recovered store differs from the uncrashed reference at seq "
          << R;
    }
  }
}

// The window between rename(ckpt.tmp -> ckpt) and the directory fsync
// is the classic publish hazard: the file exists under its final name,
// but the directory entry itself is not yet durable. Because WAL trim
// runs strictly *after* the checkpoint publish, a crash in that window
// is safe in both outcomes — whether the rename survives (recover from
// the new checkpoint) or the entry is lost (recover from the older
// checkpoint + the untrimmed WAL suffix).
TEST(DurableSharded, CrashBetweenRenameAndDirsync) {
  const VertexId Universe = 2500;
  BatchList Batches = makeBatches(9, 200, Universe, 303);
  for (size_t Shards : {1u, 4u})
    for (bool RenameSurvives : {true, false}) {
      SCOPED_TRACE("shards=" + std::to_string(Shards) + " " +
                   (RenameSurvives ? "rename survived" : "dir entry lost"));
      TempDir D;
      size_t Acked = 0;
      {
        ShardedGraphStore St(optsFor(D.path(), /*Every=*/4), Shards,
                             Universe);
        // Crash on the *second* checkpoint's dirsync (seq 8), so the
        // entry-lost variant has an older generation to fall back to.
        FailpointGuard G("ckpt.dirsync", FailAction::crash(), 1);
        try {
          for (auto &B : Batches) {
            if (B.first)
              St.insertBatch(B.second);
            else
              St.deleteBatch(B.second);
            ++Acked;
          }
        } catch (const SimulatedCrash &) {
        }
      }
      failpoints().reset();
      EXPECT_EQ(Acked, 7u); // batch 8's checkpoint crashed after the ack
      if (!RenameSurvives) {
        ASSERT_EQ(
            ::unlink((D.path() + "/" + detail::ckptFileName(8)).c_str()),
            0);
      }

      ShardedGraphStore Re(optsFor(D.path()), Shards, Universe);
      uint64_t R = Re.durability()->recovered().MaxSeq;
      EXPECT_GE(R, 8u) << "acknowledged batch lost"; // seq 8 was durable
      if (!RenameSurvives) {
        EXPECT_EQ(Re.durability()->recovered().Ckpt->Seq, 4u);
      }

      ShardedGraphStore Ref(Shards, Universe);
      applyPrefix(Ref, Batches, R);
      EXPECT_TRUE(shardedIdentical(Re, Ref));
    }
}

//===----------------------------------------------------------------------===
// Durable sharded store: basics + concurrency.
//===----------------------------------------------------------------------===

TEST(DurableSharded, PersistReopenAndFlatPrime) {
  TempDir D;
  const size_t Shards = 8;
  const VertexId Universe = 4000;
  BatchList Batches = makeBatches(10, 80, Universe, 55);
  ShardedGraphStore Ref(Shards, Universe);
  {
    ShardedGraphStore St(optsFor(D.path(), /*Every=*/6), Shards, Universe);
    for (auto &B : Batches) {
      if (B.first) {
        St.insertBatch(B.second);
        Ref.insertBatch(B.second);
      } else {
        St.deleteBatch(B.second);
        Ref.deleteBatch(B.second);
      }
    }
    EXPECT_TRUE(shardedIdentical(St, Ref));
  }
  ShardedGraphStore Re(optsFor(D.path()), Shards, Universe);
  EXPECT_EQ(Re.batchSeq(), Batches.size());
  EXPECT_TRUE(shardedIdentical(Re, Ref));

  // Flat priming: checkpoint at 6, replay 7..10, then one build of the
  // replayed epoch → the first acquireFlat() is a hit, and the next
  // install's writer refreshes the primed flat.
  FlatMaintenanceStats S0 = Re.flatStats();
  EXPECT_EQ(S0.Rebuilds, 1u);
  auto F = Re.acquireFlat();
  FlatMaintenanceStats S1 = Re.flatStats();
  EXPECT_EQ(S1.Rebuilds, 1u);
  EXPECT_EQ(S1.Refreshes, 0u);
  EXPECT_EQ(S1.Hits, 1u);
  EXPECT_EQ(F->BatchSeq, Batches.size());
  EXPECT_EQ(F->NumEdges, Ref.acquire().numEdges());
  Re.insertBatch(Batches.front().second);
  Ref.insertBatch(Batches.front().second);
  F = Re.acquireFlat();
  FlatMaintenanceStats S2 = Re.flatStats();
  EXPECT_EQ(S2.Rebuilds, 1u);
  EXPECT_EQ(S2.Refreshes, 1u);
  EXPECT_EQ(S2.Hits, 2u);
  EXPECT_EQ(F->NumEdges, Ref.acquire().numEdges());
}

TEST(DurableSharded, ConcurrentIngestWithBackgroundCheckpoint) {
  TempDir D;
  const size_t Shards = 8;
  const VertexId Universe = 6000;
  const size_t Threads = 4, PerThread = 8, BatchSize = 250;
  std::vector<std::vector<uint8_t>> Before(Shards);
  {
    ShardedGraphStore St(optsFor(D.path()), Shards, Universe);
    std::atomic<bool> Done{false};
    std::thread Ckpt([&] {
      // Background checkpoints racing the ingest threads: each is a
      // consistent epoch cut; trimming never drops uncovered records.
      while (!Done.load(std::memory_order_acquire)) {
        St.checkpointNow();
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> Ws;
    for (size_t T = 0; T < Threads; ++T)
      Ws.emplace_back([&, T] {
        for (size_t B = 0; B < PerThread; ++B) {
          std::vector<EdgePair> E(BatchSize);
          for (size_t I = 0; I < BatchSize; ++I) {
            uint64_t H = hashAt(1000 + T * PerThread + B, I);
            E[I] = {VertexId(H % Universe), VertexId((H >> 20) % Universe)};
          }
          St.insertBatch(E);
        }
      });
    for (auto &W : Ws)
      W.join();
    Done.store(true, std::memory_order_release);
    Ckpt.join();
    ASSERT_EQ(St.batchSeq(), uint64_t(Threads * PerThread));

    // Capture the exact final state (canonical serialization) before
    // the "crash": whatever interleaving the threads produced, recovery
    // must reproduce it byte-for-byte.
    auto E = St.acquire();
    for (size_t S = 0; S < Shards; ++S)
      serializeSnapshot(E.shard(S), Before[S]);
  }
  ShardedGraphStore Re(optsFor(D.path()), Shards, Universe);
  EXPECT_EQ(Re.batchSeq(), uint64_t(Threads * PerThread));
  std::vector<std::vector<uint8_t>> After(Shards);
  auto E2 = Re.acquire();
  for (size_t S = 0; S < Shards; ++S)
    serializeSnapshot(E2.shard(S), After[S]);
  EXPECT_EQ(Before, After);
}

TEST(DurableSharded, AutoCheckpointFiresExactlyOnSchedule) {
  TempDir D;
  const VertexId Universe = 1000;
  const uint64_t Every = 3;
  ShardedGraphStore St(optsFor(D.path(), Every), 4, Universe);
  for (uint64_t B = 1; B <= 8; ++B) {
    std::vector<EdgePair> E(50);
    for (size_t I = 0; I < E.size(); ++I) {
      uint64_t H = hashAt(7000 + B, I);
      E[I] = {VertexId(H % Universe), VertexId((H >> 20) % Universe)};
    }
    St.insertBatch(E);
    // The trigger is exact, not best-effort: last checkpoint covers the
    // most recent multiple of Every, so the uncovered WAL suffix never
    // reaches Every batches.
    EXPECT_EQ(St.durability()->lastCheckpointSeq(), (B / Every) * Every)
        << "batch " << B;
  }
}

TEST(DurableSharded, AutoCheckpointNeverSkippedUnderContention) {
  // Regression: checkpointIfDue used to bail when try_lock failed, so a
  // writer crossing the threshold while a peer held the trigger lock
  // silently skipped a due checkpoint. The pending latch re-checks after
  // unlock, so at quiescence the uncovered suffix is always < Every.
  TempDir D;
  const VertexId Universe = 4000;
  const uint64_t Every = 2; // aggressive: most batches cross a threshold
  const size_t Threads = 4, PerThread = 8;
  ShardedGraphStore St(optsFor(D.path(), Every), 8, Universe);
  std::vector<std::thread> Ws;
  for (size_t T = 0; T < Threads; ++T)
    Ws.emplace_back([&, T] {
      for (size_t B = 0; B < PerThread; ++B) {
        std::vector<EdgePair> E(120);
        for (size_t I = 0; I < E.size(); ++I) {
          uint64_t H = hashAt(8000 + T * PerThread + B, I);
          E[I] = {VertexId(H % Universe), VertexId((H >> 20) % Universe)};
        }
        St.insertBatch(E);
      }
    });
  for (auto &W : Ws)
    W.join();
  ASSERT_EQ(St.batchSeq(), uint64_t(Threads * PerThread));
  EXPECT_LT(St.batchSeq() - St.durability()->lastCheckpointSeq(), Every);
}

} // namespace
