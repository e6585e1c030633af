//===- store/durability.h - WAL + checkpoint orchestration ----------------===//
//
// Ties the redo log (store/wal.h) and the epoch checkpoints
// (store/checkpoint.h) into one durable directory that the store opens
// behind an opt-in DurabilityOptions (DESIGN.md Section 7):
//
//   <dir>/wal-<gen>.log        append-only WAL segments, generation-named
//   <dir>/ckpt-<seq>.aspen     immutable checkpoint files
//   <dir>/*.tmp, *.part        in-flight checkpoint writes / replication
//                              transfers (removed on open)
//   <dir>/*.quarantine         corrupt files set aside by the scrubber
//                              (ignored by recovery)
//
// Invariants the engine maintains:
//
//   * Exactly one *active* WAL segment accepts appends; every earlier
//     generation is sealed and immutable. Open always starts a fresh
//     generation, so a torn tail can only ever sit at the end of one
//     (now sealed, truncated-on-scan) segment.
//   * checkpoint(S) first makes ckpt-<S> durable (tmp + fsync + rename),
//     then flushes and seals the active segment, opens generation+1, and
//     only then unlinks sealed segments whose records all fall at or
//     below the *trim barrier* — the oldest checkpoint generation any
//     retained chain still references. Falling back past the newest
//     head therefore never loses acknowledged batches: the WAL suffix
//     above every retained head is still on disk. A crash anywhere in
//     that sequence leaves either the old checkpoint + full WAL, or the
//     new checkpoint + a superset of the WAL suffix it needs — both
//     recover to the same store.
//   * An incremental checkpoint (DESIGN.md Section 9) chains onto the
//     engine's current newest generation via BaseSeq. The chain length
//     is bounded by MaxIncrementalChain; a quarantined or otherwise
//     lost generation forces the next checkpoint to be full, so a
//     broken chain can never grow.
//   * Sealing flushes the old segment's pending group before the swap,
//     so across segments the record sequence has no holes: recovery can
//     insist on contiguous sequence numbers and treat any gap as the end
//     of the usable log.
//
// Recovery (performed in the constructor) = newest checkpoint head whose
// base chain fully resolves (resolveCheckpointChain — every link
// validates end-to-end), plus the contiguous run of WAL records with
// sequence numbers above it, in order. The store replays those records
// through the same ingest pipeline that produced the original epochs,
// one epoch per record — by chunk-boundary determinism (DESIGN.md
// Section 2) the result is byte-identical to the uncrashed store.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_STORE_DURABILITY_H
#define ASPEN_STORE_DURABILITY_H

#include "store/checkpoint.h"
#include "store/wal.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <dirent.h>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

namespace aspen {

/// Opt-in durability configuration for the store. A default-constructed
/// store stays memory-only; passing DurabilityOptions at construction
/// opens (and if needed recovers) the directory and makes every
/// acknowledged batch crash-safe.
struct DurabilityOptions {
  std::string Dir; ///< directory holding WAL segments + checkpoints

  /// fsync on every group commit (the durability guarantee). Turning
  /// this off keeps the record/checkpoint formats and recovery logic but
  /// trades acknowledged-batch durability for speed — useful for tests
  /// and for workloads content with OS-crash-only durability.
  bool FsyncOnCommit = true;

  /// Take a checkpoint automatically every N acknowledged batches
  /// (0 = only when the caller asks via checkpointNow()).
  uint64_t CheckpointEveryBatches = 0;

  /// Checkpoint files retained as fallbacks beyond the newest.
  size_t KeepCheckpoints = 2;

  /// Incremental checkpoints chained onto a full one before the next
  /// is forced full (0 disables incremental chaining entirely). Longer
  /// chains write fewer bytes per checkpoint but retain more files and
  /// WAL (the trim barrier follows the oldest referenced generation).
  size_t MaxIncrementalChain = 8;
};

/// One WAL record recovered for replay (payload owned).
struct WalReplayRecord {
  WalKind Kind;
  uint64_t Seq;
  std::vector<EdgePair> Edges;
};

/// Everything recovery found in the directory.
struct RecoveredState {
  std::optional<LoadedCheckpoint> Ckpt; ///< newest fully-valid checkpoint
  std::vector<WalReplayRecord> Replay;  ///< contiguous suffix above Ckpt
  uint64_t MaxSeq = 0; ///< highest recovered batch sequence number
  bool SeqGap = false; ///< log ended at a sequence hole (diagnostic)
};

/// The per-store durability orchestrator: owns the directory, the active
/// WAL segment, segment rotation/trimming, and checkpoint retention.
/// Thread-safe; the store calls append() under its install ordering
/// and sync() free-threaded.
class DurabilityEngine {
  struct SealedSegment {
    uint64_t Gen;
    std::string Path;
    uint64_t MaxSeq; ///< highest valid record sequence, 0 when empty
  };

public:
  explicit DurabilityEngine(DurabilityOptions O) : Opts(std::move(O)) {
    if (::mkdir(Opts.Dir.c_str(), 0755) != 0 && errno != EEXIST)
      throw std::runtime_error("cannot create durability dir " + Opts.Dir);

    // Inventory the directory: checkpoint seqs, WAL generations, and
    // leftovers from interrupted work — .tmp (mid-write checkpoints)
    // and .part (mid-transfer replication fetches) are removed;
    // .quarantine files (scrubber-confirmed corruption) are ignored.
    std::vector<uint64_t> WalGens;
    {
      DIR *D = ::opendir(Opts.Dir.c_str());
      if (!D)
        throw std::runtime_error("cannot open durability dir " + Opts.Dir);
      while (struct dirent *E = ::readdir(D)) {
        std::string Name = E->d_name;
        if ((Name.size() > 4 && Name.rfind(".tmp") == Name.size() - 4) ||
            (Name.size() > 5 && Name.rfind(".part") == Name.size() - 5)) {
          (void)::unlink((Opts.Dir + "/" + Name).c_str());
          continue;
        }
        if (auto S = detail::ckptSeqOfName(Name)) {
          // Record the chain link for retention; a file whose manifest
          // no longer validates keeps a 0 base — it can never resolve
          // as a head, and any chain through it fails full validation.
          auto M = peekCheckpointMeta(Opts.Dir + "/" + Name);
          CkptBaseOf[*S] = M ? M->BaseSeq : 0;
        } else if (auto G = walGenOfName(Name)) {
          WalGens.push_back(*G);
        }
      }
      ::closedir(D);
    }
    std::sort(WalGens.begin(), WalGens.end());

    // Newest checkpoint head whose base chain fully resolves wins;
    // invalid heads and broken chains (torn writes that still got
    // renamed somehow, bit rot, quarantined links) fall back.
    for (auto It = CkptBaseOf.rbegin(); It != CkptBaseOf.rend(); ++It) {
      if (auto L = resolveCheckpointChain(Opts.Dir, It->first)) {
        Rec.Ckpt = std::move(*L);
        break;
      }
    }
    uint64_t CkptSeq = Rec.Ckpt ? Rec.Ckpt->Seq : 0;
    LastCkptSeqV.store(CkptSeq, std::memory_order_relaxed);
    Rec.MaxSeq = CkptSeq;
    // Resume the incremental chain-length budget where the head left it
    // (so a restart cannot extend a chain past MaxIncrementalChain).
    for (uint64_t S = CkptSeq; S != 0;) {
      auto It = CkptBaseOf.find(S);
      if (It == CkptBaseOf.end() || It->second == 0)
        break;
      ++ChainLen;
      S = It->second;
    }

    // Scan WAL generations in order, truncating torn tails, collecting
    // the contiguous record run above the checkpoint. A hole ends the
    // usable log: nothing past it can have been acknowledged (sealing
    // flushes, so acknowledged prefixes are hole-free by construction).
    uint64_t Expected = CkptSeq;
    for (uint64_t Gen : WalGens) {
      std::string Path = segmentPath(Gen);
      WalScanResult R =
          walScanSegment(Path, /*TruncateTorn=*/true,
                         [&](const WalRecordView &V) {
                           if (Rec.SeqGap || V.Seq <= Expected)
                             return;
                           if (V.Seq != Expected + 1) {
                             Rec.SeqGap = true;
                             return;
                           }
                           WalReplayRecord RR;
                           RR.Kind = V.Kind;
                           RR.Seq = V.Seq;
                           RR.Edges.assign(V.Edges, V.Edges + V.NumEdges);
                           Rec.Replay.push_back(std::move(RR));
                           Expected = V.Seq;
                         });
      Sealed.push_back(SealedSegment{Gen, Path, R.MaxSeq});
    }
    Rec.MaxSeq = Expected;

    // Appends always go to a fresh generation: sealed segments stay
    // immutable, and a recovered-from torn tail can never be appended
    // past.
    ActiveGen = (WalGens.empty() ? 0 : WalGens.back()) + 1;
    Active = std::make_shared<WalLog>(segmentPath(ActiveGen),
                                      Opts.FsyncOnCommit, Rec.MaxSeq + 1);
  }

  DurabilityEngine(const DurabilityEngine &) = delete;
  DurabilityEngine &operator=(const DurabilityEngine &) = delete;

  const DurabilityOptions &options() const { return Opts; }

  /// What recovery found (the store consumes this once, at open).
  const RecoveredState &recovered() const { return Rec; }

  /// Free the recovered replay payloads after the store has applied them.
  void dropRecoveredPayload() {
    Rec.Replay.clear();
    Rec.Replay.shrink_to_fit();
    if (Rec.Ckpt) {
      Rec.Ckpt->ShardStreams.clear();
      Rec.Ckpt->ShardStreams.shrink_to_fit();
    }
  }

  /// A pending group commit: sync() against the exact segment the record
  /// went to (rotation may swap the active segment in between).
  struct Ticket {
    std::shared_ptr<WalLog> Log;
    uint64_t Seq = 0;
  };

  /// Append one batch record. Must be called in increasing-Seq order
  /// (the store's install ordering provides this). Does not block on
  /// I/O; the batch is acknowledged only after sync() returns.
  Ticket append(WalKind K, uint64_t Seq, const EdgePair *Edges, size_t N) {
    std::lock_guard<std::mutex> Lock(WalM);
    Active->enqueue(K, Seq, Edges, N);
    return Ticket{Active, Seq};
  }

  /// Block until the ticket's record is durable (group commit: the first
  /// syncing thread flushes everyone's pending records).
  void sync(const Ticket &T) {
    if (T.Log)
      T.Log->sync(T.Seq);
  }

  /// Make ckpt-<Seq> durable from the serialized shard streams, then
  /// rotate the WAL and drop segments + checkpoint generations no
  /// retained chain references. Serialized against concurrent
  /// checkpoint() calls; concurrent append()/sync() proceed (they only
  /// contend on the rotation swap).
  ///
  /// An incremental caller passes the base generation it serialized
  /// against (from incrementalBaseFor()) plus the per-shard present
  /// mask. Returns true when the checkpoint was written; false when a
  /// concurrent caller already covered this epoch, or when the base went
  /// stale (quarantined / forced-full in the meantime) — the store then
  /// retries with a full checkpoint.
  bool checkpoint(uint64_t Seq, uint32_t LogShards,
                  const std::vector<std::vector<uint8_t>> &ShardStreams,
                  uint64_t BaseSeq = 0,
                  const std::vector<uint8_t> *Present = nullptr) {
    std::lock_guard<std::mutex> CkLock(CkptM);
    if (Seq <= LastCkptSeqV.load(std::memory_order_relaxed))
      return false; // a concurrent caller already covered this epoch
    if (BaseSeq != 0 &&
        (ForceFullNext || !Opts.MaxIncrementalChain ||
         ChainLen >= Opts.MaxIncrementalChain ||
         BaseSeq != LastCkptSeqV.load(std::memory_order_relaxed) ||
         CkptBaseOf.find(BaseSeq) == CkptBaseOf.end()))
      return false; // stale base: caller falls back to a full checkpoint
    writeCheckpointFile(Opts.Dir, Seq, LogShards, ShardStreams,
                        Opts.FsyncOnCommit, BaseSeq, Present);
    LastCkptSeqV.store(Seq, std::memory_order_relaxed);
    CkptBaseOf[Seq] = BaseSeq;
    if (BaseSeq != 0) {
      ++ChainLen;
    } else {
      ChainLen = 0;
      ForceFullNext = false;
    }

    // Retention: keep the chain closures of the newest KeepCheckpoints
    // heads; everything else is garbage. The trim barrier is the oldest
    // generation any retained chain references — WAL records above it
    // stay on disk so falling back to ANY retained head (or chain link)
    // still replays to the acknowledged frontier.
    std::set<uint64_t> Referenced;
    {
      size_t Keep = std::max<size_t>(1, Opts.KeepCheckpoints);
      auto It = CkptBaseOf.rbegin();
      for (size_t H = 0; H < Keep && It != CkptBaseOf.rend(); ++H, ++It)
        for (uint64_t S = It->first; S != 0 && Referenced.insert(S).second;) {
          auto B = CkptBaseOf.find(S);
          S = B == CkptBaseOf.end() ? 0 : B->second;
        }
    }
    for (auto It = CkptBaseOf.begin(); It != CkptBaseOf.end();) {
      if (Referenced.count(It->first)) {
        ++It;
        continue;
      }
      (void)::unlink(
          (Opts.Dir + "/" + detail::ckptFileName(It->first)).c_str());
      It = CkptBaseOf.erase(It);
    }
    uint64_t Barrier = Referenced.empty() ? Seq : *Referenced.begin();

    // Seal the active segment: flush its whole pending group (so the
    // sealed file is hole-free) and open the next generation.
    std::vector<SealedSegment> Trim;
    {
      std::lock_guard<std::mutex> Lock(WalM);
      uint64_t Mx = Active->seqRange().second;
      Active->sync(Mx);
      Sealed.push_back(SealedSegment{ActiveGen, Active->path(), Mx});
      ++ActiveGen;
      Active = std::make_shared<WalLog>(segmentPath(ActiveGen),
                                        Opts.FsyncOnCommit, Seq + 1);
      // Segments fully below the trim barrier are garbage. (A sealed
      // segment with records above it — a batch that committed while
      // the checkpoint was being written, or the replay suffix of an
      // older retained chain — stays until retention lets it go.)
      auto Mid = std::stable_partition(
          Sealed.begin(), Sealed.end(),
          [&](const SealedSegment &S) { return S.MaxSeq > Barrier; });
      Trim.assign(Mid, Sealed.end());
      Sealed.erase(Mid, Sealed.end());
    }
    ASPEN_FAILPOINT("wal.trim.before");
    for (const SealedSegment &S : Trim) {
      (void)::unlink(S.Path.c_str());
      ASPEN_FAILPOINT("wal.trim.mid");
    }
    ASPEN_FAILPOINT("wal.trim.after");
    return true;
  }

  /// Base generation an incremental checkpoint may chain onto right
  /// now, or nullopt when the next checkpoint must be full (no prior
  /// checkpoint, chain budget spent, incremental disabled, or a
  /// scrubber quarantine invalidated the newest generation).
  std::optional<uint64_t> incrementalBaseFor() const {
    std::lock_guard<std::mutex> CkLock(CkptM);
    uint64_t Last = LastCkptSeqV.load(std::memory_order_relaxed);
    if (Last == 0 || ForceFullNext || Opts.MaxIncrementalChain == 0 ||
        ChainLen >= Opts.MaxIncrementalChain ||
        CkptBaseOf.find(Last) == CkptBaseOf.end())
      return std::nullopt;
    return Last;
  }

  /// Scrubber hook: move a corrupt checkpoint generation aside
  /// (recovery, retention and replication ignore *.quarantine) and
  /// force the next checkpoint full so no new incremental chains onto
  /// the hole. Returns false when the file was already gone.
  bool quarantineCheckpoint(uint64_t Seq) {
    std::lock_guard<std::mutex> CkLock(CkptM);
    std::string P = Opts.Dir + "/" + detail::ckptFileName(Seq);
    bool Renamed = ::rename(P.c_str(), (P + ".quarantine").c_str()) == 0;
    CkptBaseOf.erase(Seq);
    ForceFullNext = true;
    return Renamed;
  }

  /// Scrubber hook after a verified re-fetch from the replica restored
  /// ckpt-<Seq>: put the generation back into retention bookkeeping.
  /// (The next checkpoint stays forced-full — cheap insurance after
  /// any confirmed corruption.)
  void noteCheckpointRepaired(uint64_t Seq, uint64_t BaseSeq) {
    std::lock_guard<std::mutex> CkLock(CkptM);
    CkptBaseOf[Seq] = BaseSeq;
  }

  /// Sequence of the newest durable checkpoint (0 when none).
  uint64_t lastCheckpointSeq() const {
    return LastCkptSeqV.load(std::memory_order_relaxed);
  }

  /// Path of the segment currently accepting appends (the scrubber
  /// treats it leniently: an in-flight tail is not corruption).
  std::string activeSegmentPath() const {
    std::lock_guard<std::mutex> Lock(WalM);
    return Active->path();
  }

  /// Highest sequence known durable in the active segment.
  uint64_t durableSeq() const {
    std::lock_guard<std::mutex> Lock(WalM);
    return Active->durableSeq();
  }

  /// Commit statistics of the active segment (bench/test diagnostics).
  WalStats walStats() const {
    std::lock_guard<std::mutex> Lock(WalM);
    return Active->stats();
  }

private:
  std::string segmentPath(uint64_t Gen) const {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "wal-%016llx.log",
                  static_cast<unsigned long long>(Gen));
    return Opts.Dir + "/" + Buf;
  }

public:
  /// Generation encoded in a WAL segment file name, or nullopt. (The
  /// replication layer and the scrubber parse directory listings too.)
  static std::optional<uint64_t> walGenOfName(const std::string &Name) {
    unsigned long long Gen;
    if (Name.size() == 24 &&
        std::sscanf(Name.c_str(), "wal-%16llx.log", &Gen) == 1)
      return uint64_t(Gen);
    return std::nullopt;
  }

private:
  DurabilityOptions Opts;
  RecoveredState Rec;
  /// On-disk checkpoint generations -> their base (0 = full). The key
  /// set doubles as the retention inventory.
  std::map<uint64_t, uint64_t> CkptBaseOf;
  size_t ChainLen = 0;       ///< incremental links since the last full
  bool ForceFullNext = false; ///< latched by quarantineCheckpoint()

  mutable std::mutex WalM; ///< guards Active/ActiveGen/Sealed
  std::shared_ptr<WalLog> Active;
  uint64_t ActiveGen = 1;
  std::vector<SealedSegment> Sealed;

  mutable std::mutex CkptM; ///< serializes checkpoint() + chain state
  std::atomic<uint64_t> LastCkptSeqV{0};
};

} // namespace aspen

#endif // ASPEN_STORE_DURABILITY_H
