//===- store/sharded_graph.h - Sharded versioned graph store --------------===//
//
// The Aspen version-maintenance interface (Section 6), and the repo's one
// graph store: vertices are hash-partitioned across S shards (S a power
// of two; S = 1 is the paper's single graph), each shard an independent
// purely-functional GraphSnapshotT, and the published state is an *epoch*
// — an immutable vector of per-shard snapshots held by a
// std::shared_ptr<const Epoch> that writers publish and readers load
// with the shared_ptr atomics, exactly as the hot flat cache below is
// published. Readers acquire() an epoch and are guaranteed a
// cross-shard-consistent cut: every epoch is the previous epoch plus
// complete batches only, so per-shard edge counts always sum to a batch
// boundary and no reader ever observes a torn batch. Readers are never
// blocked by writers for more than a pointer swap, giving strict
// serializability of queries with respect to update batches. An epoch
// is reclaimed when its last reference goes — the store's current slot
// or a reader's Ref, which may outlive the store — so structural
// sharing between consecutive epochs collapses to exactly the tree
// nodes unique to dead ones.
//
// The initial epoch is built like GraphSnapshotT::fromEdges, by
// GraphSnapshotT::buildShards: split by shard, groupSpan per shard, and
// one vertex-tree build over the groups and the shard's owned ids.
//
// Ingest is a pipeline (DESIGN.md Sections 3 and 8):
//   1. Prepare (no locks): the incoming spans are concatenated into one
//      merged span, partitioned by shard with filterIndexInto into
//      borrowed scratch (zero steady-state heap allocation, per the
//      AlgoContext contract), and each shard's sub-span is grouped by
//      graph.h's groupSpan — a comparison sort of the sub-span, O(K log
//      K) in the batch and independent of the shard's vertex count, so
//      a 10-edge batch costs microseconds at any n.
//      Because the grouping depends only on the batch, not on the base
//      epoch, this whole phase runs before any writer lock is taken:
//      batch N+1's group/sort overlaps batch N's merge/install instead
//      of serializing behind it.
//   2. Merge: the touched shards' writer locks are taken in ascending
//      order, then each touched shard applies its prepared groups with
//      one path-copying multi-update of its vertex tree (new vertices go
//      through multiInsert), the shards in parallel — one writer per
//      shard. The merge records the new (view, degree) slot of every
//      vertex it sets.
//   3. Install: under the commit lock, a new epoch is formed from the
//      latest published epoch with the touched shards replaced, and
//      published with one atomic shared_ptr store. Writers whose batches
//      touch disjoint shards merge concurrently and serialize only for
//      the O(S) pointer-copy install.
//   4. Ack, then flat: the batch is acknowledged at publication (after
//      the WAL group commit on a durable store). Only then, and in
//      install order, does the writer refresh a live flat from the slots
//      its merge recorded and release the flat it superseded.
//
// A prepared group may carry SEVERAL submitted batches (EdgeSpans) at
// once: the snapshot server's writer takes the same-kind batches queued
// behind the one it popped and installs them through
// serve/ingest_front.h as one merged span, which this store installs as
// a single epoch advancing BatchSeq by the number of coalesced batches
// (each batch keeps its own WAL record). Set semantics make the result
// byte-identical to one-at-a-time ingest (DESIGN.md Section 8).
//
// Readers read an epoch through View — graph.h's TreeGraphView over the
// epoch's S shard snapshots — which implements the graph-view concept
// (numVertices / numEdges / degree / neighborCursor / mapNeighbors* /
// iterNeighborsCond) that edgeMap and all the algorithms are templated
// over, so analytics run unmodified — and bit-identically — on a
// sharded acquire.
//
// acquireFlat() additionally serves a flat rendering of the current
// epoch — per-shard FlatSnapshotTs (two-level copy-on-write page tables)
// indexed by shard-local id, read through FlatView (graph.h's
// FlatGraphView over the S flats) for O(1) vertex access. The first call
// builds it; from then on every committing writer refreshes it from the
// slots its own merge recorded, right after its ack and in install
// order, so a reader only loads it (DESIGN.md Section 4).
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_STORE_SHARDED_GRAPH_H
#define ASPEN_STORE_SHARDED_GRAPH_H

#include "graph/graph.h"
#include "store/durability.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace aspen {

/// Counters of the store's hot flat snapshot (tests and benches assert
/// which path kept it current).
struct FlatMaintenanceStats {
  uint64_t Rebuilds = 0;  ///< full O(n) builds by a cold acquireFlat()
  uint64_t Refreshes = 0; ///< O(touched) refreshes by committing writers
  uint64_t Hits = 0;      ///< acquireFlat() calls served the live flat
};

/// A borrowed, immutable view of one submitted batch's edges. Spans
/// alias caller memory: the edges must stay alive until the apply (or
/// commit) call that consumes the span returns.
struct EdgeSpan {
  const EdgePair *Data = nullptr;
  size_t Size = 0;
};

/// Hash-partitioned versioned graph store over \p EdgeSet shards.
template <class EdgeSet> class ShardedGraphStoreT {
public:
  using Snapshot = GraphSnapshotT<EdgeSet>;

  /// An immutable cross-shard cut: the per-shard snapshots as of one
  /// batch boundary, plus the aggregates readers ask for on every
  /// acquire. Epochs are the versioned value of the store.
  struct Epoch {
    std::vector<Snapshot> Shards;
    uint64_t BatchSeq = 0;  ///< number of complete batches applied
    uint64_t NumEdges = 0;  ///< sum of per-shard directed edge counts
    VertexId Universe = 0;  ///< max materialized vertex id + 1
  };

  /// Graph-view over an epoch: vertex resolution costs one shard pick
  /// (a mask) plus an O(log n/S) lookup in the owning shard's tree.
  using View = TreeGraphView<EdgeSet>;
  /// Graph-view over a FlatEpoch: a mask, a shift, a range check and two
  /// array reads.
  using FlatView = FlatGraphView<EdgeSet>;

  /// RAII reader handle to an acquired epoch (releasing is automatic).
  /// It owns a reference to the epoch, so it may outlive the store.
  class Ref {
  public:
    Ref() = default;
    Ref(Ref &&) noexcept = default;
    Ref &operator=(Ref &&) noexcept = default;

    const Epoch &epoch() const {
      assert(E && "empty epoch handle");
      return *E;
    }
    uint64_t batchSeq() const { return epoch().BatchSeq; }
    uint64_t numEdges() const { return epoch().NumEdges; }
    size_t numShards() const { return epoch().Shards.size(); }
    const Snapshot &shard(size_t S) const { return epoch().Shards[S]; }

    /// Graph-view over the whole epoch; this handle must outlive it.
    View view() const {
      const Epoch &Ep = epoch();
      return View(Ep.Shards.data(), detail::log2Floor(Ep.Shards.size()),
                  Ep.Universe, Ep.NumEdges);
    }

    bool valid() const { return E != nullptr; }
    void reset() { E.reset(); }

  private:
    friend class ShardedGraphStoreT;
    explicit Ref(std::shared_ptr<const Epoch> E) : E(std::move(E)) {}
    std::shared_ptr<const Epoch> E;
  };

  /// Construct an empty store with \p NumShards shards (rounded up to a
  /// power of two) over the vertex universe [0, N): every vertex is
  /// materialized with an empty edge set in its owning shard, matching
  /// GraphSnapshotT::fromEdges.
  explicit ShardedGraphStoreT(size_t NumShards, VertexId N = 0)
      : ShardedGraphStoreT(NumShards, N, std::vector<EdgePair>{}) {}

  /// BuildGraph counterpart: a sharded store over vertices [0, N)
  /// containing \p Edges, partitioned by shardOf(). All shards build
  /// and update their edge sets under the same \p P (per-store, not
  /// process-global).
  ShardedGraphStoreT(size_t NumShards, VertexId N,
                     std::vector<EdgePair> Edges,
                     typename EdgeSet::BuildParams P = {})
      : LogShards(log2Ceil(NumShards)),
        Mask(VertexId((size_t(1) << LogShards) - 1)), Params(P),
        ShardLocks(new std::mutex[size_t(1) << LogShards]),
        Current(initialEpoch(LogShards, N, Edges, P)) {}

  /// Durable open (opt-in; DESIGN.md Section 7): recover the newest
  /// valid checkpoint from \p O.Dir, replay the WAL suffix through the
  /// normal batch pipeline, and WAL-log + group-commit every subsequent
  /// batch before acknowledging it. A checkpoint's shard count is
  /// authoritative — \p NumShards only shapes a fresh directory (the
  /// hash partition must match the one the checkpointed shards were
  /// built under).
  ShardedGraphStoreT(const DurabilityOptions &O, size_t NumShards,
                     VertexId N, typename EdgeSet::BuildParams P = {})
      : ShardedGraphStoreT(std::make_unique<DurabilityEngine>(O), NumShards,
                           N, P) {}

  ShardedGraphStoreT(const ShardedGraphStoreT &) = delete;
  ShardedGraphStoreT &operator=(const ShardedGraphStoreT &) = delete;

  size_t numShards() const { return size_t(1) << LogShards; }

  typename EdgeSet::BuildParams buildParams() const { return Params; }

  /// Owning shard of a vertex. The partition hash folds the id's low
  /// bits: scattered real-world ids and generator ids both spread evenly,
  /// and the complementary high bits form the shard-local dense id the
  /// per-shard flat snapshots index by.
  size_t shardOf(VertexId V) const { return size_t(V & Mask); }

  /// Acquire the current epoch. Never blocked by writers for more than a
  /// pointer swap; the returned cut is always a whole-batch boundary.
  Ref acquire() {
    return Ref(std::atomic_load_explicit(&Current, std::memory_order_acquire));
  }

  /// Number of complete batches applied so far (one atomic load; the
  /// mirror is published under the commit lock).
  uint64_t batchSeq() const {
    return PublishedSeqV.load(std::memory_order_acquire);
  }

  /// Atomically apply an insert batch (see class comment for the
  /// pipeline); returns the new epoch's batch sequence number. Many
  /// threads may call concurrently; batches touching disjoint shards
  /// merge in parallel, and same-shard writers overlap their group/sort
  /// phase with the predecessor's merge/install.
  uint64_t insertBatch(const EdgePair *Edges, size_t K) {
    EdgeSpan S{Edges, K};
    return applySpans(&S, 1, /*Insert=*/true);
  }
  uint64_t insertBatch(const std::vector<EdgePair> &Edges) {
    return insertBatch(Edges.data(), Edges.size());
  }

  /// Atomically apply a delete batch.
  uint64_t deleteBatch(const EdgePair *Edges, size_t K) {
    EdgeSpan S{Edges, K};
    return applySpans(&S, 1, /*Insert=*/false);
  }
  uint64_t deleteBatch(const std::vector<EdgePair> &Edges) {
    return deleteBatch(Edges.data(), Edges.size());
  }

  //===--------------------------------------------------------------------===
  // Coalesced / pipelined ingest (DESIGN.md Section 8). EdgeSpans borrow
  // their edges from the caller, which must keep them alive until the
  // apply/commit call returns.
  //===--------------------------------------------------------------------===

  /// Atomically apply \p N same-kind batches as ONE merged span and ONE
  /// installed epoch: BatchSeq advances by N (every submitted batch keeps
  /// its own sequence number and, on a durable store, its own WAL
  /// record), and the final state is byte-identical to applying the
  /// batches one at a time. Returns the LAST batch's sequence number.
  uint64_t applySpans(const EdgeSpan *Spans, size_t N, bool Insert) {
    if (N == 0)
      return batchSeq();
    return commitPrepared(prepareSpans(Spans, N, Insert));
  }

  /// A batch group that finished its lock-free prepare phase (split by
  /// shard + groupSpan grouping + per-group edge-set builds) and is
  /// ready to merge/install. Produced by prepareSpans(), consumed by
  /// commitPrepared(). Move-only; its grouped sets live in borrowed
  /// worker-cache scratch, which migrates safely across threads on
  /// release — though keeping prepare and commit on one thread (as the
  /// ingest front does) preserves cache locality.
  class PreparedIngest {
  public:
    PreparedIngest() = default;
    PreparedIngest(PreparedIngest &&) = default;
    PreparedIngest &operator=(PreparedIngest &&) = default;

  private:
    friend class ShardedGraphStoreT;
    std::vector<std::optional<PairScratch<VertexId, EdgeSet>>>
        Groups;                  // per shard
    std::vector<EdgeSpan> Spans; ///< original batches, for the WAL
    bool Insert = false;
  };

  /// Prepare phase: coalesce \p N same-kind spans into one merged span,
  /// split it by owning shard, and group every shard's sub-span. Takes
  /// no locks, so concurrent writers overlap it with a predecessor's
  /// merge/install.
  PreparedIngest prepareSpans(const EdgeSpan *Spans, size_t N, bool Insert) {
    size_t S = numShards();
    PreparedIngest P;
    P.Insert = Insert;
    P.Spans.assign(Spans, Spans + N);
    // Sized at construction (optional<PairScratch> is not movable, so
    // the vector must never reallocate; moving the vector itself is a
    // buffer steal and stays legal).
    P.Groups = std::vector<std::optional<PairScratch<VertexId, EdgeSet>>>(S);
    size_t K = 0;
    for (size_t I = 0; I < N; ++I)
      K += Spans[I].Size;
    if (K == 0)
      return P;

    // The coalesced span: a single batch aliases its caller's buffer; a
    // group concatenates into scratch (this IS the "merged span").
    std::optional<CtxArray<EdgePair>> AllStore;
    const EdgePair *AllP = Spans[0].Data;
    if (N > 1) {
      AllStore.emplace(K);
      EdgePair *Dst = AllStore->data();
      size_t At = 0;
      for (size_t I = 0; I < N; ++I) {
        if (Spans[I].Size)
          std::copy(Spans[I].Data, Spans[I].Data + Spans[I].Size, Dst + At);
        At += Spans[I].Size;
      }
      AllP = Dst;
    }

    // Split by owning shard, then group each shard's sub-span (parallel
    // across shards; the per-group set builds fan out further inside).
    CtxArray<EdgePair> Parts(K);
    EdgePair *PartsP = Parts.data();
    CtxArray<size_t> ShardLo(S + 1);
    size_t *ShardLoP = ShardLo.data();
    splitByShard(AllP, K, S, PartsP, ShardLoP);
    parallelFor(0, S, [&](size_t Sh) {
      size_t Lo = ShardLoP[Sh], Hi = ShardLoP[Sh + 1];
      if (Hi > Lo)
        groupSpan<EdgeSet>(PartsP + Lo, Hi - Lo, Params, P.Groups[Sh]);
    }, 1);
    return P;
  }

  /// Merge/install phase: lock the touched shards in ascending order,
  /// tree-merge the prepared groups in parallel, and publish one epoch
  /// advancing BatchSeq by the number of coalesced batches. Returns the
  /// last batch's sequence number.
  uint64_t commitPrepared(PreparedIngest P) {
    size_t S = numShards();
    CtxArray<uint8_t> TouchedSh(S);
    uint8_t *TouchedShP = TouchedSh.data();
    for (size_t Sh = 0; Sh < S; ++Sh)
      TouchedShP[Sh] =
          P.Groups[Sh].has_value() && P.Groups[Sh]->size() > 0;
    for (size_t Sh = 0; Sh < S; ++Sh)
      if (TouchedShP[Sh])
        ShardLocks[Sh].lock();
    return mergeInstall(P.Groups, TouchedShP, P.Spans.data(), P.Spans.size(),
                        P.Insert);
  }

  //===--------------------------------------------------------------------===
  // Hot-epoch flat snapshots (DESIGN.md Section 4): per-shard
  // copy-on-write flat snapshots indexed by shard-local id, kept current
  // by the committing writers from their merges' slots and read through
  // FlatView, so analytics get O(1) vertex access on the latest epoch
  // without an O(n) rebuild per batch.
  //===--------------------------------------------------------------------===

  using Flat = FlatSnapshotT<EdgeSet>;

  /// An immutable flat rendering of one epoch: per-shard flat snapshots
  /// (slot = local id = v >> log2(S)) plus the epoch aggregates.
  struct FlatEpoch {
    std::vector<Flat> Flats;
    uint64_t BatchSeq = 0;
    uint64_t NumEdges = 0;
    VertexId Universe = 0;
    size_t LogShards = 0;

    /// Graph-view over this flat epoch; the FlatEpoch (its shared_ptr)
    /// must outlive the view.
    FlatView view() const {
      return FlatView(Flats.data(), unsigned(LogShards), Universe, NumEdges);
    }
  };

  /// Flat rendering of the current epoch. The first call builds it (a
  /// full parallel rebuild); from then on it is live: the writer of every
  /// install refreshes it right after its ack (mergeInstall), so this is
  /// one atomic seq load and one atomic shared_ptr load. A call that
  /// finds the flat behind the published epoch waits for the writers
  /// refreshing it and never refreshes itself; it rebuilds only when no
  /// flat is live (cold, or dropped after a failed install). A store that
  /// is never read flat pays one atomic load per install. Hold the
  /// shared_ptr while using the view.
  std::shared_ptr<const FlatEpoch> acquireFlat() {
    // The seq is read FIRST; if the live flat then matches it, that flat
    // rendered the epoch current at the instant of the seq read (the
    // flat never regresses, and a newer one carries a larger seq).
    uint64_t Seq = batchSeq();
    {
      std::shared_ptr<const FlatEpoch> Hot =
          std::atomic_load_explicit(&CachedFlat, std::memory_order_acquire);
      if (Hot && Hot->BatchSeq == Seq) {
        FlatHitsV.fetch_add(1, std::memory_order_relaxed);
        return Hot;
      }
    }

    std::unique_lock<std::mutex> Lock(FlatM);
    // Every install up to Seq is published, and its writer refreshes a
    // live flat in install order; a newer flat rendered an epoch that was
    // current during this call.
    FlatCV.wait(Lock,
                [&] { return !CachedFlat || CachedFlat->BatchSeq >= Seq; });
    if (CachedFlat) {
      FlatHitsV.fetch_add(1, std::memory_order_relaxed);
      return CachedFlat;
    }
    // Cold: rebuild. Pairs with maintainFlat()'s check (both seq_cst):
    // either the writer of the next install sees FlatLive and refreshes
    // this flat, or this load sees that install's seq and the epoch
    // acquired below already contains it.
    FlatLive.store(true);
    uint64_t Floor = PublishedSeqV.load();
    Ref E = acquire();
    assert(E.batchSeq() >= Floor);
    (void)Floor;
    std::shared_ptr<const FlatEpoch> New = flatOf(E.epoch(), [&](size_t Sh) {
      return Flat(E.shard(Sh), unsigned(LogShards));
    });
    FlatRebuildsV.fetch_add(1, std::memory_order_relaxed);
    std::atomic_store_explicit(&CachedFlat, New, std::memory_order_release);
    Lock.unlock();
    FlatCV.notify_all();
    return New;
  }

  /// Rebuild/refresh/hit counters of the flat (diagnostics, tests). Hits
  /// counts acquireFlat() calls served the live flat, with or without
  /// waiting for a writer's refresh.
  FlatMaintenanceStats flatStats() const {
    return {FlatRebuildsV.load(std::memory_order_relaxed),
            FlatRefreshesV.load(std::memory_order_relaxed),
            FlatHitsV.load(std::memory_order_relaxed)};
  }

  /// Durability engine of a durable store (nullptr on a memory-only
  /// store). Diagnostics only — the store drives it internally.
  const DurabilityEngine *durability() const { return Durable.get(); }

  /// Mutable engine access for the self-healing layer: the scrubber and
  /// the replication drivers (store/replication.h) attach here.
  DurabilityEngine *durability() { return Durable.get(); }

  /// Serialize the current epoch as a durable checkpoint, rotate the
  /// WAL, and drop the log prefix it covers. Durable stores only; safe
  /// under concurrent ingest — the checkpoint is one acquired epoch's
  /// consistent cut, and only WAL records it covers are trimmed.
  ///
  /// Incremental (DESIGN.md Section 9): shard snapshots are immutable
  /// functional trees, so "changed since the last checkpoint" is one
  /// root-pointer comparison against the pinned last-checkpoint epoch.
  /// When the engine offers a base generation, only changed shards are
  /// serialized and written; the manifest chains back to the base.
  uint64_t checkpointNow() {
    if (!Durable)
      throw std::logic_error("checkpointNow on a memory-only store");
    std::lock_guard<std::mutex> G(CkptStateM);
    Ref E = acquire();
    size_t S = numShards();
    std::vector<std::vector<uint8_t>> Streams(S);
    std::optional<uint64_t> Base = Durable->incrementalBaseFor();
    bool Wrote = false;
    if (Base && CkptEpoch.valid() && CkptEpoch.batchSeq() == *Base) {
      std::vector<uint8_t> Present(S, 0);
      for (size_t Sh = 0; Sh < S; ++Sh)
        Present[Sh] = E.shard(Sh).root() != CkptEpoch.shard(Sh).root();
      parallelFor(0, S, [&](size_t Sh) {
        if (Present[Sh])
          serializeSnapshot(E.shard(Sh), Streams[Sh]);
      }, 1);
      Wrote = Durable->checkpoint(E.batchSeq(), uint32_t(LogShards),
                                  Streams, *Base, &Present);
      if (!Wrote) {
        // The base went stale under us (e.g. the scrubber quarantined
        // it); flush the missing shards and retry as a full checkpoint.
        parallelFor(0, S, [&](size_t Sh) {
          if (!Present[Sh])
            serializeSnapshot(E.shard(Sh), Streams[Sh]);
        }, 1);
        Wrote = Durable->checkpoint(E.batchSeq(), uint32_t(LogShards),
                                    Streams);
      }
    } else {
      parallelFor(0, S, [&](size_t Sh) {
        serializeSnapshot(E.shard(Sh), Streams[Sh]);
      }, 1);
      Wrote = Durable->checkpoint(E.batchSeq(), uint32_t(LogShards),
                                  Streams);
    }
    if (Wrote) {
      // Pin this epoch until the next checkpoint: the pin keeps the
      // shard roots alive, so pointer identity against them stays
      // sound (structural sharing bounds the pinned delta).
      CkptEpoch = std::move(E);
      return CkptEpoch.batchSeq();
    }
    return E.batchSeq();
  }

private:
  /// Durable-open worker: shard geometry comes from the recovered
  /// checkpoint when one exists (the partition hash must match the one
  /// the checkpointed shards were built under).
  ShardedGraphStoreT(std::unique_ptr<DurabilityEngine> Eng, size_t NumShards,
                     VertexId N, typename EdgeSet::BuildParams P)
      : LogShards(Eng->recovered().Ckpt
                      ? size_t(Eng->recovered().Ckpt->LogShards)
                      : log2Ceil(NumShards)),
        Mask(VertexId((size_t(1) << LogShards) - 1)), Params(P),
        ShardLocks(new std::mutex[size_t(1) << LogShards]),
        Current(initialEpoch(LogShards, N, {}, P)),
        Durable(std::move(Eng)) {
    const RecoveredState &R = Durable->recovered();
    size_t S = numShards();
    if (R.Ckpt) {
      if (R.Ckpt->ShardStreams.size() != S)
        throw CorruptCheckpoint("sharded checkpoint shard-count mismatch");
      auto E = std::make_shared<Epoch>();
      E->Shards.resize(S);
      std::vector<std::exception_ptr> Errs(S);
      parallelFor(0, S, [&](size_t Sh) {
        try {
          ByteReader Rd(R.Ckpt->ShardStreams[Sh].data(),
                        R.Ckpt->ShardStreams[Sh].size());
          E->Shards[Sh] = deserializeSnapshot<EdgeSet>(Rd, Params);
        } catch (...) {
          Errs[Sh] = std::current_exception();
        }
      }, 1);
      for (std::exception_ptr &Ep : Errs)
        if (Ep)
          std::rethrow_exception(Ep);
      E->BatchSeq = R.Ckpt->Seq;
      finalizeAggregates(*E, N);
      publish(std::move(E));
      PublishedSeqV.store(R.Ckpt->Seq, std::memory_order_release);
      // Pin the checkpoint epoch before replay: the first post-recovery
      // checkpoint can then be incremental against the recovered base
      // (untouched shards share these exact roots across replay).
      CkptEpoch = acquire();
    }
    // Replay the WAL suffix through the normal pipeline, one epoch per
    // logged batch (Recovering gates the WAL re-append).
    Recovering = true;
    for (const WalReplayRecord &RR : R.Replay) {
      EdgeSpan Span{RR.Edges.data(), RR.Edges.size()};
      uint64_t Seq =
          applySpans(&Span, 1, RR.Kind == WalKind::InsertBatch);
      (void)Seq;
      assert(Seq == RR.Seq && "replay must reproduce the batch sequence");
    }
    Recovering = false;
    Durable->dropRecoveredPayload();
    // Recovery priming: a store recovered from a checkpoint builds its
    // flat once, from the replayed epoch, so the first acquireFlat()
    // after a restart is a hit and every later install refreshes it.
    if (R.Ckpt)
      acquireFlat();
  }

  using Slot = VertexSlot<EdgeSet>;

  static size_t log2Ceil(size_t S) {
    size_t L = 0;
    while ((size_t(1) << L) < S)
      ++L;
    return L;
  }

  /// The store's first epoch: vertices [0, N) and \p Edges, built by
  /// the same routine as GraphSnapshotT::fromEdges.
  static std::shared_ptr<const Epoch>
  initialEpoch(size_t LogShards, VertexId N, const std::vector<EdgePair> &Edges,
               typename EdgeSet::BuildParams P) {
    auto E = std::make_shared<Epoch>();
    E->Shards.resize(size_t(1) << LogShards);
    Snapshot::buildShards(Edges.data(), Edges.size(), LogShards, N, P,
                          E->Shards.data());
    finalizeAggregates(*E, N);
    return E;
  }

  /// Make \p E the current epoch (callers hold CommitM or own the store
  /// exclusively); pairs with acquire()'s atomic load.
  void publish(std::shared_ptr<const Epoch> E) {
    std::atomic_store_explicit(&Current, std::move(E),
                               std::memory_order_release);
  }

  static void finalizeAggregates(Epoch &E, VertexId FloorUniverse) {
    uint64_t Edges = 0;
    VertexId U = FloorUniverse;
    for (const Snapshot &S : E.Shards) {
      Edges += S.numEdges();
      U = std::max(U, S.vertexUniverse());
    }
    E.NumEdges = Edges;
    E.Universe = U;
  }

  /// Shared merge + install tail. Preconditions: the shards flagged in
  /// \p TouchedShP are locked (ascending), \p Groups holds their prepared
  /// groups, and \p Spans are the \p NumSpans
  /// original batches the groups coalesce (WAL payloads, one record
  /// each). Publishes ONE epoch advancing BatchSeq by \p NumSpans and
  /// returns the last batch's sequence number.
  uint64_t mergeInstall(
      std::vector<std::optional<PairScratch<VertexId, EdgeSet>>> &Groups,
      const uint8_t *TouchedShP, const EdgeSpan *Spans, size_t NumSpans,
      bool Insert) {
    size_t S = numShards();
    // --- Merge: per-shard functional merges of the prepared groups, in
    // parallel (one writer per shard; concurrent batches on disjoint
    // shards overlap fully). Each records the slots it set. ---
    using PerShard = typename std::aligned_storage<sizeof(Snapshot),
                                                   alignof(Snapshot)>::type;
    CtxArray<PerShard> MergedMem(S);
    Snapshot *Merged = reinterpret_cast<Snapshot *>(MergedMem.data());
    // The base epoch: acquired after the shard locks, so every touched
    // shard's value is its latest *committed* state (a predecessor holds
    // the shard lock until its install completes). Held until all locks
    // are dropped: releasing it earlier could make this writer reclaim a
    // superseded epoch while holding locks others wait on.
    Ref Base = acquire();
    std::vector<std::vector<Slot>> Slots(S);
    parallelFor(0, S, [&](size_t Sh) {
      if (!TouchedShP[Sh]) {
        new (&Merged[Sh]) Snapshot();
        return;
      }
      const auto *G = Groups[Sh]->data();
      size_t NG = Groups[Sh]->size();
      Slots[Sh].resize(NG);
      new (&Merged[Sh]) Snapshot(
          Insert ? Base.shard(Sh).insertGrouped(G, NG, Slots[Sh].data())
                 : Base.shard(Sh).deleteGrouped(G, NG, Slots[Sh].data()));
    }, 1);

    // --- Install: publish a new epoch formed from the latest committed
    // epoch with the touched shards replaced. Only the O(S) vector copy
    // and pointer swap happen under the commit lock; the superseded
    // epoch's reclamation (freeing the replaced shards' tree delta) is
    // deferred until every lock is released, so concurrent
    // disjoint-shard writers never serialize behind it. ---
    uint64_t Prev, Seq;
    Ref Latest, Installed;
    DurabilityEngine::Ticket Tk;
    try {
      std::lock_guard<std::mutex> Lock(CommitM);
      Latest = acquire();
      auto Next = std::make_shared<Epoch>();
      Next->Shards = Latest.epoch().Shards;
      for (size_t Sh = 0; Sh < S; ++Sh)
        if (TouchedShP[Sh])
          Next->Shards[Sh] = std::move(Merged[Sh]);
      Prev = Latest.epoch().BatchSeq;
      Next->BatchSeq = Prev + NumSpans;
      finalizeAggregates(*Next, Latest.epoch().Universe);
      Seq = Next->BatchSeq;
      // WAL appends under the commit lock: file order = install order,
      // one record per coalesced batch carrying its original (unsorted,
      // unsplit) edges, so replay — which runs batch-per-epoch —
      // reproduces every acknowledged sequence number exactly. The
      // group commit itself happens after the locks are released.
      if (Durable && !Recovering)
        for (size_t I = 0; I < NumSpans; ++I)
          Tk = Durable->append(Insert ? WalKind::InsertBatch
                                      : WalKind::DeleteBatch,
                               Prev + I + 1, Spans[I].Data, Spans[I].Size);
      // Latest still holds the superseded epoch, so this store never
      // reclaims it under the lock; Installed keeps the new one (which
      // the slots point into) alive for the flat refresh.
      Installed = Ref(Next);
      publish(std::move(Next));
      // seq_cst: pairs with acquireFlat()'s rebuild (see maintainFlat).
      PublishedSeqV.store(Seq);
    } catch (...) {
      // A poisoned WAL (or an injected crash) must not strand the shard
      // locks or leak the merged snapshots: unwind cleanly, without
      // installing, and let the caller see the failure.
      for (size_t Sh = 0; Sh < S; ++Sh)
        Merged[Sh].~Snapshot();
      for (size_t Sh = S; Sh-- > 0;)
        if (TouchedShP[Sh])
          ShardLocks[Sh].unlock();
      throw;
    }
    for (size_t Sh = 0; Sh < S; ++Sh)
      Merged[Sh].~Snapshot();
    for (size_t Sh = S; Sh-- > 0;)
      if (TouchedShP[Sh])
        ShardLocks[Sh].unlock();
    // Superseded-epoch reclamation outside every lock (unless a reader
    // still holds it).
    Base.reset();
    Latest.reset();
    // The ack: publication above, plus the group commit on a durable
    // store (acknowledged == durable, all coalesced seqs). The flat is
    // refreshed only after it, so the refresh never delays this batch's
    // ack; a failed sync drops the flat instead.
    if (Tk.Log) {
      try {
        Durable->sync(Tk);
      } catch (...) {
        maintainFlat(Prev, nullptr, Slots);
        throw;
      }
    }
    maintainFlat(Prev, &Installed.epoch(), Slots);
    if (Tk.Log)
      checkpointIfDue(Seq);
    return Seq;
  }

  /// A flat epoch of \p E whose shard Sh is \p MakeShard(Sh), the shards
  /// built in parallel.
  template <class F>
  std::shared_ptr<const FlatEpoch> flatOf(const Epoch &E, F &&MakeShard) {
    auto New = std::make_shared<FlatEpoch>();
    New->Flats.resize(E.Shards.size());
    parallelFor(0, E.Shards.size(), [&](size_t Sh) {
      New->Flats[Sh] = MakeShard(Sh);
    }, 1);
    New->BatchSeq = E.BatchSeq;
    New->NumEdges = E.NumEdges;
    New->Universe = E.Universe;
    New->LogShards = LogShards;
    return New;
  }

  /// Writer-side flat maintenance, run by the writer of the install that
  /// advanced BatchSeq from \p Prev to \p Next's, after its ack. Once a
  /// flat is live, waits for the flat of \p Prev (refreshes follow install
  /// order, also across concurrent disjoint-shard writers) and refreshes
  /// it to \p Next from the merge's per-shard \p Slots; untouched shards
  /// share their flats wholesale. With \p Next null (the install failed
  /// after it was published), or if the refresh throws, the flat is
  /// dropped instead, so the next acquireFlat() rebuilds and no waiter is
  /// stranded. The superseded flat is released here, after FlatM.
  void maintainFlat(uint64_t Prev, const Epoch *Next,
                    const std::vector<std::vector<Slot>> &Slots) {
    // seq_cst, after the seq_cst PublishedSeqV store: a cold rebuild that
    // this load misses acquires an epoch containing this install.
    if (!FlatLive.load())
      return;
    std::shared_ptr<const FlatEpoch> Old;
    {
      std::unique_lock<std::mutex> Lock(FlatM);
      FlatCV.wait(Lock,
                  [&] { return !CachedFlat || CachedFlat->BatchSeq >= Prev; });
      // Dropped, or a rebuild already rendered a later epoch.
      if (!CachedFlat || CachedFlat->BatchSeq != Prev)
        return;
      std::shared_ptr<const FlatEpoch> New;
      if (Next) {
        try {
          const FlatEpoch &P = *CachedFlat;
          New = flatOf(*Next, [&](size_t Sh) {
            const std::vector<Slot> &T = Slots[Sh];
            return T.empty() ? P.Flats[Sh]
                             : Flat::refresh(P.Flats[Sh], Next->Shards[Sh],
                                             T.data(), T.size());
          });
          FlatRefreshesV.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
          // The batch is installed and acknowledged: report nothing, and
          // let the next acquireFlat() rebuild.
        }
      }
      Old = std::atomic_exchange_explicit(&CachedFlat, std::move(New),
                                          std::memory_order_acq_rel);
    }
    FlatCV.notify_all();
  }

  /// Auto-checkpoint trigger (CheckpointEveryBatches): at most one
  /// ingest thread checkpoints at a time. A thread that finds the
  /// trigger held does NOT skip the due checkpoint — it latches
  /// CkptPending, and the holder drains the flag before quiescing (a
  /// plain try_lock-and-skip could starve the trigger forever under
  /// steady ingest: every acknowledger finds some peer holding the
  /// mutex and no one checkpoints). Invariant at quiescence:
  /// batchSeq() - lastCheckpointSeq() < CheckpointEveryBatches.
  void checkpointIfDue(uint64_t Seq) {
    uint64_t Every = Durable->options().CheckpointEveryBatches;
    if (!Every || Seq < Durable->lastCheckpointSeq() + Every)
      return;
    CkptPending.store(true, std::memory_order_release);
    while (CkptTriggerM.try_lock()) {
      {
        std::lock_guard<std::mutex> G(CkptTriggerM, std::adopt_lock);
        while (CkptPending.exchange(false, std::memory_order_acq_rel))
          if (batchSeq() >= Durable->lastCheckpointSeq() + Every)
            checkpointNow();
      }
      // A peer may have latched the flag after our drain but lost its
      // try_lock to us: re-check now that the mutex is free, else its
      // due checkpoint would wait for the next acknowledged batch.
      if (!CkptPending.load(std::memory_order_acquire))
        return;
    }
    // try_lock failed: the holder is inside the drain loop (or its own
    // post-unlock re-check) and will observe our flag.
  }

  size_t LogShards;
  VertexId Mask;
  typename EdgeSet::BuildParams Params{};
  std::unique_ptr<std::mutex[]> ShardLocks;
  std::mutex CommitM;
  // The current epoch, loaded by acquire() and replaced by publish()
  // with the shared_ptr atomics.
  std::shared_ptr<const Epoch> Current;
  // Lock-free mirror of the published epoch's BatchSeq (stored under
  // CommitM, read by batchSeq() and the acquireFlat fast path).
  std::atomic<uint64_t> PublishedSeqV{0};

  // Incremental-checkpoint state (guarded by CkptStateM): the epoch of
  // the last written checkpoint, pinned so shard-root pointer identity
  // against it stays sound until the next checkpoint replaces the pin.
  std::mutex CkptStateM;
  Ref CkptEpoch;

  // Durability (nullptr on a memory-only store); Recovering gates the
  // WAL re-append while the constructor replays the recovered log.
  std::unique_ptr<DurabilityEngine> Durable;
  bool Recovering = false;
  std::mutex CkptTriggerM;
  std::atomic<bool> CkptPending{false};

  // Hot-flat state (DESIGN.md Section 4). CachedFlat is replaced only
  // under FlatM (always with the shared_ptr atomics) and read lock-free by
  // acquireFlat()'s fast path; FlatCV wakes the readers and writers that
  // wait for it to reach a seq. FlatLive is set by the first rebuild and
  // tells writers to maintain the flat.
  std::mutex FlatM;
  std::condition_variable FlatCV;
  std::shared_ptr<const FlatEpoch> CachedFlat;
  std::atomic<bool> FlatLive{false};
  // FlatMaintenanceStats counters, one relaxed atomic per event.
  std::atomic<uint64_t> FlatRebuildsV{0}, FlatRefreshesV{0}, FlatHitsV{0};
};

/// Default Aspen configuration: C-tree shards with difference encoding.
using ShardedGraphStore =
    ShardedGraphStoreT<CTreeSet<VertexId, DeltaByteCodec>>;
/// Degree-adaptive hybrid shards (graph/hybrid_set.h).
using HybridShardedGraphStore = ShardedGraphStoreT<HybridEdgeSet>;

} // namespace aspen

#endif // ASPEN_STORE_SHARDED_GRAPH_H
