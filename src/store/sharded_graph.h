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
//      vertex it sets: the epoch's digest for the flat refresh.
//   3. Install: under the commit lock, a new epoch is formed from the
//      latest published epoch with the touched shards replaced, and
//      published with one atomic shared_ptr store. Writers whose batches
//      touch disjoint shards merge concurrently and serialize only for
//      the O(S) pointer-copy install.
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
// acquireFlat() additionally maintains a hot flat rendering of the
// current epoch — per-shard FlatSnapshotTs (two-level copy-on-write page
// tables) indexed by shard-local id, read through FlatView (graph.h's
// FlatGraphView over the S flats) for O(1) vertex access — refreshed
// batch-to-batch from the slot digests the merges recorded instead of
// rebuilt (DESIGN.md Section 4).
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_STORE_SHARDED_GRAPH_H
#define ASPEN_STORE_SHARDED_GRAPH_H

#include "graph/graph.h"
#include "store/durability.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace aspen {

/// Rebuild-vs-refresh counters of the store's hot flat snapshot (tests
/// and benches assert which maintenance path served an acquireFlat()).
struct FlatMaintenanceStats {
  uint64_t Rebuilds = 0;  ///< full O(n) flat builds
  uint64_t Refreshes = 0; ///< O(touched) incremental refreshes
  uint64_t Hits = 0;      ///< served the cached flat unchanged
};

/// Tuning constants of the hot-flat maintenance path: refresh when the
/// replayed digests touch at most universe / FlatRefreshDenominator
/// distinct vertices, covering at most FlatReplayMaxEpochs epochs;
/// anything else rebuilds. The digest log holds at most that many
/// epochs and universe / FlatRefreshDenominator recorded slots. With the
/// slots from the merge a refresh beats a rebuild past n/2, so the
/// denominator is a memory bound on the log, not a measured crossover;
/// see DESIGN.md Section 4 and the crossover/* rows of
/// BENCH_flat_snapshot.json.
inline constexpr uint64_t FlatRefreshDenominator = 8;
inline constexpr size_t FlatReplayMaxEpochs = 64;

/// A borrowed, immutable view of one submitted batch's edges. Spans
/// alias caller memory: the edges must stay alive until the apply (or
/// commit) call that consumes the span returns.
struct EdgeSpan {
  const EdgePair *Data = nullptr;
  size_t Size = 0;
};

/// Bounded log of per-install deltas keyed by batch sequence number.
/// The store records, for each installed epoch, a small summary of what
/// changed relative to its predecessor (the touched-vertex digest); the
/// hot flat cache, pinned at sequence F, catches up to T by replaying
/// the deltas for (F, T] instead of rebuilding.
///
/// The log only answers for *contiguous* spans: recording a sequence
/// number that does not directly follow the previous recorded one (an
/// install whose delta was not captured) clears the log, so a
/// successful replay() is always a complete, gap-free reconstruction and
/// anything else falls back to the consumer's full rebuild. Bounded to
/// \p MaxEntries recent installs and, when record() is given a weight
/// bound, to that total weight (the oldest entries go first); older
/// consumers rebuild too.
///
/// record() is called by writers (serialized by the store's commit
/// lock); replay() by readers. Both take the internal mutex, so the log
/// is safe against concurrent readers and a concurrent writer.
template <class DeltaT> class DeltaLogT {
  struct Entry {
    uint64_t Seq;
    DeltaT Delta;
    uint64_t Weight;
  };

public:
  explicit DeltaLogT(size_t MaxEntries = 64) : MaxEntries(MaxEntries) {}

  /// Record the delta of the install that produced \p Seq, of size
  /// \p Weight, then drop the oldest entries until the log holds at most
  /// MaxEntries entries of total weight at most \p MaxWeight (a delta
  /// heavier than the bound leaves the log empty). Clears the log first
  /// when \p Seq does not follow the last recorded one (some install
  /// went unrecorded; spans across it must rebuild).
  void record(uint64_t Seq, DeltaT Delta, uint64_t Weight = 0,
              uint64_t MaxWeight = UINT64_MAX) {
    std::lock_guard<std::mutex> Lock(M);
    if (!Entries.empty() && Entries.back().Seq + 1 != Seq)
      clearLocked();
    Entries.push_back(Entry{Seq, std::move(Delta), Weight});
    TotalWeight += Weight;
    while (!Entries.empty() &&
           (Entries.size() > MaxEntries || TotalWeight > MaxWeight)) {
      TotalWeight -= Entries.front().Weight;
      Entries.pop_front();
    }
  }

  /// Drop every recorded delta (e.g. after an install whose delta was
  /// deliberately not captured); subsequent replays across this point
  /// report non-coverage.
  void clear() {
    std::lock_guard<std::mutex> Lock(M);
    clearLocked();
  }

  /// Invoke \p Fn on the delta of every sequence number in (\p From,
  /// \p To], oldest first. Returns false without invoking \p Fn at all
  /// when the log does not cover the whole span (gap, trimmed history,
  /// or From > To).
  template <class F> bool replay(uint64_t From, uint64_t To, F &&Fn) const {
    std::lock_guard<std::mutex> Lock(M);
    if (From >= To)
      return From == To;
    if (Entries.empty() || Entries.front().Seq > From + 1 ||
        Entries.back().Seq < To)
      return false;
    size_t I = size_t(From + 1 - Entries.front().Seq);
    for (uint64_t S = From + 1; S <= To; ++S, ++I)
      Fn(Entries[I].Delta);
    return true;
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Entries.size();
  }

private:
  void clearLocked() {
    Entries.clear();
    TotalWeight = 0;
  }

  mutable std::mutex M;
  std::deque<Entry> Entries;
  uint64_t TotalWeight = 0;
  size_t MaxEntries;
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
  // copy-on-write flat snapshots indexed by shard-local id, maintained
  // epoch-to-epoch from the ingest pipeline's touched digests and read
  // through FlatView, so analytics get O(1) vertex access on the latest
  // epoch without an O(n) rebuild per batch.
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

  /// Flat rendering of the current epoch, maintained as a hot cache: an
  /// unchanged epoch is returned as-is; an epoch a few recorded batches
  /// ahead of the cache is caught up by refreshing only the touched
  /// shards' touched pages (untouched shards share their predecessor's
  /// flat wholesale, by root-pointer identity); anything else — cold
  /// cache, replay gap, or a touched set above universe /
  /// FlatRefreshDenominator — is a full parallel rebuild. Callers
  /// serialize on an internal mutex for the catch-up work; writers are
  /// never blocked by it. Hold the shared_ptr while using the view.
  ///
  /// A refresh or rebuild supersedes the cached flat epoch. Without
  /// \p Superseded, it is dropped here, and if nothing else holds it,
  /// its pages and the tree version only it still pins are reclaimed
  /// before this call returns. With \p Superseded, the caller takes it
  /// over and chooses when that reclamation runs (the server: after the
  /// query's reply). Untouched on a cache hit.
  std::shared_ptr<const FlatEpoch>
  acquireFlat(std::shared_ptr<const FlatEpoch> *Superseded = nullptr) {
    size_t S = numShards();
    // Lock-free fast path: one atomic seq load + one atomic shared_ptr
    // load, no mutex. The seq is read FIRST; if the cached flat then
    // matches it, that flat rendered the epoch current at the instant
    // of the seq read (the cache never regresses, and a concurrently
    // installed newer flat carries a larger seq, failing the compare) —
    // exactly the freshness the mutex path promises. Under a session
    // fan-out with a quiet writer, every reader hits here without
    // serializing on FlatM.
    {
      uint64_t Seq = batchSeq();
      std::shared_ptr<const FlatEpoch> Hot =
          std::atomic_load_explicit(&CachedFlat, std::memory_order_acquire);
      if (Hot && Hot->BatchSeq == Seq) {
        FlatHitsV.fetch_add(1, std::memory_order_relaxed);
        return Hot;
      }
    }

    std::lock_guard<std::mutex> Lock(FlatM);
    // Acquired under FlatM: every cache entry was built from an epoch
    // acquired while holding this lock, so Seq >= CachedFlat->BatchSeq
    // always and the cache can never regress to an older epoch.
    Ref E = acquire();
    uint64_t Seq = E.batchSeq();
    std::shared_ptr<const FlatEpoch> Cached =
        std::atomic_load_explicit(&CachedFlat, std::memory_order_acquire);
    if (Cached && Cached->BatchSeq == Seq) {
      FlatHitsV.fetch_add(1, std::memory_order_relaxed);
      return Cached;
    }

    std::shared_ptr<FlatEpoch> New;
    if (Cached) {
      // Union the replay span's digests per shard. Epochs replay oldest
      // first and a vertex's newest slot wins: the older ones may point
      // at edge sets no live epoch holds, and are dropped unread.
      std::vector<std::vector<Slot>> Touched(S);
      std::vector<uint32_t> Parts(S, 0);
      bool Covered = Digests.replay(
          Cached->BatchSeq, Seq, [&](const ShardDigest &D) {
            for (const auto &P : D) {
              Touched[P.first].insert(Touched[P.first].end(),
                                      P.second.begin(), P.second.end());
              ++Parts[P.first];
            }
          });
      // Threshold on the *distinct* touched union (hot vertices hit by
      // several replayed batches count once).
      uint64_t Total = 0;
      if (Covered) {
        parallelFor(0, S, [&](size_t Sh) {
          if (Parts[Sh] > 1)
            newestPerKey(Touched[Sh]);
        }, 1);
        for (const auto &T : Touched)
          Total += T.size();
      }
      if (Covered &&
          Total * FlatRefreshDenominator <= uint64_t(E.epoch().Universe)) {
        New = std::make_shared<FlatEpoch>();
        New->Flats.resize(S);
        const FlatEpoch &Prev = *Cached;
        parallelFor(0, S, [&](size_t Sh) {
          const Snapshot &Cur = E.shard(Sh);
          // Root identity means the shard is bit-identical to the one
          // the cached flat renders: share its pages wholesale.
          if (Cur.root() == Prev.Flats[Sh].graph().root()) {
            New->Flats[Sh] = Prev.Flats[Sh];
            return;
          }
          const auto &T = Touched[Sh];
          New->Flats[Sh] =
              Flat::refresh(Prev.Flats[Sh], Cur, T.data(), T.size());
        }, 1);
        FlatRefreshesV.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!New) {
      New = std::make_shared<FlatEpoch>();
      New->Flats.resize(S);
      parallelFor(0, S, [&](size_t Sh) {
        New->Flats[Sh] = Flat(E.shard(Sh), unsigned(LogShards));
      }, 1);
      FlatRebuildsV.fetch_add(1, std::memory_order_relaxed);
    }
    New->BatchSeq = Seq;
    New->NumEdges = E.numEdges();
    New->Universe = E.epoch().Universe;
    New->LogShards = LogShards;
    // Atomic publish pairs with the fast path's lock-free load.
    std::atomic_store_explicit(
        &CachedFlat, std::shared_ptr<const FlatEpoch>(New),
        std::memory_order_release);
    if (Superseded)
      *Superseded = std::move(Cached);
    return New;
  }

  /// Rebuild/refresh/hit counters of acquireFlat() (diagnostics, tests).
  /// Hits counts both mutex-path and lock-free fast-path hits.
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
      // Recovery priming: build the hot flat from the checkpoint epoch
      // (the cache is cold, so this is acquireFlat's rebuild) *before*
      // replay, so the first post-recovery acquireFlat() takes the
      // O(touched) refresh path over the replayed batches' digests.
      acquireFlat();
    }
    // Replay the WAL suffix through the normal pipeline, one epoch per
    // logged batch (Recovering gates the WAL re-append); the digests it
    // records keep the primed flat cache refreshable.
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
  }

  using Slot = VertexSlot<EdgeSet>;
  /// Per-epoch touched digest: (shard, the slots its merge set, ascending
  /// by vertex) for every shard the install touched. A slot stays valid
  /// while a later epoch that did not touch its vertex is alive
  /// (VertexSlot), which is every epoch a replay ending at a live epoch
  /// reads it for.
  using ShardDigest = std::vector<std::pair<uint32_t, std::vector<Slot>>>;

  /// Sort \p T by key, keeping for each key only its last slot in the
  /// input order (the newest, when digests are appended oldest first).
  static void newestPerKey(std::vector<Slot> &T) {
    std::stable_sort(T.begin(), T.end(), [](const Slot &A, const Slot &B) {
      return A.Key < B.Key;
    });
    size_t Out = 0;
    for (size_t I = 0; I < T.size(); ++I) {
      if (I + 1 < T.size() && T[I + 1].Key == T[I].Key)
        continue;
      T[Out++] = T[I];
    }
    T.resize(Out);
  }

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
    uint64_t Seq;
    Ref Latest;
    DurabilityEngine::Ticket Tk;
    try {
      std::lock_guard<std::mutex> Lock(CommitM);
      Latest = acquire();
      auto Next = std::make_shared<Epoch>();
      Next->Shards = Latest.epoch().Shards;
      for (size_t Sh = 0; Sh < S; ++Sh)
        if (TouchedShP[Sh])
          Next->Shards[Sh] = std::move(Merged[Sh]);
      uint64_t Prev = Latest.epoch().BatchSeq;
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
      uint64_t DigestCap =
          uint64_t(Next->Universe) / FlatRefreshDenominator;
      // Latest still holds the superseded epoch, so this store never
      // reclaims it under the lock.
      publish(std::move(Next));
      // Sparse per-shard digest (touched shards only). The digest log
      // is keyed by contiguous BatchSeq values, so a coalesced install
      // records EMPTY digests at the intermediate sequence numbers
      // (never published as epochs — no reader replays a span ending
      // on one) and the union digest at the final one: any replay span
      // crossing the group sees exactly its touched set. The log keeps
      // at most DigestCap slots (the refresh threshold, counted in
      // recorded rather than distinct slots), so a replay past an
      // evicted digest rebuilds.
      ShardDigest Digest;
      uint64_t Total = 0;
      for (size_t Sh = 0; Sh < S; ++Sh)
        if (!Slots[Sh].empty()) {
          Total += Slots[Sh].size();
          Digest.emplace_back(uint32_t(Sh), std::move(Slots[Sh]));
        }
      for (size_t I = 1; I < NumSpans; ++I)
        Digests.record(Prev + I, ShardDigest{}, 0, DigestCap);
      Digests.record(Seq, std::move(Digest), Total, DigestCap);
      PublishedSeqV.store(Seq, std::memory_order_release);
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
    if (Tk.Log) {
      Durable->sync(Tk); // acknowledged == durable (all coalesced seqs)
      checkpointIfDue(Seq);
    }
    return Seq;
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

  // Hot-flat maintenance state (DESIGN.md Section 4). The digest log is
  // keyed by BatchSeq (contiguous under the commit lock); the cached
  // flat serializes its refreshers on FlatM without ever blocking
  // writers, and current-epoch hits bypass FlatM entirely via the
  // atomic shared_ptr fast path.
  DeltaLogT<ShardDigest> Digests{FlatReplayMaxEpochs};
  std::mutex FlatM;
  std::shared_ptr<const FlatEpoch> CachedFlat;
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
