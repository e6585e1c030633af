//===- memory/algo_context.h - Per-context algorithm workspace ------------===//
//
// The paper's streaming-analytics scenario (Section 7.3) re-runs global
// queries after every ingested batch; at steady state the query latency
// must not include per-run allocation churn. AlgoContext is the reusable
// workspace the Ligra layer and the algorithms draw their frontier, level,
// label, and score arrays from: the first run on a context populates its
// block cache, and every subsequent run of any algorithm with compatible
// array sizes performs zero heap allocations.
//
// Layering: AlgoContext caches blocks privately and falls back to the
// pool-allocator's per-worker scratch cache (scratchAcquire/Release) on a
// miss, so blocks migrate between contexts through the worker caches
// instead of being freed. Destroying a context returns every cached block
// to the worker caches.
//
// Threading contract: a context is owned by one reader thread at a time.
// acquire/release must be called from the owning thread (the algorithms
// only draw arrays before entering parallel regions; worker threads merely
// read and write the array memory). Two readers each use their own
// context and compose with the store's epoch pins.
//
// Memory bounds: by design the caches keep their largest-ever blocks
// (that is the steady-state zero-alloc contract), so a context that once
// ran a hub-sized query would retain O(m) blocks until clear(). A caller
// that may see an outlier request size bounds that request (CtxArray's
// bounded constructor, two_hop's guard): requests above the bound are
// served from transient heap, freed on release and never cached anywhere.
// Transient blocks are identified by a zero capacity (real blocks always
// have Cap >= 4096 from the scratch rounding).
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_MEMORY_ALGO_CONTEXT_H
#define ASPEN_MEMORY_ALGO_CONTEXT_H

#include "memory/pool_allocator.h"

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

namespace aspen {

/// Capacity sentinel marking a block as transient heap (owned by nobody's
/// cache; freed on release). Real workspace capacities are always >= the
/// 4KB scratch rounding, so zero is unambiguous.
inline constexpr size_t TransientCap = 0;

/// Reusable per-reader workspace for the Ligra layer and the algorithms.
class AlgoContext {
public:
  AlgoContext() = default;
  ~AlgoContext() { clear(); }

  AlgoContext(const AlgoContext &) = delete;
  AlgoContext &operator=(const AlgoContext &) = delete;

  /// Borrow a block of at least \p MinBytes; \p CapOut receives the actual
  /// capacity, which must be passed back to release(). Served from this
  /// context's cache when possible, otherwise from the per-worker scratch
  /// cache (counted as a miss).
  void *acquire(size_t MinBytes, size_t &CapOut) {
    if (void *P = Cache.tryAcquire(MinBytes, CapOut))
      return P;
    ++Misses;
    return scratchAcquire(MinBytes, CapOut);
  }

  /// Return a block previously obtained from acquire(); a block the full
  /// cache cannot keep spills to the per-worker scratch cache.
  void release(void *P, size_t Cap) {
    if (!P)
      return;
    size_t LoserCap;
    if (void *Loser = Cache.insert(P, Cap, LoserCap))
      scratchRelease(Loser, LoserCap);
  }

  /// Return every cached block to the per-worker scratch cache.
  void clear() {
    size_t Cap;
    while (void *P = Cache.pop(Cap))
      scratchRelease(P, Cap);
  }

  /// Cumulative cache misses (acquires not served from this context).
  /// Flat across runs once the context is warm; the steady-state tests
  /// assert a zero delta.
  uint64_t missCount() const { return Misses; }

  /// Blocks currently cached (idle) in this context.
  int cachedBlocks() const { return Cache.size(); }

private:
  // Enough slots for the most array-hungry algorithm (BC holds ~12 blocks
  // live plus edgeMap temporaries); caching them all between runs is what
  // makes the second run allocation-free.
  detail::BlockCache<32> Cache;
  uint64_t Misses = 0;
};

/// Acquire through \p Ctx when present, else straight from the per-worker
/// scratch cache (the context-less compatibility path stays allocation-free
/// at steady state through the worker caches).
inline void *ctxAcquire(AlgoContext *Ctx, size_t MinBytes, size_t &CapOut) {
  return Ctx ? Ctx->acquire(MinBytes, CapOut)
             : scratchAcquire(MinBytes, CapOut);
}

inline void ctxRelease(AlgoContext *Ctx, void *P, size_t Cap) {
  if (!P)
    return;
  if (Cap == TransientCap)
    std::free(P);
  else if (Ctx)
    Ctx->release(P, Cap);
  else
    scratchRelease(P, Cap);
}

/// Acquire with a per-request byte bound: requests above \p BoundBytes
/// come from transient heap (CapOut == TransientCap), so one-off outliers
/// never enter any cache.
inline void *ctxAcquireBounded(AlgoContext *Ctx, size_t MinBytes,
                               size_t BoundBytes, size_t &CapOut) {
  if (MinBytes > BoundBytes) {
    CapOut = TransientCap;
    return std::malloc(MinBytes);
  }
  return ctxAcquire(Ctx, MinBytes, CapOut);
}

/// Borrowed typed workspace array (RAII) - the single context-aware
/// acquire path for every temporary in the system. Elements are
/// uninitialized raw storage; callers placement-new or store into them
/// (only trivially destructible T makes sense here). With a null context
/// (or the size-only constructor) the array borrows from the per-worker
/// scratch cache instead - this subsumes the former ScratchArray, so the
/// codec/chunk scratch, the parallel primitives' temporaries, and the
/// algorithm workspaces all share one type and one release discipline.
template <class T> class CtxArray {
public:
  CtxArray(AlgoContext *Ctx, size_t N)
      : Ctx(Ctx), Mem(static_cast<T *>(ctxAcquire(Ctx, N * sizeof(T), Cap))),
        Sz(N) {}
  CtxArray(AlgoContext &Ctx, size_t N) : CtxArray(&Ctx, N) {}
  /// With a per-request byte bound: above \p BoundBytes the array lives
  /// on transient heap until destruction, so a single hub-sized query
  /// cannot pin an O(m) block in the context or the per-worker caches
  /// (two_hop's outlier guard).
  CtxArray(AlgoContext *Ctx, size_t N, size_t BoundBytes)
      : Ctx(Ctx), Mem(static_cast<T *>(ctxAcquireBounded(
                      Ctx, N * sizeof(T), BoundBytes, Cap))),
        Sz(N) {}
  CtxArray(AlgoContext &Ctx, size_t N, size_t BoundBytes)
      : CtxArray(&Ctx, N, BoundBytes) {}
  /// Context-less borrow straight from the per-worker scratch cache.
  explicit CtxArray(size_t N) : CtxArray(nullptr, N) {}
  CtxArray(const CtxArray &) = delete;
  CtxArray &operator=(const CtxArray &) = delete;
  ~CtxArray() { ctxRelease(Ctx, Mem, Cap); }

  /// Whether this array fell back to transient heap.
  bool transient() const { return Cap == TransientCap; }

  T *data() { return Mem; }
  const T *data() const { return Mem; }
  size_t size() const { return Sz; }
  T &operator[](size_t I) { return Mem[I]; }
  const T &operator[](size_t I) const { return Mem[I]; }
  T *begin() { return Mem; }
  T *end() { return Mem + Sz; }

private:
  AlgoContext *Ctx;
  T *Mem;
  size_t Cap;
  size_t Sz;
};

/// Borrowed-scratch buffer of (key, value) pairs whose value is not
/// trivially destructible (an edge set, a chunk reference), so CtxArray
/// does not apply: entries are placement-new'd into a block borrowed from
/// the per-worker scratch cache, and destruction destroys them (releasing
/// the values) and returns the block. The one lifetime protocol of
/// graph.h's grouped batches and the C-tree's batch updates, whose tree
/// builds and merges copy the pairs they keep. Keys must be strictly
/// increasing across the filled range.
template <class Key, class Val> class PairScratch {
public:
  using PairT = std::pair<Key, Val>;

  explicit PairScratch(size_t MaxPairs)
      : Mem(static_cast<PairT *>(
            ctxAcquire(nullptr, MaxPairs * sizeof(PairT), Cap))) {}
  PairScratch(const PairScratch &) = delete;
  PairScratch &operator=(const PairScratch &) = delete;
  ~PairScratch() {
    for (size_t I = 0; I < N; ++I)
      Mem[I].~PairT();
    ctxRelease(nullptr, Mem, Cap);
  }

  /// Sequential append.
  void emplaceBack(Key K, Val V) {
    new (&Mem[N]) PairT(K, std::move(V));
    ++N;
  }

  /// Indexed construction for parallel fills: call setSize(Pairs)
  /// first, then construct every slot in [0, Pairs) exactly once
  /// before the next use (destruction included).
  void emplaceAt(size_t I, Key K, Val V) {
    new (&Mem[I]) PairT(K, std::move(V));
  }
  void setSize(size_t Size) { N = Size; }

  const PairT *data() const { return Mem; }
  size_t size() const { return N; }

private:
  PairT *Mem;
  size_t Cap;
  size_t N = 0;
};

} // namespace aspen

#endif // ASPEN_MEMORY_ALGO_CONTEXT_H
