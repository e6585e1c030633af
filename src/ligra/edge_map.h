//===- ligra/edge_map.h - edgeMap with direction optimization -------------===//
//
// Ligra's edgeMap (Section 2) over any graph view (Aspen snapshots, flat
// snapshots, or the static CSR baselines): applies F to edges (u, v) with
// u in the input frontier and C(v) true, returning the new frontier.
//
// Direction optimization (Section 5.1 / Beamer et al.): when the frontier
// plus its out-degrees exceed m/20 the traversal switches to the dense
// form, scanning in-neighbors of unvisited vertices with early exit.
// Symmetric graphs are assumed (the paper symmetrizes all inputs), so
// out-neighbors serve as in-neighbors.
//
// Neighbor scans in both directions run on the block-decoded iteration
// surface (iterNeighborsCond / mapNeighborsIndexed -> codec bulk
// iterate): compressed chunks decode up to 32 neighbors per refill
// through the SSSE3/SWAR tiers of encoding/varint_block.h, so the
// per-edge decode constant the traversal pays is a buffered array read.
// The dense form's early exit still only over-decodes within one block.
//
// All round-local arrays (the sparse Out targets, per-source offsets, the
// dense next-flags, and sparse<->dense conversion buffers) are drawn from
// the input frontier's AlgoContext workspace, so steady-state rounds
// perform no heap allocation.
//
// The functor F provides:
//   bool update(u, v)        - non-atomic (dense traversal; one writer per v)
//   bool updateAtomic(u, v)  - atomic (sparse traversal; concurrent writers)
//   bool cond(v)             - whether v can still be updated
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_LIGRA_EDGE_MAP_H
#define ASPEN_LIGRA_EDGE_MAP_H

#include "ligra/vertex_subset.h"
#include "memory/algo_context.h"
#include "parallel/primitives.h"
#include "util/types.h"

#include <cstring>
#include <type_traits>

namespace aspen {

//===----------------------------------------------------------------------===
// The graph-view concept. Everything the Ligra layer (and through it every
// algorithm) needs from a graph is the six members below; any type that
// provides them — TreeGraphView and FlatGraphView (over one snapshot or
// flat, or over a sharded store's epoch and acquireFlat() epoch, whose
// View and FlatView they are), or the static baselines — runs unmodified
// through edgeMap. The trait makes a non-conforming view fail with one readable
// static_assert instead of a template-instantiation cascade.
//===----------------------------------------------------------------------===

namespace detail {

/// Probe functors with the exact shapes edgeMap passes to a view.
struct ViewProbeEdgeFn {
  void operator()(VertexId) const {}
};
struct ViewProbeIndexedFn {
  void operator()(size_t, VertexId) const {}
};
struct ViewProbeCondFn {
  bool operator()(VertexId) const { return true; }
};

template <class V, class = void> struct IsGraphView : std::false_type {};
template <class V>
struct IsGraphView<
    V, std::void_t<
           decltype(VertexId(std::declval<const V &>().numVertices())),
           decltype(uint64_t(std::declval<const V &>().numEdges())),
           decltype(uint64_t(std::declval<const V &>().degree(VertexId()))),
           decltype(std::declval<const V &>().mapNeighbors(
               VertexId(), std::declval<const ViewProbeEdgeFn &>())),
           decltype(std::declval<const V &>().mapNeighborsIndexed(
               VertexId(), std::declval<const ViewProbeIndexedFn &>())),
           decltype(bool(std::declval<const V &>().iterNeighborsCond(
               VertexId(), std::declval<const ViewProbeCondFn &>())))>>
    : std::true_type {};

template <class V, class = void>
struct HasNeighborCursor : std::false_type {};
template <class V>
struct HasNeighborCursor<
    V, std::void_t<
           typename V::NeighborCursor,
           decltype(std::declval<const V &>().neighborCursor(VertexId()))>>
    : std::true_type {};

} // namespace detail

/// True when \p V satisfies the graph-view concept consumed by edgeMap
/// and the algorithms.
template <class V>
inline constexpr bool IsGraphViewV = detail::IsGraphView<V>::value;

/// True when \p V also exposes the streaming neighborCursor surface.
/// edgeMap itself never requires it, but both Aspen views (tree and
/// flat, at any shard count) provide it so cursor-driven code is
/// view-agnostic; the flat differential tests assert this trait for
/// both.
template <class V>
inline constexpr bool HasNeighborCursorV =
    detail::HasNeighborCursor<V>::value;

/// edgeMap goes dense when |U| + sum deg(U) > m / DenseThresholdDenominator.
/// 20 is Ligra's value. The dense scan visits all n vertices but reads
/// each one's in-edges only up to its early exit; the sparse one pays an
/// atomic update per out-edge of U and a compaction of its output. From
/// about m/20 frontier edges on, the dense scan is the cheaper of the two.
inline constexpr uint64_t DenseThresholdDenominator = 20;

struct EdgeMapOptions {
  /// Disable the dense traversal (used for the Stinger/LLAMA comparisons,
  /// whose implementations do not direction-optimize).
  bool NoDense = false;
};

namespace detail {

template <class GView, class F>
VertexSubset edgeMapSparse(const GView &G, AlgoContext *Ctx,
                           const VertexId *U, size_t USize,
                           const uint64_t *Offsets, uint64_t Total, F &Fn) {
  CtxArray<VertexId> Out(Ctx, Total);
  VertexId *OutP = Out.data();
  parallelFor(0, Total, [&](size_t I) { OutP[I] = NoVertex; });
  parallelFor(0, USize, [&](size_t I) {
    VertexId Src = U[I];
    uint64_t Base = Offsets[I];
    G.mapNeighborsIndexed(Src, [&](size_t J, VertexId Dst) {
      if (Fn.cond(Dst) && Fn.updateAtomic(Src, Dst))
        OutP[Base + J] = Dst;
    });
  }, 8);
  size_t NextCap;
  auto *Next =
      static_cast<VertexId *>(ctxAcquire(Ctx, Total * sizeof(VertexId),
                                         NextCap));
  size_t NextSize = filterIndexInto(
      Total, [&](size_t I) { return OutP[I]; },
      [&](size_t I) { return OutP[I] != NoVertex; }, Next);
  return VertexSubset::adoptSparse(Ctx, G.numVertices(), Next, NextSize,
                                   NextCap);
}

template <class GView, class F>
VertexSubset edgeMapDense(const GView &G, AlgoContext *Ctx,
                          const uint8_t *UFlags, F &Fn) {
  VertexId N = G.numVertices();
  size_t NextCap;
  auto *NextFlags = static_cast<uint8_t *>(ctxAcquire(Ctx, N, NextCap));
  std::memset(NextFlags, 0, N);
  size_t Grain = std::max<size_t>(
      128, size_t(N) / (32 * size_t(numWorkers())));
  parallelFor(0, N, [&](size_t VI) {
    VertexId V = VertexId(VI);
    if (!Fn.cond(V))
      return;
    // Scan in-neighbors (== out-neighbors on symmetric graphs) until the
    // vertex no longer satisfies cond.
    G.iterNeighborsCond(V, [&](VertexId U) {
      if (UFlags[U] && Fn.update(U, V))
        NextFlags[V] = 1;
      return Fn.cond(V);
    });
  }, Grain);
  size_t Count = reduceSum(
      size_t(N), [&](size_t I) { return size_t(NextFlags[I] ? 1 : 0); });
  return VertexSubset::adoptDense(Ctx, N, NextFlags, NextCap, Count);
}

} // namespace detail

/// Map F over edges out of \p U; returns the target frontier, which shares
/// \p U's AlgoContext. \p U may be converted between sparse and dense
/// forms in place. The traversal mode is re-selected every round from |U|
/// plus its out-degree sum (so shrunken dense frontiers fall back to the
/// sparse traversal, as in Ligra).
template <class GView, class F>
VertexSubset edgeMap(const GView &G, VertexSubset &U, F Fn,
                     EdgeMapOptions Options = {}) {
  static_assert(IsGraphViewV<GView>,
                "edgeMap requires the graph-view concept: numVertices / "
                "numEdges / degree / mapNeighbors / mapNeighborsIndexed / "
                "iterNeighborsCond");
  VertexId N = G.numVertices();
  AlgoContext *Ctx = U.context();
  if (U.empty())
    return VertexSubset(N, Ctx);

  // Out-degree sum of the frontier.
  uint64_t DegreeSum;
  if (U.isDense()) {
    const uint8_t *Flags = U.denseFlags();
    DegreeSum = reduceSum(size_t(N), [&](size_t V) {
      return Flags[V] ? G.degree(VertexId(V)) : uint64_t(0);
    });
  } else {
    const VertexId *Ids = U.sparseIds();
    DegreeSum = reduceSum(U.size(), [&](size_t I) {
      return G.degree(Ids[I]);
    });
  }

  uint64_t Threshold = G.numEdges() / DenseThresholdDenominator;
  bool GoDense =
      !Options.NoDense && U.size() + DegreeSum > Threshold;

  if (GoDense) {
    U.toDense();
    return detail::edgeMapDense(G, Ctx, U.denseFlags(), Fn);
  }
  U.toSparse();
  const VertexId *Ids = U.sparseIds();
  size_t USize = U.size();
  CtxArray<uint64_t> Offsets(Ctx, USize);
  uint64_t *OffsetsP = Offsets.data();
  parallelFor(0, USize,
              [&](size_t I) { OffsetsP[I] = G.degree(Ids[I]); });
  uint64_t Total = scanExclusive(OffsetsP, USize);
  return detail::edgeMapSparse(G, Ctx, Ids, USize, OffsetsP, Total, Fn);
}

/// Map Fn(u, v) over all edges out of frontier \p U (no output frontier).
template <class GView, class F>
void edgeMapNoOutput(const GView &G, const VertexSubset &U, const F &Fn) {
  static_assert(IsGraphViewV<GView>,
                "edgeMapNoOutput requires the graph-view concept");
  U.forEach([&](VertexId Src) {
    G.mapNeighbors(Src, [&](VertexId Dst) { Fn(Src, Dst); });
  });
}

/// vertexMap: new subset of members of \p U satisfying Fn(v); shares
/// \p U's AlgoContext. Sparse inputs filter their id buffer directly
/// (no copy or densify round-trip).
template <class F>
VertexSubset vertexFilter(const VertexSubset &U, const F &Fn) {
  AlgoContext *Ctx = U.context();
  size_t KeptCap;
  auto *Kept = static_cast<VertexId *>(
      ctxAcquire(Ctx, U.size() * sizeof(VertexId), KeptCap));
  size_t KeptSize;
  if (U.isDense()) {
    const uint8_t *Flags = U.denseFlags();
    KeptSize = filterIndexInto(
        size_t(U.universe()), [&](size_t I) { return VertexId(I); },
        [&](size_t I) { return Flags[I] != 0 && Fn(VertexId(I)); }, Kept);
  } else {
    const VertexId *Ids = U.sparseIds();
    KeptSize = filterIndexInto(
        U.size(), [&](size_t I) { return Ids[I]; },
        [&](size_t I) { return Fn(Ids[I]); }, Kept);
  }
  return VertexSubset::adoptSparse(Ctx, U.universe(), Kept, KeptSize,
                                   KeptCap);
}

} // namespace aspen

#endif // ASPEN_LIGRA_EDGE_MAP_H
