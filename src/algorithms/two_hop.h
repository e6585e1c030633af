//===- algorithms/two_hop.h - 2-hop neighborhood ---------------------------===//
//
// The paper's local 2-hop query (Section 7): the set of vertices within
// two hops of a source. Local queries avoid O(n) scratch so that many can
// run concurrently: candidates are gathered into a workspace buffer sized
// by the 2-hop degree sum and deduplicated by sorting. The point query
// isWithinTwoHops scans with early exit and allocates nothing.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_ALGORITHMS_TWO_HOP_H
#define ASPEN_ALGORITHMS_TWO_HOP_H

#include "ligra/edge_map.h"
#include "memory/algo_context.h"
#include "util/types.h"

#include <algorithm>
#include <vector>

namespace aspen {

/// Workspace blocks are retained for reuse, so a hub query whose
/// neighborhood approaches m must not pin an m-sized block in the context
/// (or the per-worker caches) for the process lifetime. CtxArray's
/// bounded constructor (memory/algo_context.h) enforces that: sizes above
/// this bound live on transient heap for the duration of the query only.
inline constexpr size_t TwoHopWorkspaceBound =
    (size_t(1) << 20) * sizeof(VertexId);

/// Vertices at distance <= 2 from \p Src (including Src), sorted; the
/// hop-1 and candidate buffers draw from workspace \p Ctx (transient heap
/// for hub-sized outliers).
template <class GView>
std::vector<VertexId> twoHop(const GView &G, VertexId Src,
                             AlgoContext &Ctx) {
  uint64_t Deg = G.degree(Src);
  CtxArray<VertexId> Hop1(Ctx, size_t(Deg), TwoHopWorkspaceBound);
  size_t Hop1N = 0;
  uint64_t Total = 1 + Deg;
  G.mapNeighbors(Src, [&](VertexId U) { Hop1[Hop1N++] = U; });
  for (size_t I = 0; I < Hop1N; ++I)
    Total += G.degree(Hop1[I]);

  CtxArray<VertexId> Cand(Ctx, size_t(Total), TwoHopWorkspaceBound);
  size_t CandN = 0;
  Cand[CandN++] = Src;
  for (size_t I = 0; I < Hop1N; ++I)
    Cand[CandN++] = Hop1[I];
  for (size_t I = 0; I < Hop1N; ++I)
    G.mapNeighbors(Hop1[I], [&](VertexId W) { Cand[CandN++] = W; });

  std::sort(Cand.data(), Cand.data() + CandN);
  VertexId *End = std::unique(Cand.data(), Cand.data() + CandN);
  return std::vector<VertexId>(Cand.data(), End);
}

template <class GView>
std::vector<VertexId> twoHop(const GView &G, VertexId Src) {
  AlgoContext Ctx;
  return twoHop(G, Src, Ctx);
}

/// |twoHop(G, Src)| without materializing (same cost; test convenience).
template <class GView> size_t twoHopCount(const GView &G, VertexId Src) {
  return twoHop(G, Src).size();
}

/// Is \p Target within two hops of \p Src (Src itself counts)? A local
/// point query: one conditional scan of N(Src), and for each middle
/// vertex a conditional scan of its neighborhood, both stopping at the
/// first hit.
template <class GView>
bool isWithinTwoHops(const GView &G, VertexId Src, VertexId Target) {
  if (Src == Target)
    return true;
  bool Found = false;
  G.iterNeighborsCond(Src, [&](VertexId Mid) {
    if (Mid == Target) {
      Found = true;
      return false;
    }
    G.iterNeighborsCond(Mid, [&](VertexId W) {
      if (W == Target) {
        Found = true;
        return false;
      }
      return true;
    });
    return !Found;
  });
  return Found;
}

} // namespace aspen

#endif // ASPEN_ALGORITHMS_TWO_HOP_H
