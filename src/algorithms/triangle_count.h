//===- algorithms/triangle_count.h - Triangle counting ---------------------===//
//
// Ordered triangle counting on symmetric graphs: each triangle
// u < v < w is counted once at its smallest vertex by intersecting the
// higher-id neighborhoods of u and v. An extension algorithm showcasing
// ordered edge-set iteration (the C-tree's sorted order makes the merge
// intersection natural). Every intersection is a merge scan on every
// view: no edge set keeps a membership index that would make probing
// N(v) cheaper than scanning it.
//
// Per-vertex adjacency staging happens inside parallel workers, so it
// borrows from the per-worker scratch caches (context-less CtxArray) rather than a
// single AlgoContext, which is owned by the calling thread; the
// AlgoContext overload exists for signature uniformity across the
// algorithm suite.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_ALGORITHMS_TRIANGLE_COUNT_H
#define ASPEN_ALGORITHMS_TRIANGLE_COUNT_H

#include "ligra/edge_map.h"
#include "memory/algo_context.h"
#include "parallel/primitives.h"
#include "util/types.h"

#include <functional>

namespace aspen {

/// Count triangles in a symmetric graph view.
template <class GView> uint64_t triangleCount(const GView &G) {
  VertexId N = G.numVertices();
  return reduce(
      size_t(N),
      [&](size_t UI) -> uint64_t {
        VertexId U = VertexId(UI);
        // Higher-id neighbors of U, in order, staged in worker scratch.
        CtxArray<VertexId> Au(G.degree(U));
        size_t AuN = 0;
        G.iterNeighborsCond(U, [&](VertexId X) {
          if (X > U)
            Au[AuN++] = X;
          return true;
        });
        uint64_t Local = 0;
        for (size_t VI = 0; VI < AuN; ++VI) {
          VertexId V = Au[VI];
          size_t Pos = VI + 1;
          if (Pos == AuN)
            break; // empty candidate suffix: nothing left to intersect
          // Merge-intersect Au (suffix > V) with N(V) (> V).
          G.iterNeighborsCond(V, [&](VertexId Wv) {
            if (Wv <= V)
              return true;
            while (Pos < AuN && Au[Pos] < Wv)
              ++Pos;
            if (Pos == AuN)
              return false;
            if (Au[Pos] == Wv) {
              ++Local;
              ++Pos;
            }
            return true;
          });
        }
        return Local;
      },
      uint64_t(0), std::plus<uint64_t>());
}

/// Signature-uniform overload (the workspace is unused; staging is
/// worker-local by construction).
template <class GView>
uint64_t triangleCount(const GView &G, AlgoContext &) {
  return triangleCount(G);
}

} // namespace aspen

#endif // ASPEN_ALGORITHMS_TRIANGLE_COUNT_H
