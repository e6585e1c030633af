//===- algorithms/mis.h - Maximal independent set --------------------------===//
//
// Parallel MIS with random priorities (Luby-style, as in the paper's MIS
// of Section 7): in each round every undecided vertex whose hash priority
// beats all undecided neighbors joins the set; its neighbors leave. The
// decision and removal phases are separated so each round is race-free.
// Expected O(log n) rounds.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_ALGORITHMS_MIS_H
#define ASPEN_ALGORITHMS_MIS_H

#include "ligra/vertex_subset.h"
#include "memory/algo_context.h"
#include "parallel/primitives.h"
#include "util/hash.h"

#include <vector>

namespace aspen {

enum class MisState : uint8_t { Undecided, In, Out };

/// Compute a maximal independent set using workspace \p Ctx; returns
/// per-vertex membership flags.
template <class GView>
std::vector<uint8_t> mis(const GView &G, AlgoContext &Ctx,
                         uint64_t Seed = 0x9e3779b9) {
  VertexId N = G.numVertices();
  CtxArray<MisState> State(Ctx, N);
  parallelFor(0, N, [&](size_t I) { State[I] = MisState::Undecided; });
  auto Priority = [&](VertexId V) { return hashAt(Seed, V); };

  // Active list of still-undecided vertices; double-buffered because the
  // shrink pass cannot pack in place while other blocks still read it.
  CtxArray<VertexId> ActiveA(Ctx, N), ActiveB(Ctx, N);
  CtxArray<uint8_t> Winner(Ctx, N);
  VertexId *Active = ActiveA.data(), *NextActive = ActiveB.data();
  parallelFor(0, N, [&](size_t I) { Active[I] = VertexId(I); });
  size_t ActiveSize = N;

  while (ActiveSize > 0) {
    // Phase 1: decide winners (read-only on State).
    parallelFor(0, ActiveSize, [&](size_t I) {
      VertexId V = Active[I];
      uint64_t PV = Priority(V);
      bool IsMax = true;
      G.iterNeighborsCond(V, [&](VertexId U) {
        if (State[U] != MisState::Out && U != V) {
          uint64_t PU = Priority(U);
          if (PU > PV || (PU == PV && U > V)) {
            IsMax = false;
            return false;
          }
        }
        return true;
      });
      Winner[I] = IsMax ? 1 : 0;
    }, 16);
    // Phase 2: commit winners.
    parallelFor(0, ActiveSize, [&](size_t I) {
      if (Winner[I])
        State[Active[I]] = MisState::In;
    });
    // Phase 3: remove neighbors of winners. Winners sharing a neighbor
    // race on its state, so Undecided -> Out is a relaxed CAS; whichever
    // winner takes it, the outcome is the same.
    parallelFor(0, ActiveSize, [&](size_t I) {
      if (!Winner[I])
        return;
      G.iterNeighborsCond(Active[I], [&](VertexId U) {
        uint8_t Expect = uint8_t(MisState::Undecided);
        __atomic_compare_exchange_n(reinterpret_cast<uint8_t *>(&State[U]),
                                    &Expect, uint8_t(MisState::Out),
                                    /*weak=*/false, __ATOMIC_RELAXED,
                                    __ATOMIC_RELAXED);
        return true;
      });
    }, 16);
    // Phase 4: shrink the active set into the other buffer.
    ActiveSize = filterIndexInto(
        ActiveSize, [&](size_t I) { return Active[I]; },
        [&](size_t I) { return State[Active[I]] == MisState::Undecided; },
        NextActive);
    std::swap(Active, NextActive);
  }

  return tabulate(size_t(N), [&](size_t I) {
    return uint8_t(State[I] == MisState::In ? 1 : 0);
  });
}

template <class GView>
std::vector<uint8_t> mis(const GView &G, uint64_t Seed = 0x9e3779b9) {
  AlgoContext Ctx;
  return mis(G, Ctx, Seed);
}

} // namespace aspen

#endif // ASPEN_ALGORITHMS_MIS_H
