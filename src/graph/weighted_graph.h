//===- graph/weighted_graph.h - Weighted streaming graphs -----------------===//
//
// Weighted edges are the paper's stated future work ("we plan to add this
// functionality using a similar compression scheme for weights as used in
// Ligra+", Section 6). This extension implements the interface the paper
// sketches - the same snapshot/batch-update model with per-edge weights -
// using purely-functional map trees for the weighted edge sets (weight
// chunk compression is left as the paper leaves it).
//
// Updates of existing edges' weights go through the batch-insert combine
// function, exactly as the paper describes for value updates ("updates
// (e.g., to the weight) of existing edges can be done within this
// interface", Section 5).
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_GRAPH_WEIGHTED_GRAPH_H
#define ASPEN_GRAPH_WEIGHTED_GRAPH_H

#include "pam/tree.h"
#include "parallel/primitives.h"
#include "util/types.h"

#include <optional>
#include <tuple>
#include <vector>

namespace aspen {

/// A weighted directed edge update.
template <class W> struct WeightedEdge {
  VertexId Src;
  VertexId Dst;
  W Weight;

  friend bool operator==(const WeightedEdge &A, const WeightedEdge &B) {
    return A.Src == B.Src && A.Dst == B.Dst && A.Weight == B.Weight;
  }
  friend bool operator<(const WeightedEdge &A, const WeightedEdge &B) {
    return std::tie(A.Src, A.Dst, A.Weight) <
           std::tie(B.Src, B.Dst, B.Weight);
  }
};

/// Purely-functional map from neighbor id to weight; the weighted
/// analogue of the edge set. Augmented with the total weight, so
/// aggregates over edge weights are O(1) (the use case Section 5 calls
/// out for augmented edge trees).
template <class W> class WeightedEdgeSet {
public:
  struct MapEntry {
    using KeyT = VertexId;
    using ValT = W;
    using AugT = W;
    static bool less(VertexId A, VertexId B) { return A < B; }
    static AugT augOfEntry(const KeyT &, const ValT &V) { return V; }
    static AugT augIdentity() { return W(); }
    static AugT augCombine(AugT A, AugT B) { return A + B; }
  };

  using T = Tree<MapEntry>;
  using Node = typename T::Node;

  /// No tunable construction parameters (plain map tree); present for
  /// interface parity with the unweighted edge-set representations.
  struct BuildParams {};

  WeightedEdgeSet() = default;
  explicit WeightedEdgeSet(Node *Root) : Root(Root) {}

  WeightedEdgeSet(const WeightedEdgeSet &O) : Root(O.Root) {
    T::retain(Root);
  }
  WeightedEdgeSet(WeightedEdgeSet &&O) noexcept : Root(O.Root) {
    O.Root = nullptr;
  }
  WeightedEdgeSet &operator=(const WeightedEdgeSet &O) {
    if (this != &O) {
      T::retain(O.Root);
      T::release(Root);
      Root = O.Root;
    }
    return *this;
  }
  WeightedEdgeSet &operator=(WeightedEdgeSet &&O) noexcept {
    if (this != &O) {
      T::release(Root);
      Root = O.Root;
      O.Root = nullptr;
    }
    return *this;
  }
  ~WeightedEdgeSet() { T::release(Root); }

  bool empty() const { return !Root; }
  size_t size() const { return T::size(Root); }

  /// Sum of all edge weights, O(1) via augmentation.
  W totalWeight() const { return T::aug(Root); }

  /// Build from sorted, duplicate-free (neighbor, weight) pairs.
  static WeightedEdgeSet buildSorted(const std::pair<VertexId, W> *E,
                                     size_t N, BuildParams = {}) {
    return WeightedEdgeSet(T::buildSorted(E, N));
  }

  /// Membership: O(log n) tree search.
  bool contains(VertexId V) const {
    return T::findNode(Root, V) != nullptr;
  }

  std::optional<W> weightOf(VertexId V) const {
    const Node *N = T::findNode(Root, V);
    if (!N)
      return std::nullopt;
    return N->Val;
  }

  /// Union with weight combination `Fn(old, new)`. Consumes both.
  template <class Comb>
  static WeightedEdgeSet merge(WeightedEdgeSet A, WeightedEdgeSet B,
                               const Comb &Fn) {
    return WeightedEdgeSet(T::unionWith(A.take(), B.take(), Fn));
  }

  /// Remove the neighbors present in \p B (weights in B ignored).
  static WeightedEdgeSet minus(WeightedEdgeSet A, WeightedEdgeSet B) {
    return WeightedEdgeSet(T::difference(A.take(), B.take()));
  }

  /// Streaming in-order cursor over (neighbor, weight) entries; the
  /// weighted analogue of the unweighted edge-set cursors, so the graph
  /// layer can iterate any edge-set representation uniformly.
  class Cursor {
  public:
    Cursor() = default;
    explicit Cursor(const WeightedEdgeSet &S) : TC(S.Root) {}

    bool done() const { return TC.done(); }
    VertexId neighbor() const { return TC.node()->Key; }
    const W &weight() const { return TC.node()->Val; }
    void advance() { TC.advance(); }

  private:
    friend class WeightedEdgeSet;
    explicit Cursor(const Node *Root) : TC(Root) {}
    typename T::Cursor TC;
  };

  /// This set must outlive the cursor.
  Cursor cursor() const { return Cursor(*this); }

  template <class F> void forEachSeq(const F &Fn) const {
    T::forEachSeq(Root, Fn);
  }

  template <class F> bool iterCond(const F &Fn) const {
    return T::iterCond(Root, Fn);
  }

  std::vector<std::pair<VertexId, W>> toVector() const {
    return T::entries(Root);
  }

  size_t memoryBytes() const { return size() * sizeof(Node); }

private:
  Node *take() {
    Node *R = Root;
    Root = nullptr;
    return R;
  }

  Node *Root = nullptr;
};

/// An immutable weighted graph snapshot: vertex tree of weighted edge
/// maps, with the same functional batch-update model as GraphSnapshotT.
template <class W> class WeightedGraphT {
public:
  using EdgeSet = WeightedEdgeSet<W>;

  struct VertexEntry {
    using KeyT = VertexId;
    using ValT = EdgeSet;
    using AugT = uint64_t;
    static bool less(VertexId A, VertexId B) { return A < B; }
    static AugT augOfEntry(const KeyT &, const ValT &V) { return V.size(); }
    static AugT augIdentity() { return 0; }
    static AugT augCombine(AugT A, AugT B) { return A + B; }
  };

  using VT = Tree<VertexEntry>;
  using Node = typename VT::Node;

  WeightedGraphT() = default;
  explicit WeightedGraphT(Node *Root) : Root(Root) {}

  WeightedGraphT(const WeightedGraphT &O) : Root(O.Root) {
    VT::retain(Root);
  }
  WeightedGraphT(WeightedGraphT &&O) noexcept : Root(O.Root) {
    O.Root = nullptr;
  }
  WeightedGraphT &operator=(const WeightedGraphT &O) {
    if (this != &O) {
      VT::retain(O.Root);
      VT::release(Root);
      Root = O.Root;
    }
    return *this;
  }
  WeightedGraphT &operator=(WeightedGraphT &&O) noexcept {
    if (this != &O) {
      VT::release(Root);
      Root = O.Root;
      O.Root = nullptr;
    }
    return *this;
  }
  ~WeightedGraphT() { VT::release(Root); }

  /// Build over vertices [0, N); duplicate (src, dst) keep the last
  /// weight in sorted order.
  static WeightedGraphT fromEdges(VertexId N,
                                  std::vector<WeightedEdge<W>> Edges) {
    auto Pairs = groupBySource(std::move(Edges));
    std::vector<std::pair<VertexId, EdgeSet>> All(N);
    parallelFor(0, N, [&](size_t V) {
      All[V] = {VertexId(V), EdgeSet()};
    });
    for (auto &P : Pairs) {
      assert(P.first < N && "edge endpoint out of range");
      All[P.first].second = std::move(P.second);
    }
    return WeightedGraphT(VT::buildSorted(All.data(), All.size()));
  }

  size_t numVertices() const { return VT::size(Root); }
  uint64_t numEdges() const { return VT::aug(Root); }

  VertexId vertexUniverse() const {
    const Node *L = VT::last(Root);
    return L ? L->Key + 1 : 0;
  }

  uint64_t degree(VertexId V) const {
    const Node *N = VT::findNode(Root, V);
    return N ? N->Val.size() : 0;
  }

  std::optional<W> edgeWeight(VertexId U, VertexId V) const {
    const Node *N = VT::findNode(Root, U);
    if (!N)
      return std::nullopt;
    return N->Val.weightOf(V);
  }

  /// Edge-existence probe (the probe surface of the unweighted views).
  bool containsEdge(VertexId U, VertexId V) const {
    const Node *N = VT::findNode(Root, U);
    return N && N->Val.contains(V);
  }

  bool hasFastProbe(VertexId) const { return false; }

  /// Iterate (neighbor, weight) pairs of \p V with early exit.
  template <class F> bool iterNeighborsW(VertexId V, const F &Fn) const {
    const Node *N = VT::findNode(Root, V);
    if (!N)
      return true;
    return N->Val.iterCond(Fn);
  }

  /// Streaming cursor over \p V's (neighbor, weight) entries; empty
  /// cursor when the vertex is absent. The graph must outlive it.
  typename EdgeSet::Cursor neighborCursor(VertexId V) const {
    const Node *N = VT::findNode(Root, V);
    return N ? N->Val.cursor() : typename EdgeSet::Cursor();
  }

  /// Insert weighted edges; \p Fn(old, new) combines weights of existing
  /// edges (default: take the new weight, i.e. weight update).
  template <class Comb>
  WeightedGraphT insertEdges(std::vector<WeightedEdge<W>> Edges,
                             const Comb &Fn) const {
    if (Edges.empty())
      return *this;
    auto Pairs = groupBySource(std::move(Edges));
    Node *Mine = Root;
    VT::retain(Mine);
    Node *NewRoot = VT::multiInsert(
        Mine, Pairs.data(), Pairs.size(),
        [&](EdgeSet Old, EdgeSet New) {
          return EdgeSet::merge(std::move(Old), std::move(New), Fn);
        });
    return WeightedGraphT(NewRoot);
  }

  WeightedGraphT insertEdges(std::vector<WeightedEdge<W>> Edges) const {
    return insertEdges(std::move(Edges), [](W, W New) { return New; });
  }

  /// Delete the given (src, dst) pairs.
  WeightedGraphT deleteEdges(std::vector<EdgePair> Edges) const {
    if (Edges.empty())
      return *this;
    auto Weighted = tabulate(Edges.size(), [&](size_t I) {
      return WeightedEdge<W>{Edges[I].first, Edges[I].second, W()};
    });
    auto Pairs = groupBySource(std::move(Weighted));
    Node *Mine = Root;
    VT::retain(Mine);
    // Unknown sources are ignored: a delete must not create a vertex.
    Node *NewRoot = VT::multiUpdate(
        Mine, Pairs.data(), Pairs.size(),
        [](EdgeSet Old, EdgeSet Del) {
          return EdgeSet::minus(std::move(Old), std::move(Del));
        },
        [](size_t, const Node *) {}, [](size_t) {});
    return WeightedGraphT(NewRoot);
  }

  /// Parallel traversal over (vertex, edge set) entries, mirroring the
  /// unweighted snapshot's surface.
  template <class F> void forEachVertex(const F &Fn) const {
    VT::forEachPar(Root, Fn);
  }

  size_t memoryBytes() const { return memoryRec(Root); }

private:
  static std::vector<std::pair<VertexId, EdgeSet>>
  groupBySource(std::vector<WeightedEdge<W>> Edges) {
    parallelSort(Edges, [](const WeightedEdge<W> &A,
                           const WeightedEdge<W> &B) {
      return std::tie(A.Src, A.Dst) < std::tie(B.Src, B.Dst);
    });
    // Last weight wins among duplicates of the same (src, dst).
    auto E = filterIndex(
        Edges.size(), [&](size_t I) { return Edges[I]; },
        [&](size_t I) {
          return I + 1 == Edges.size() || Edges[I].Src != Edges[I + 1].Src ||
                 Edges[I].Dst != Edges[I + 1].Dst;
        });
    auto Starts = filterIndex(
        E.size(), [&](size_t I) { return I; },
        [&](size_t I) { return I == 0 || E[I].Src != E[I - 1].Src; });
    auto Dst = tabulate(E.size(), [&](size_t I) {
      return std::pair<VertexId, W>{E[I].Dst, E[I].Weight};
    });
    std::vector<std::pair<VertexId, EdgeSet>> Pairs(Starts.size());
    parallelFor(0, Starts.size(), [&](size_t G) {
      size_t Lo = Starts[G];
      size_t Hi = (G + 1 < Starts.size()) ? Starts[G + 1] : E.size();
      Pairs[G] = {E[Lo].Src,
                  EdgeSet::buildSorted(Dst.data() + Lo, Hi - Lo)};
    });
    return Pairs;
  }

  static size_t memoryRec(const Node *N) {
    if (!N)
      return 0;
    size_t Self = sizeof(Node) + N->Val.memoryBytes();
    if (N->Size < VT::SeqCutoff)
      return Self + memoryRec(N->Left) + memoryRec(N->Right);
    size_t L = 0, R = 0;
    parallelDo([&] { L = memoryRec(N->Left); },
               [&] { R = memoryRec(N->Right); });
    return Self + L + R;
  }

  Node *Root = nullptr;
};

using WeightedGraph = WeightedGraphT<double>;

} // namespace aspen

#endif // ASPEN_GRAPH_WEIGHTED_GRAPH_H
