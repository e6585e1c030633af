//===- graph/hybrid_set.h - Degree-adaptive hybrid edge sets --------------===//
//
// A degree-adaptive edge-set representation: each vertex's adjacency is
// stored in the class its degree earns, migrating between the two classes
// inside the functional update path (the set algebra knows every
// post-merge degree):
//
//  * inline  (degree <= HybridInlineCap): the sorted neighbor array lives
//    directly in the vertex-tree node value — no C-tree, no chunk header,
//    no pointer chase. The long tail of a power-law graph lands here.
//  * chunked (degree > HybridInlineCap): the delta-compressed C-tree, with
//    the chunk size a per-set parameter (HybridParams::LogB) instead of
//    the former process-global knob. A batch into a high-degree vertex
//    re-encodes only the chunks on its paths, as in the paper.
//
// The interface mirrors CTreeSet, so GraphSnapshotT, FlatSnapshotT, both
// stores, and every algorithm behind the graph-view concept run on hybrid
// sets unmodified. The View is self-contained (inline elements are copied
// into it by value), keeping it trivially copyable for flat snapshots and
// valid across the page-sharing refresh path, where a vertex's tree node
// may be replaced while its page is shared.
//
// The chunk size comes from HybridParams, either defaulted or chosen per
// graph by autotuneHybridParams from degree statistics (DESIGN.md §6).
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_GRAPH_HYBRID_SET_H
#define ASPEN_GRAPH_HYBRID_SET_H

#include "ctree/ctree.h"
#include "util/types.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace aspen {

/// Capacity of the inline class: neighbors stored directly in the vertex
/// tree node. 8 x 4-byte ids keeps the node value within one cache line.
inline constexpr size_t HybridInlineCap = 8;

/// Per-set (per-graph) representation parameters. Packed and trivially
/// copyable: every hybrid set carries its params, so the set algebra can
/// reclassify results without out-of-band state.
struct HybridParams {
  uint8_t LogB = 7; ///< chunked-class chunk size b = 1 << LogB

  uint64_t headMask() const { return (uint64_t(1) << LogB) - 1; }

  friend bool operator==(const HybridParams &A, const HybridParams &B) {
    return A.LogB == B.LogB;
  }
  friend bool operator!=(const HybridParams &A, const HybridParams &B) {
    return !(A == B);
  }
};

/// Choose hybrid parameters from degree statistics: b targets one chunk
/// per average chunked-class vertex (one pointer chase per scan), clamped
/// to [32, 512]. Below 32 the per-chunk header overhead dominates; above
/// 512 the O(b) re-encode on every touched chunk penalizes batch updates.
inline HybridParams autotuneHybridParams(const uint32_t *Degrees,
                                         size_t N) {
  HybridParams P;
  uint64_t ChunkedEdges = 0, ChunkedVertices = 0;
  for (size_t I = 0; I < N; ++I) {
    if (Degrees[I] > HybridInlineCap) {
      ChunkedEdges += Degrees[I];
      ++ChunkedVertices;
    }
  }
  uint64_t Avg = ChunkedVertices ? ChunkedEdges / ChunkedVertices : 0;
  uint8_t LogB = 5; // b = 32 floor
  while ((uint64_t(1) << LogB) < Avg && LogB < 9)
    ++LogB;
  P.LogB = LogB;
  return P;
}

/// Convenience overload: degree statistics from a directed edge list.
inline HybridParams autotuneHybridParams(VertexId NumVertices,
                                         const std::vector<EdgePair> &Edges) {
  std::vector<uint32_t> Degrees(NumVertices, 0);
  for (const EdgePair &E : Edges)
    if (E.first < NumVertices)
      ++Degrees[E.first];
  return autotuneHybridParams(Degrees.data(), Degrees.size());
}

/// Degree class of a hybrid set (diagnostics, benches, tests).
enum class HybridClass { Inline, Chunked };

template <class K, class Codec = DeltaByteCodec> class HybridEdgeSetT {
public:
  using CSet = CTreeSet<K, Codec>;
  using CT = typename CSet::T;
  using Node = typename CSet::Node;
  using Payload = ChunkPayload<K>;
  using BuildParams = HybridParams;

  static constexpr size_t InlineCap = HybridInlineCap;

  //===--------------------------------------------------------------------===
  // Value semantics. The representation is a tagged union managed
  // manually: tree-rep pointers carry refcounts (tree nodes, prefix
  // chunk), inline elements are plain values in the object.
  //===--------------------------------------------------------------------===

  HybridEdgeSetT() = default;

  HybridEdgeSetT(const HybridEdgeSetT &O) : R(O.R), Tag(O.Tag), P(O.P) {
    if (isTree()) {
      CT::retain(R.Tr.Root);
      retainChunk(R.Tr.Prefix);
    }
  }
  HybridEdgeSetT(HybridEdgeSetT &&O) noexcept
      : R(O.R), Tag(O.Tag), P(O.P) {
    O.Tag = 0;
  }
  HybridEdgeSetT &operator=(const HybridEdgeSetT &O) {
    if (this != &O) {
      HybridEdgeSetT Tmp(O); // retain first: safe under self-aliasing reps
      *this = std::move(Tmp);
    }
    return *this;
  }
  HybridEdgeSetT &operator=(HybridEdgeSetT &&O) noexcept {
    if (this != &O) {
      clear();
      R = O.R;
      Tag = O.Tag;
      P = O.P;
      O.Tag = 0;
    }
    return *this;
  }
  ~HybridEdgeSetT() { clear(); }

  void clear() {
    if (isTree()) {
      CT::release(R.Tr.Root);
      releaseChunk(R.Tr.Prefix);
    }
    Tag = 0;
  }

  bool empty() const { return !isTree() && Tag == 0; }

  size_t size() const {
    return isTree() ? chunkCount(R.Tr.Prefix) + CT::aug(R.Tr.Root)
                    : size_t(Tag);
  }

  HybridParams params() const { return P; }

  HybridClass degreeClass() const {
    return isTree() ? HybridClass::Chunked : HybridClass::Inline;
  }

  //===--------------------------------------------------------------------===
  // Construction.
  //===--------------------------------------------------------------------===

  /// Build from sorted, duplicate-free elements into the class \p N earns.
  static HybridEdgeSetT buildSorted(const K *E, size_t N,
                                    BuildParams P = {}) {
    HybridEdgeSetT Out;
    Out.P = P;
    if (N <= InlineCap) {
      std::copy(E, E + N, Out.R.Inline);
      Out.Tag = uint8_t(N);
      return Out;
    }
    CSet S = CSet::buildSorted(E, N, {P.headMask()});
    Out.adoptTree(S);
    return Out;
  }

  static HybridEdgeSetT fromUnsorted(std::vector<K> E, BuildParams P = {}) {
    parallelSort(E);
    E.erase(std::unique(E.begin(), E.end()), E.end());
    return buildSorted(E.data(), E.size(), P);
  }

  //===--------------------------------------------------------------------===
  // Borrowed view. Self-contained: tree-rep pointers are borrowed (the
  // owning snapshot keeps them alive), inline elements are copied in by
  // value — so a view stored in a flat-snapshot page stays valid even
  // when the vertex's tree node is replaced while the page is shared.
  //===--------------------------------------------------------------------===

  struct View {
    const Node *Root = nullptr;
    const Payload *Prefix = nullptr;
    K InlineE[InlineCap] = {};
    uint8_t InlineN = 0;
    uint8_t IsTree = 0;

    typename CSet::View tview() const {
      return typename CSet::View{Root, Prefix};
    }

    size_t size() const {
      return IsTree ? tview().size() : size_t(InlineN);
    }
    bool empty() const { return size() == 0; }

    /// Membership: a scan of the inline array, or the C-tree's
    /// O(b + log n) head search and chunk scan.
    bool contains(K X) const {
      if (!IsTree) {
        for (uint8_t I = 0; I < InlineN; ++I)
          if (InlineE[I] == X)
            return true;
        return false;
      }
      return tview().contains(X);
    }

    /// Streaming in-order cursor. Self-contained like the view (inline
    /// elements copied), so it may outlive the temporary view it was
    /// made from — only the owning snapshot must stay alive.
    class Cursor {
    public:
      Cursor() = default;
      explicit Cursor(const View &V) {
        if (V.IsTree) {
          Tree = true;
          TC = typename CSet::View::Cursor(V.tview());
        } else {
          N = V.InlineN;
          std::copy(V.InlineE, V.InlineE + N, Buf);
        }
      }

      bool done() const { return Tree ? TC.done() : I == N; }
      K value() const {
        assert(!done() && "value() on exhausted cursor");
        return Tree ? TC.value() : Buf[I];
      }
      void advance() {
        assert(!done() && "advance() on exhausted cursor");
        if (Tree)
          TC.advance();
        else
          ++I;
      }

    private:
      typename CSet::View::Cursor TC;
      K Buf[InlineCap] = {};
      uint8_t I = 0, N = 0;
      bool Tree = false;
    };

    Cursor cursor() const { return Cursor(*this); }

    template <class F> void forEachSeq(const F &Fn) const {
      if (IsTree)
        tview().forEachSeq(Fn);
      else
        for (uint8_t I = 0; I < InlineN; ++I)
          Fn(InlineE[I]);
    }

    template <class F> void forEachPar(const F &Fn) const {
      if (IsTree)
        tview().forEachPar(Fn);
      else
        for (uint8_t I = 0; I < InlineN; ++I)
          Fn(InlineE[I]);
    }

    template <class F> void forEachIndexed(const F &Fn) const {
      if (IsTree)
        tview().forEachIndexed(Fn);
      else
        for (uint8_t I = 0; I < InlineN; ++I)
          Fn(size_t(I), InlineE[I]);
    }

    template <class F> bool iterCond(const F &Fn) const {
      if (IsTree)
        return tview().iterCond(Fn);
      for (uint8_t I = 0; I < InlineN; ++I)
        if (!Fn(InlineE[I]))
          return false;
      return true;
    }

    std::vector<K> toVector() const {
      std::vector<K> Out;
      Out.reserve(size());
      forEachSeq([&](K V) { Out.push_back(V); });
      return Out;
    }
  };

  View view() const {
    View V;
    if (isTree()) {
      V.IsTree = 1;
      V.Root = R.Tr.Root;
      V.Prefix = R.Tr.Prefix;
    } else {
      V.InlineN = Tag;
      std::copy(R.Inline, R.Inline + Tag, V.InlineE);
    }
    return V;
  }

  typename View::Cursor cursor() const { return view().cursor(); }

  //===--------------------------------------------------------------------===
  // Queries and traversal (delegate to the view).
  //===--------------------------------------------------------------------===

  bool contains(K X) const { return view().contains(X); }

  template <class F> void forEachSeq(const F &Fn) const {
    view().forEachSeq(Fn);
  }
  template <class F> void forEachPar(const F &Fn) const {
    view().forEachPar(Fn);
  }
  template <class F> void forEachIndexed(const F &Fn) const {
    view().forEachIndexed(Fn);
  }
  template <class F> bool iterCond(const F &Fn) const {
    return view().iterCond(Fn);
  }
  std::vector<K> toVector() const { return view().toVector(); }

  /// Heap footprint beyond the in-node value: zero for the inline class
  /// (that is the point), chunks + tree nodes otherwise.
  size_t memoryBytes() const {
    return isTree() ? borrowCSet().memoryBytes() : 0;
  }

  //===--------------------------------------------------------------------===
  // Set algebra with class migration. Merges run in whichever
  // representation is cheapest (tiny sorted-array merges for inline
  // operands, C-tree algebra otherwise); the result is reclassified by
  // its post-merge degree, which is how vertices migrate between classes
  // inside the ordinary functional update path.
  //===--------------------------------------------------------------------===

  static HybridEdgeSetT setUnion(HybridEdgeSetT A, HybridEdgeSetT B) {
    HybridParams PU = mergedParams(A, B);
    if (!A.isTree() && !B.isTree()) {
      K Buf[2 * InlineCap];
      size_t N = std::set_union(A.R.Inline, A.R.Inline + A.Tag, B.R.Inline,
                                B.R.Inline + B.Tag, Buf) -
                 Buf;
      return buildSorted(Buf, N, PU);
    }
    CSet S = CSet::setUnion(A.takeCSet(PU), B.takeCSet(PU));
    return fromCSet(std::move(S), PU);
  }

  static HybridEdgeSetT setDifference(HybridEdgeSetT A, HybridEdgeSetT B) {
    HybridParams PU = mergedParams(A, B);
    if (!A.isTree()) {
      // Keep A's elements not in B. Result can only stay inline.
      HybridEdgeSetT Out;
      Out.P = PU;
      View VB = B.view();
      for (uint8_t I = 0; I < A.Tag; ++I)
        if (!VB.contains(A.R.Inline[I]))
          Out.R.Inline[Out.Tag++] = A.R.Inline[I];
      return Out;
    }
    CSet S = CSet::setDifference(A.takeCSet(PU), B.takeCSet(PU));
    return fromCSet(std::move(S), PU);
  }

  static HybridEdgeSetT setIntersect(HybridEdgeSetT A, HybridEdgeSetT B) {
    HybridParams PU = mergedParams(A, B);
    if (!A.isTree() || !B.isTree()) {
      // Probe the smaller (inline) side against the larger: O(k) probes.
      const HybridEdgeSetT &Small = !A.isTree() ? A : B;
      const HybridEdgeSetT &Large = !A.isTree() ? B : A;
      HybridEdgeSetT Out;
      Out.P = PU;
      View VL = Large.view();
      for (uint8_t I = 0; I < Small.Tag; ++I)
        if (VL.contains(Small.R.Inline[I]))
          Out.R.Inline[Out.Tag++] = Small.R.Inline[I];
      return Out;
    }
    CSet S = CSet::setIntersect(A.takeCSet(PU), B.takeCSet(PU));
    return fromCSet(std::move(S), PU);
  }

  /// MultiInsert/MultiDelete with the set's own params (mirrors CTreeSet;
  /// the explicit-params overloads serve empty sets and tests).
  HybridEdgeSetT multiInsert(std::vector<K> Batch) const {
    return multiInsert(std::move(Batch), P);
  }
  HybridEdgeSetT multiInsert(std::vector<K> Batch, BuildParams BP) const {
    return setUnion(*this, fromUnsorted(std::move(Batch), BP));
  }
  HybridEdgeSetT multiDelete(std::vector<K> Batch) const {
    return multiDelete(std::move(Batch), P);
  }
  HybridEdgeSetT multiDelete(std::vector<K> Batch, BuildParams BP) const {
    return setDifference(*this, fromUnsorted(std::move(Batch), BP));
  }

  HybridEdgeSetT insert(K X) const { return multiInsert({X}); }
  HybridEdgeSetT remove(K X) const { return multiDelete({X}); }

  //===--------------------------------------------------------------------===
  // Validation (test support). The BuildParams argument is accepted for
  // interface parity; a hybrid set audits against its stored params.
  //===--------------------------------------------------------------------===

  bool checkInvariants(BuildParams = {}) const {
    if (!isTree()) {
      if (Tag > InlineCap)
        return false;
      for (uint8_t I = 1; I < Tag; ++I)
        if (R.Inline[I - 1] >= R.Inline[I])
          return false;
      return true;
    }
    if (size() <= InlineCap)
      return false; // should have migrated to the inline class
    return borrowCSet().checkInvariants({P.headMask()});
  }

private:
  static constexpr uint8_t TreeTag = 0xFF;

  union Rep {
    K Inline[InlineCap];
    struct TreeRep {
      Node *Root;
      Payload *Prefix;
    } Tr;
    Rep() : Tr{nullptr, nullptr} {}
  };

  bool isTree() const { return Tag == TreeTag; }

  /// Params for a merge result: a tree operand's structure pins the chunk
  /// mask, so its params win; otherwise any non-empty operand's params.
  static HybridParams mergedParams(const HybridEdgeSetT &A,
                                   const HybridEdgeSetT &B) {
    if (A.isTree())
      return A.P;
    if (B.isTree())
      return B.P;
    return A.empty() ? B.P : A.P;
  }

  /// Borrow the chunked part as an owned CSet copy (refcount bump only).
  CSet borrowCSet() const {
    assert(isTree());
    CT::retain(R.Tr.Root);
    retainChunk(R.Tr.Prefix);
    return CSet(R.Tr.Root, R.Tr.Prefix);
  }

  /// Consume this set into a CSet under \p PU: tree reps hand over their
  /// root/prefix, inline reps build a (tiny) C-tree with PU's mask.
  CSet takeCSet(HybridParams PU) {
    if (isTree()) {
      CSet S(R.Tr.Root, R.Tr.Prefix);
      Tag = 0;
      return S;
    }
    CSet S = CSet::buildSorted(R.Inline, Tag, {PU.headMask()});
    Tag = 0;
    return S;
  }

  /// Adopt \p S (consumed) as this set's tree rep.
  void adoptTree(CSet &S) {
    // Steal the root/prefix by retaining, then letting S release.
    CT::retain(S.root());
    retainChunk(S.prefix());
    R.Tr = {S.root(), S.prefix()};
    Tag = TreeTag;
  }

  /// Reclassify a merge result by its post-merge degree: decode small
  /// results into the inline class, keep the C-tree otherwise.
  static HybridEdgeSetT fromCSet(CSet S, HybridParams P) {
    size_t N = S.size();
    HybridEdgeSetT Out;
    Out.P = P;
    if (N <= InlineCap) {
      size_t I = 0;
      S.forEachSeq([&](K V) { Out.R.Inline[I++] = V; });
      Out.Tag = uint8_t(N);
      return Out;
    }
    Out.adoptTree(S);
    return Out;
  }

  Rep R;
  uint8_t Tag = 0; ///< inline element count, or TreeTag for tree reps
  HybridParams P;
};

using HybridEdgeSet = HybridEdgeSetT<VertexId, DeltaByteCodec>;

} // namespace aspen

#endif // ASPEN_GRAPH_HYBRID_SET_H
