//===- graph/uncompressed_set.h - Plain purely-functional integer sets ----===//
//
// The "Aspen Uncomp." configuration of Table 2: edge sets represented as
// ordinary purely-functional trees with one element per 32-byte node. The
// interface mirrors CTreeSet so GraphSnapshotT can be instantiated with
// either representation.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_GRAPH_UNCOMPRESSED_SET_H
#define ASPEN_GRAPH_UNCOMPRESSED_SET_H

#include "pam/tree.h"
#include "parallel/primitives.h"
#include "util/types.h"

#include <vector>

namespace aspen {

/// Ordered integer set over a plain purely-functional tree (no chunking).
template <class K> class UncompressedSet {
public:
  struct SetEntry {
    using KeyT = K;
    using ValT = Empty;
    using AugT = Empty;
    static bool less(const K &A, const K &B) { return A < B; }
    static AugT augOfEntry(const KeyT &, const ValT &) { return {}; }
    static AugT augIdentity() { return {}; }
    static AugT augCombine(AugT, AugT) { return {}; }
  };

  using T = Tree<SetEntry>;
  using Node = typename T::Node;

  /// No tunable construction parameters; present so the graph layer can
  /// thread one BuildParams type through any edge-set representation.
  struct BuildParams {};

  UncompressedSet() = default;
  explicit UncompressedSet(Node *Root) : Root(Root) {}

  UncompressedSet(const UncompressedSet &O) : Root(O.Root) {
    T::retain(Root);
  }
  UncompressedSet(UncompressedSet &&O) noexcept : Root(O.Root) {
    O.Root = nullptr;
  }
  UncompressedSet &operator=(const UncompressedSet &O) {
    if (this != &O) {
      T::retain(O.Root);
      T::release(Root);
      Root = O.Root;
    }
    return *this;
  }
  UncompressedSet &operator=(UncompressedSet &&O) noexcept {
    if (this != &O) {
      T::release(Root);
      Root = O.Root;
      O.Root = nullptr;
    }
    return *this;
  }
  ~UncompressedSet() { T::release(Root); }

  bool empty() const { return !Root; }
  size_t size() const { return T::size(Root); }
  Node *root() const { return Root; }

  static UncompressedSet buildSorted(const K *E, size_t N,
                                     BuildParams = {}) {
    auto Pairs = tabulate(N, [&](size_t I) {
      return std::pair<K, Empty>{E[I], Empty{}};
    });
    return UncompressedSet(T::buildSorted(Pairs.data(), N));
  }

  static UncompressedSet fromUnsorted(std::vector<K> E, BuildParams = {}) {
    parallelSort(E);
    E.erase(std::unique(E.begin(), E.end()), E.end());
    return buildSorted(E.data(), E.size());
  }

  bool contains(K X) const { return T::findNode(Root, X) != nullptr; }

  static UncompressedSet setUnion(UncompressedSet A, UncompressedSet B) {
    return UncompressedSet(
        T::unionWith(A.take(), B.take(), [](Empty, Empty) {
          return Empty{};
        }));
  }

  static UncompressedSet setDifference(UncompressedSet A,
                                       UncompressedSet B) {
    return UncompressedSet(T::difference(A.take(), B.take()));
  }

  static UncompressedSet setIntersect(UncompressedSet A, UncompressedSet B) {
    return UncompressedSet(
        T::intersectWith(A.take(), B.take(), [](Empty, Empty) {
          return Empty{};
        }));
  }

  UncompressedSet multiInsert(std::vector<K> Batch,
                              BuildParams = {}) const {
    return setUnion(*this, fromUnsorted(std::move(Batch)));
  }

  UncompressedSet multiDelete(std::vector<K> Batch,
                              BuildParams = {}) const {
    return setDifference(*this, fromUnsorted(std::move(Batch)));
  }

  /// Non-owning view (mirrors CTreeSet::View; see flat snapshots).
  struct View {
    const Node *Root = nullptr;

    size_t size() const { return T::size(Root); }
    bool empty() const { return !Root; }

    /// Membership: O(log n) tree search.
    bool contains(K X) const { return T::findNode(Root, X) != nullptr; }

    /// Streaming in-order cursor (mirrors CTreeSet::View::Cursor so the
    /// graph layer compiles against either edge-set representation).
    class Cursor {
    public:
      Cursor() = default;
      explicit Cursor(const View &V) : TC(V.Root) {}

      bool done() const { return TC.done(); }
      K value() const { return TC.node()->Key; }
      void advance() { TC.advance(); }

    private:
      typename T::Cursor TC;
    };

    Cursor cursor() const { return Cursor(*this); }

    template <class F> void forEachSeq(const F &Fn) const {
      for (Cursor C(*this); !C.done(); C.advance())
        Fn(C.value());
    }

    template <class F> void forEachPar(const F &Fn) const {
      T::forEachPar(Root, [&](const K &Key, Empty) { Fn(Key); });
    }

    template <class F> void forEachIndexed(const F &Fn) const {
      T::forEachIndexed(Root, 0, [&](size_t I, const K &Key, Empty) {
        Fn(I, Key);
      });
    }

    template <class F> bool iterCond(const F &Fn) const {
      for (Cursor C(*this); !C.done(); C.advance())
        if (!Fn(C.value()))
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

  View view() const { return View{Root}; }

  /// Streaming cursor over all elements (this set must outlive it).
  typename View::Cursor cursor() const { return view().cursor(); }

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

  size_t memoryBytes() const { return size() * sizeof(Node); }

  bool checkInvariants(BuildParams = {}) const {
    if (!T::validate(Root))
      return false;
    bool Ok = true, Any = false;
    K Prev{};
    forEachSeq([&](K V) {
      if (Any && V <= Prev)
        Ok = false;
      Prev = V;
      Any = true;
    });
    return Ok;
  }

private:
  Node *take() {
    Node *R = Root;
    Root = nullptr;
    return R;
  }

  Node *Root = nullptr;
};

} // namespace aspen

#endif // ASPEN_GRAPH_UNCOMPRESSED_SET_H
