//===- ctree/ctree.h - Compressed purely-functional search trees ----------===//
//
// The C-tree of Section 3: a chunking scheme over purely-functional search
// trees. Elements whose hash is 0 mod b are "heads" and live in a
// purely-functional weight-balanced tree; every head's value is its "tail"
// chunk (the following non-head elements), and the elements before the
// first head form the "prefix" chunk. Because head status is a property of
// the element itself, an element is a head in every C-tree that contains
// it, which the set algebra below relies on.
//
// Set operations follow the recursive structure of Algorithms 1-3 with one
// equivalent restructuring: instead of eagerly splitting the exposed tail
// v2 and the split-off prefix BP2 around each other's smallest heads
// (Algorithm 1, lines 9-11), remnant chunks flow down the recursion as the
// prefixes of valid sub-C-trees and are merged in the base cases
// (unionBC / diffBC / intersect base). Head selection is content-
// determined, so the resulting C-tree is identical; the work/depth bounds
// are unchanged because every chunk is still processed O(1) times per
// recursion level.
//
// Ownership: like pam/tree.h, static "raw" functions consume one reference
// per input and return owned roots; the public CTreeSet class provides
// value semantics on top.
//
// Hot-path memory discipline: chunk-level merges stream through codec
// cursors and encode directly into exactly-sized payloads (see
// ctree/chunk.h); the only materialized temporaries are the batch spans
// needed for head routing in unionBC/diffBC, which live in the per-thread
// scratch workspace (memory/pool_allocator.h) and are recycled across
// operations.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_CTREE_CTREE_H
#define ASPEN_CTREE_CTREE_H

#include "ctree/chunk.h"
#include "pam/tree.h"
#include "parallel/primitives.h"
#include "util/hash.h"
#include "util/types.h"

#include <optional>
#include <vector>

namespace aspen {

/// Default expected chunk size b = 128 (HeadMask = b - 1). The mask is a
/// per-tree construction parameter, not process state: head-ness is baked
/// into a C-tree's structure at build time and the set algebra never
/// re-evaluates it, so trees built under different masks coexist freely
/// in one process (e.g. per-graph autotuned chunk sizes, the chunk-size
/// sweep). Trees that are *combined* by the set operations must share a
/// mask; the graph layer guarantees this by threading one BuildParams
/// through every construction site of a snapshot lineage.
inline constexpr uint64_t CTreeDefaultHeadMask = 127;

/// Head-selection hash, shared by every C-tree. \p HeadMask = b - 1 with
/// b a power of two; expected chunk size is b.
struct CTreeParams {
  static constexpr uint64_t Seed = 0xa9c3f71b02d5e841ULL;

  static bool isHead(uint64_t Key, uint64_t HeadMask) {
    return (hash64(Key ^ Seed) & HeadMask) == 0;
  }
};

/// A compressed purely-functional ordered set of integers (Section 3).
/// \tparam K     element type (unsigned integer)
/// \tparam Codec chunk codec: DeltaByteCodec (compressed) or RawCodec
template <class K, class Codec = DeltaByteCodec> class CTreeSet {
public:
  using Payload = ChunkPayload<K>;

  /// PAM entry for the heads tree: key = head element, value = tail chunk,
  /// augmentation = element count (1 + tail size) summed over subtrees.
  struct HeadEntry {
    using KeyT = K;
    using ValT = ChunkRef<K>;
    using AugT = uint64_t;
    static bool less(const K &A, const K &B) { return A < B; }
    static AugT augOfEntry(const K &, const ValT &V) {
      return 1 + V.count();
    }
    static AugT augIdentity() { return 0; }
    static AugT augCombine(AugT A, AugT B) { return A + B; }
  };

  using T = Tree<HeadEntry>;
  using Node = typename T::Node;

  /// Construction parameters (the edge-set representation concept: every
  /// representation names a BuildParams, threaded by the graph layer
  /// through all construction sites of a snapshot lineage). The mask only
  /// matters where heads are (re)selected — construction and invariant
  /// checking; merges of already-built trees never consult it.
  struct BuildParams {
    uint64_t HeadMask = CTreeDefaultHeadMask;
  };

  //===--------------------------------------------------------------------===
  // Value semantics.
  //===--------------------------------------------------------------------===

  CTreeSet() = default;
  /// Adopts ownership of \p Root and \p Prefix.
  CTreeSet(Node *Root, Payload *Prefix) : Root(Root), Prefix(Prefix) {}

  CTreeSet(const CTreeSet &O) : Root(O.Root), Prefix(O.Prefix) {
    T::retain(Root);
    retainChunk(Prefix);
  }
  CTreeSet(CTreeSet &&O) noexcept : Root(O.Root), Prefix(O.Prefix) {
    O.Root = nullptr;
    O.Prefix = nullptr;
  }
  CTreeSet &operator=(const CTreeSet &O) {
    if (this != &O) {
      T::retain(O.Root);
      retainChunk(O.Prefix);
      clear();
      Root = O.Root;
      Prefix = O.Prefix;
    }
    return *this;
  }
  CTreeSet &operator=(CTreeSet &&O) noexcept {
    if (this != &O) {
      clear();
      Root = O.Root;
      Prefix = O.Prefix;
      O.Root = nullptr;
      O.Prefix = nullptr;
    }
    return *this;
  }
  ~CTreeSet() { clear(); }

  void clear() {
    T::release(Root);
    releaseChunk(Prefix);
    Root = nullptr;
    Prefix = nullptr;
  }

  bool empty() const { return !Root && !Prefix; }

  /// Total number of elements: O(1) via the count augmentation.
  size_t size() const { return chunkCount(Prefix) + T::aug(Root); }

  Node *root() const { return Root; }
  Payload *prefix() const { return Prefix; }

  //===--------------------------------------------------------------------===
  // Construction.
  //===--------------------------------------------------------------------===

  /// Build from sorted, duplicate-free elements. O(n) work after sorting,
  /// O(b log n) depth w.h.p. (Section 4.2; sorting is the caller's job so
  /// pre-sorted inputs, e.g. CSR rows, build in linear work).
  static CTreeSet buildSorted(const K *E, size_t N, BuildParams P = {}) {
    if (N == 0)
      return CTreeSet();
    CtxArray<size_t> HeadIdx(N);
    size_t *HeadIdxP = HeadIdx.data();
    size_t H = filterIndexInto(
        N, [](size_t I) { return I; },
        [&](size_t I) { return CTreeParams::isHead(E[I], P.HeadMask); },
        HeadIdxP);
    if (H == 0)
      return CTreeSet(nullptr, makeChunk<Codec>(E, N));
    Payload *Pre = makeChunk<Codec>(E, HeadIdxP[0]);
    HeadUpdates Pairs(H);
    Pairs.setSize(H);
    parallelFor(0, H, [&](size_t I) {
      size_t Lo = HeadIdxP[I] + 1;
      size_t Hi = (I + 1 < H) ? HeadIdxP[I + 1] : N;
      Pairs.emplaceAt(I, E[HeadIdxP[I]],
                      ChunkRef<K>(makeChunk<Codec>(E + Lo, Hi - Lo)));
    });
    Node *Tr = T::buildSorted(Pairs.data(), H);
    return CTreeSet(Tr, Pre);
  }

  /// Sorts, removes duplicates, and builds.
  static CTreeSet fromUnsorted(std::vector<K> E, BuildParams P = {}) {
    parallelSort(E);
    E.erase(std::unique(E.begin(), E.end()), E.end());
    return buildSorted(E.data(), E.size(), P);
  }

  //===--------------------------------------------------------------------===
  // Borrowed views.
  //===--------------------------------------------------------------------===

  /// Non-owning view over a C-tree's (root, prefix) pair. Trivially
  /// copyable/destructible, so flat snapshots (Section 5.1) can hold one
  /// per vertex with no reference-count traffic; the flat snapshot keeps
  /// the owning graph version alive instead.
  struct View {
    const Node *Root = nullptr;
    const Payload *Prefix = nullptr;

    size_t size() const { return chunkCount(Prefix) + T::aug(Root); }
    bool empty() const { return !Root && !Prefix; }

    /// Membership. O(b + log n) expected work: findLE over the heads tree
    /// plus an early-exiting decode scan of one chunk.
    bool contains(K X) const {
      if (Prefix && X <= Prefix->Last) {
        if (X < Prefix->First)
          return false;
        return chunkContains<Codec>(Prefix, X);
      }
      const Node *N = T::findLE(Root, X);
      if (!N)
        return false;
      if (N->Key == X)
        return true;
      return chunkContains<Codec>(N->Val.get(), X);
    }

    /// Streaming in-order cursor over every element: composes the prefix
    /// chunk cursor, the heads-tree cursor, and per-head tail cursors.
    /// Nothing is materialized; the view must outlive the cursor.
    class Cursor {
    public:
      using ChunkCursor = typename Codec::template Cursor<K>;

      Cursor() = default;
      explicit Cursor(const View &V) : TC(V.Root) {
        CC = ChunkCursor(V.Prefix);
        State = !CC.done() ? InChunk : (!TC.done() ? AtHead : Drained);
      }

      bool done() const { return State == Drained; }
      K value() const {
        assert(State != Drained && "value() on exhausted cursor");
        return State == InChunk ? CC.value() : TC.node()->Key;
      }
      void advance() {
        assert(State != Drained && "advance() on exhausted cursor");
        if (State == InChunk) {
          CC.advance();
          if (!CC.done())
            return;
        } else {
          // Leave the head: its tail chunk comes next.
          CC = ChunkCursor(TC.node()->Val.get());
          TC.advance();
          if (!CC.done()) {
            State = InChunk;
            return;
          }
        }
        State = TC.done() ? Drained : AtHead;
      }

    private:
      enum S { InChunk, AtHead, Drained };
      ChunkCursor CC;
      typename T::Cursor TC;
      S State = Drained;
    };

    Cursor cursor() const { return Cursor(*this); }

    /// Sequential in-order traversal: Fn(element). Walks chunks through
    /// the codec's block-bulk iterate (tight array inner loops) rather
    /// than the element-stepping Cursor.
    template <class F> void forEachSeq(const F &Fn) const {
      if (Prefix)
        Codec::template iterate<K>(Prefix, [&](K V) {
          Fn(V);
          return true;
        });
      T::forEachSeq(Root, [&](const K &Key, const ChunkRef<K> &Tail) {
        Fn(Key);
        if (Tail.get())
          Codec::template iterate<K>(Tail.get(), [&](K V) {
            Fn(V);
            return true;
          });
      });
    }

    /// Parallel traversal (unordered across chunks): Fn(element).
    template <class F> void forEachPar(const F &Fn) const {
      auto DoPrefix = [&] {
        if (Prefix)
          Codec::template iterate<K>(Prefix, [&](K V) {
            Fn(V);
            return true;
          });
      };
      auto DoTree = [&] {
        T::forEachPar(Root, [&](const K &Key, const ChunkRef<K> &Tail) {
          Fn(Key);
          if (Tail.get())
            Codec::template iterate<K>(Tail.get(), [&](K V) {
              Fn(V);
              return true;
            });
        });
      };
      parallelDo(DoPrefix, DoTree);
    }

    /// Parallel traversal with in-order element indices: Fn(index,
    /// element). Used by edgeMap to write frontier candidates at
    /// per-edge offsets.
    template <class F> void forEachIndexed(const F &Fn) const {
      auto DoPrefix = [&] {
        if (Prefix) {
          size_t I = 0;
          Codec::template iterate<K>(Prefix, [&](K V) {
            Fn(I++, V);
            return true;
          });
        }
      };
      size_t Base = chunkCount(Prefix);
      auto DoTree = [&] { forEachIndexedRec(Root, Base, Fn); };
      parallelDo(DoPrefix, DoTree);
    }

    /// Sequential in-order traversal with early exit: Fn returns false
    /// to stop. Returns false iff stopped early. Chunk contents stream
    /// through the block-bulk iterate (the dense edgeMap hot path).
    template <class F> bool iterCond(const F &Fn) const {
      if (Prefix && !Codec::template iterate<K>(Prefix, Fn))
        return false;
      return T::iterCond(Root, [&](const K &Key, const ChunkRef<K> &Tail) {
        if (!Fn(Key))
          return false;
        if (!Tail.get())
          return true;
        return Codec::template iterate<K>(Tail.get(), Fn);
      });
    }

    /// All elements, in order.
    std::vector<K> toVector() const {
      std::vector<K> Out;
      Out.reserve(size());
      forEachSeq([&](K V) { Out.push_back(V); });
      return Out;
    }
  };

  /// Borrow a view of this set (valid while this set is alive).
  View view() const { return View{Root, Prefix}; }

  /// Streaming cursor over all elements (this set must outlive it).
  typename View::Cursor cursor() const { return view().cursor(); }

  //===--------------------------------------------------------------------===
  // Queries.
  //===--------------------------------------------------------------------===

  /// Membership. O(b + log n) expected work (Section 4.2).
  bool contains(K X) const { return view().contains(X); }

  /// Sequential in-order traversal: Fn(element).
  template <class F> void forEachSeq(const F &Fn) const {
    view().forEachSeq(Fn);
  }

  /// Parallel traversal (unordered across chunks): Fn(element).
  template <class F> void forEachPar(const F &Fn) const {
    view().forEachPar(Fn);
  }

  /// Parallel traversal with in-order element indices: Fn(index, element).
  template <class F> void forEachIndexed(const F &Fn) const {
    view().forEachIndexed(Fn);
  }

  /// Sequential in-order traversal with early exit: Fn returns false to
  /// stop. Returns false iff stopped early.
  template <class F> bool iterCond(const F &Fn) const {
    return view().iterCond(Fn);
  }

  /// All elements, in order.
  std::vector<K> toVector() const { return view().toVector(); }

  /// Exact heap footprint: tree nodes plus chunk payload bytes.
  size_t memoryBytes() const {
    return chunkBytes(Prefix) + treeMemory(Root);
  }

  /// Number of heads (tree nodes).
  size_t numHeads() const { return T::size(Root); }

  //===--------------------------------------------------------------------===
  // Set algebra (consuming, value-passing API).
  //===--------------------------------------------------------------------===

  static CTreeSet setUnion(CTreeSet A, CTreeSet B) {
    return fromRaw(rawUnion(A.takeRaw(), B.takeRaw()));
  }

  static CTreeSet setDifference(CTreeSet A, CTreeSet B) {
    return fromRaw(rawDifference(A.takeRaw(), B.takeRaw()));
  }

  static CTreeSet setIntersect(CTreeSet A, CTreeSet B) {
    return fromRaw(rawIntersect(A.takeRaw(), B.takeRaw()));
  }

  /// MultiInsert (Section 4): union with a C-tree built over the batch.
  /// \p P must match the mask this tree was built under.
  CTreeSet multiInsert(std::vector<K> Batch, BuildParams P = {}) const {
    return setUnion(*this, fromUnsorted(std::move(Batch), P));
  }

  /// MultiDelete (Section 4): difference with the batch.
  CTreeSet multiDelete(std::vector<K> Batch, BuildParams P = {}) const {
    return setDifference(*this, fromUnsorted(std::move(Batch), P));
  }

  /// Insert a single element (O(b + log n) expected).
  CTreeSet insert(K X, BuildParams P = {}) const {
    return multiInsert({X}, P);
  }

  /// Remove a single element.
  CTreeSet remove(K X, BuildParams P = {}) const {
    return multiDelete({X}, P);
  }

  //===--------------------------------------------------------------------===
  // Validation (test support).
  //===--------------------------------------------------------------------===

  /// Full structural audit: PAM invariants, strict element order, head
  /// placement, prefix/tail bounds, chunk headers, and count augmentation.
  /// \p P must match the mask this tree was built under.
  bool checkInvariants(BuildParams P = {}) const {
    if (!T::validate(Root))
      return false;
    // The element sequence must be strictly increasing, with heads exactly
    // where the hash says they are.
    bool Ok = true;
    bool Any = false;
    K Prev{};
    size_t Count = 0;
    bool SeenTreeKey = false;
    if (Prefix) {
      if (!checkChunk(Prefix))
        return false;
      Codec::template iterate<K>(Prefix, [&](K V) {
        if (Any && V <= Prev)
          Ok = false;
        if (CTreeParams::isHead(V, P.HeadMask))
          Ok = false; // prefix holds non-heads only
        Prev = V;
        Any = true;
        ++Count;
        return true;
      });
    }
    T::forEachSeq(Root, [&](const K &Key, const ChunkRef<K> &Tail) {
      SeenTreeKey = true;
      if (Any && Key <= Prev)
        Ok = false;
      if (!CTreeParams::isHead(Key, P.HeadMask))
        Ok = false; // tree keys must be heads
      Prev = Key;
      Any = true;
      ++Count;
      if (Payload *C = Tail.get()) {
        if (!checkChunk(C))
          Ok = false;
        Codec::template iterate<K>(C, [&](K V) {
          if (V <= Prev)
            Ok = false;
          if (CTreeParams::isHead(V, P.HeadMask))
            Ok = false; // tails hold non-heads only
          Prev = V;
          ++Count;
          return true;
        });
      }
    });
    (void)SeenTreeKey;
    if (Count != size())
      Ok = false; // augmentation must match actual element count
    return Ok;
  }

private:
  struct Raw {
    Node *T = nullptr;
    Payload *P = nullptr;
    bool empty() const { return !T && !P; }
  };

  struct RawSplit {
    Raw Left;
    Raw Right;
    bool Found = false;
  };

  Raw takeRaw() {
    Raw R{Root, Prefix};
    Root = nullptr;
    Prefix = nullptr;
    return R;
  }

  static CTreeSet fromRaw(Raw R) { return CTreeSet(R.T, R.P); }

  static void releaseRaw(Raw R) {
    T::release(R.T);
    releaseChunk(R.P);
  }

  static bool checkChunk(const Payload *C) {
    if (C->Count == 0)
      return false;
    K First{}, Last{};
    size_t N = 0;
    Codec::template iterate<K>(C, [&](K V) {
      if (N == 0)
        First = V;
      Last = V;
      ++N;
      return true;
    });
    return N == C->Count && First == C->First && Last == C->Last;
  }

public:
  template <class F>
  static void forEachIndexedRec(const Node *N, size_t Offset, const F &Fn) {
    if (!N)
      return;
    size_t LeftCount = T::aug(N->Left);
    auto DoNode = [&] {
      size_t I = Offset + LeftCount;
      Fn(I++, N->Key);
      if (Payload *C = N->Val.get())
        Codec::template iterate<K>(C, [&](K V) {
          Fn(I++, V);
          return true;
        });
    };
    size_t NodeElems = 1 + N->Val.count();
    if (N->Size < T::SeqCutoff) {
      forEachIndexedRec(N->Left, Offset, Fn);
      DoNode();
      forEachIndexedRec(N->Right, Offset + LeftCount + NodeElems, Fn);
      return;
    }
    parallelDo([&] { forEachIndexedRec(N->Left, Offset, Fn); },
               [&] {
                 DoNode();
                 forEachIndexedRec(N->Right, Offset + LeftCount + NodeElems,
                                   Fn);
               });
  }

private:
  static size_t treeMemory(const Node *N) {
    if (!N)
      return 0;
    size_t Self = sizeof(Node) + chunkBytes(N->Val.get());
    if (N->Size < T::SeqCutoff)
      return Self + treeMemory(N->Left) + treeMemory(N->Right);
    size_t L = 0, R = 0;
    parallelDo([&] { L = treeMemory(N->Left); },
               [&] { R = treeMemory(N->Right); });
    return Self + L + R;
  }

  //===--------------------------------------------------------------------===
  // Raw algorithms (Algorithms 1-3 with the restructuring described in the
  // file header). All consume their tree/chunk arguments.
  //===--------------------------------------------------------------------===

  /// Split around \p Key (Algorithm 3). The left result always has a null
  /// prefix when the input prefix is null; the input prefix (or its lower
  /// part) becomes the left result's prefix; the cut tail (or upper prefix
  /// part) becomes the right result's prefix.
  static RawSplit rawSplit(Raw C, K Key) {
    RawSplit S;
    if (C.empty())
      return S;
    if (C.P) {
      if (Key <= C.P->Last) {
        ChunkSplit CS = splitChunk<Codec>(C.P, Key);
        releaseChunk(C.P);
        S.Left = Raw{nullptr, static_cast<Payload *>(CS.Left)};
        S.Right = Raw{C.T, static_cast<Payload *>(CS.Right)};
        S.Found = CS.Found;
        return S;
      }
      S = rawSplit(Raw{C.T, nullptr}, Key);
      assert(!S.Left.P && "left split of prefix-free tree has a prefix");
      S.Left.P = C.P;
      return S;
    }
    if (!C.T)
      return S;
    typename T::Exposed E = T::expose(C.T);
    K H = E.Shell->Key;
    if (Key < H) {
      S = rawSplit(Raw{E.Left, nullptr}, Key);
      Node *RT = T::join(S.Right.T, E.Shell, E.Right);
      S.Right = Raw{RT, S.Right.P};
      return S;
    }
    if (Key == H) {
      Payload *Tail = E.Shell->Val.take();
      T::freeShell(E.Shell);
      S.Left = Raw{E.Left, nullptr};
      S.Right = Raw{E.Right, Tail};
      S.Found = true;
      return S;
    }
    // Key > H: either the key splits H's tail, or we recurse right.
    Payload *Tail = E.Shell->Val.get();
    if (Tail && Key <= Tail->Last) {
      ChunkSplit CS = splitChunk<Codec>(Tail, Key);
      E.Shell->Val = ChunkRef<K>(static_cast<Payload *>(CS.Left));
      S.Left = Raw{T::join(E.Left, E.Shell, nullptr), nullptr};
      S.Right = Raw{E.Right, static_cast<Payload *>(CS.Right)};
      S.Found = CS.Found;
      return S;
    }
    S = rawSplit(Raw{E.Right, nullptr}, Key);
    Node *LT = T::join(E.Left, E.Shell, S.Left.T);
    S.Left = Raw{LT, nullptr};
    return S;
  }

  /// Join two C-trees where every element of L precedes every element of R
  /// and no middle key exists (the C-tree Join2 the paper describes for
  /// Difference/Intersection). R's prefix is folded into L's last tail.
  static Raw rawJoin2(Raw L, Raw R) {
    if (!R.P)
      return Raw{T::join2(L.T, R.T), L.P};
    if (!L.T) {
      Payload *NP = unionChunks<Codec>(L.P, R.P);
      releaseChunk(L.P);
      releaseChunk(R.P);
      return Raw{R.T, NP};
    }
    auto [Rest, LastShell] = T::splitLast(L.T);
    Payload *NewTail = unionChunks<Codec>(LastShell->Val.get(), R.P);
    releaseChunk(R.P);
    LastShell->Val = ChunkRef<K>(NewTail);
    return Raw{T::join(Rest, LastShell, R.T), L.P};
  }

public:
  /// Decoded-batch size above which unionBC/diffBC discover group
  /// boundaries with parallel head probes and run the per-group chunk
  /// merges in parallel (see routeGroups). Mutable so differential tests
  /// can force the parallel path onto small batches.
  static inline size_t BatchParCutoff = 2048;

private:
  /// (head, merged tail) update buffer of the batch base cases;
  /// multiInsert's buildSorted copies the refs into tree nodes, and the
  /// buffer drops its own references afterwards.
  using HeadUpdates = PairScratch<K, ChunkRef<K>>;

  /// Shared group-routing core of unionBC/diffBC (Algorithm 2): route the
  /// sorted batch E[0..NE) to head territories of \p Tr and emit one
  /// (head, MergeFn(head node, span)) update per touched head, in
  /// ascending head order.
  ///
  /// Small batches run the sequential head-walk (one findLE per group,
  /// linear scan to the successor's key). Large batches probe every
  /// element's head with a parallelFor of findLE calls, mark group starts
  /// where the head changes, and merge the groups in parallel. The two
  /// paths produce identical updates — an element's group is determined
  /// by its owning head either way, and each group's span and merge call
  /// are the same — so the result stays byte-identical; which path ran is
  /// invisible outside scheduling.
  template <class MergeFn>
  static void routeGroups(const Node *Tr, const K *E, size_t NE,
                          HeadUpdates &Updates, const MergeFn &Merge) {
    if (NE < BatchParCutoff || !detail::parallelismEnabled()) {
      size_t I = 0;
      while (I < NE) {
        const Node *HN = T::findLE(Tr, E[I]);
        assert(HN && "element below the smallest head reached routing");
        K Head = HN->Key;
        // The group ends where the next head's territory begins.
        const Node *Succ = nextHead(Tr, Head);
        size_t J = I;
        while (J < NE && (!Succ || E[J] < Succ->Key))
          ++J;
        Updates.emplaceBack(Head, ChunkRef<K>(Merge(HN, E + I, J - I)));
        I = J;
      }
      return;
    }
    // Parallel path: per-element head probes (O(log h) each, fully
    // independent), then group starts where the owning head changes.
    CtxArray<const Node *> Heads(NE);
    const Node **HeadsP = Heads.data();
    parallelFor(0, NE, [&](size_t I) { HeadsP[I] = T::findLE(Tr, E[I]); });
    CtxArray<uint32_t> Starts(NE);
    uint32_t *StartsP = Starts.data();
    size_t Groups = filterIndexInto(
        NE, [](size_t I) { return uint32_t(I); },
        [&](size_t I) { return I == 0 || HeadsP[I] != HeadsP[I - 1]; },
        StartsP);
    Updates.setSize(Groups);
    parallelFor(0, Groups, [&](size_t G) {
      size_t Lo = StartsP[G];
      size_t Hi = G + 1 < Groups ? StartsP[G + 1] : NE;
      const Node *HN = HeadsP[Lo];
      assert(HN && "element below the smallest head reached routing");
      Updates.emplaceAt(G, HN->Key, ChunkRef<K>(Merge(HN, E + Lo, Hi - Lo)));
    });
  }

  /// Union of a bare chunk (owned \p P; non-head elements) into C-tree
  /// \p C (Algorithm 2, UnionBC).
  static Raw unionBC(Payload *P, Raw C) {
    if (!P)
      return C;
    if (!C.T) {
      Payload *NP = unionChunks<Codec>(C.P, P);
      releaseChunk(C.P);
      releaseChunk(P);
      return Raw{nullptr, NP};
    }
    K Smallest = T::first(C.T)->Key;
    ChunkSplit CS = splitChunk<Codec>(P, Smallest);
    assert(!CS.Found && "prefix chunks never contain heads");
    releaseChunk(P);
    auto *PL = static_cast<Payload *>(CS.Left);
    auto *PR = static_cast<Payload *>(CS.Right);
    Payload *NP = unionChunks<Codec>(C.P, PL);
    releaseChunk(C.P);
    releaseChunk(PL);
    if (!PR)
      return Raw{C.T, NP};
    // Route each remaining element to its head and merge tails. The batch
    // is the one buffer that must be materialized (group boundaries need
    // random access); it lives in per-thread scratch, and each tail merge
    // streams the old tail against its span straight into the new payload.
    CtxArray<K> E(PR->Count);
    size_t NE = decodeChunkTo<Codec>(PR, E.data());
    releaseChunk(PR);
    HeadUpdates Updates(NE);
    routeGroups(C.T, E.data(), NE, Updates,
                [](const Node *HN, const K *Span, size_t Len) {
                  return unionChunkSpan<Codec>(HN->Val.get(), Span, Len);
                });
    Node *NT = T::multiInsert(
        C.T, Updates.data(), Updates.size(),
        [](ChunkRef<K>, ChunkRef<K> New) { return New; });
    return Raw{NT, NP};
  }

  /// Smallest head strictly greater than \p H.
  static const Node *nextHead(const Node *Tr, K H) {
    const Node *Cand = nullptr;
    while (Tr) {
      if (H < Tr->Key) {
        Cand = Tr;
        Tr = Tr->Left;
      } else {
        Tr = Tr->Right;
      }
    }
    return Cand;
  }

  static Raw rawUnion(Raw A, Raw B) {
    if (A.empty())
      return B;
    if (B.empty())
      return A;
    if (!B.T)
      return unionBC(B.P, A);
    if (!A.T)
      return unionBC(A.P, B);
    typename T::Exposed E = T::expose(B.T);
    K H = E.Shell->Key;
    RawSplit S = rawSplit(A, H);
    Payload *V = E.Shell->Val.take();
    Raw L, R;
    bool Par = T::size(S.Left.T) + T::size(E.Left) +
                       T::size(S.Right.T) + T::size(E.Right) >=
                   T::SeqCutoff ||
               T::workOf(S.Left.T) + T::workOf(E.Left) +
                       T::workOf(S.Right.T) + T::workOf(E.Right) >=
                   T::WorkCutoff;
    auto DoL = [&] { L = rawUnion(S.Left, Raw{E.Left, B.P}); };
    auto DoR = [&] { R = rawUnion(S.Right, Raw{E.Right, V}); };
    if (Par)
      parallelDo(DoL, DoR);
    else {
      DoL();
      DoR();
    }
    // R's prefix holds exactly the merged elements between H and the next
    // head: H's new tail.
    E.Shell->Val = ChunkRef<K>(R.P);
    return Raw{T::join(L.T, E.Shell, R.T), L.P};
  }

  /// Subtract the elements of owned chunk \p Sub from \p A.
  static Raw diffBC(Raw A, Payload *Sub) {
    if (!Sub)
      return A;
    if (!A.T) {
      // Prefix-only: both sides stream, nothing is materialized.
      Payload *NP = chunkMinusChunk<Codec>(A.P, Sub);
      releaseChunk(A.P);
      releaseChunk(Sub);
      return Raw{nullptr, NP};
    }
    // Materialize the subtrahend in per-thread scratch for group routing;
    // each group subtraction streams over a span of it.
    CtxArray<K> S(Sub->Count);
    size_t NS = decodeChunkTo<Codec>(Sub, S.data());
    releaseChunk(Sub);
    K Smallest = T::first(A.T)->Key;
    size_t Cut = 0;
    while (Cut < NS && S[Cut] < Smallest)
      ++Cut;
    Payload *NP = chunkMinus<Codec>(A.P, S.data(), Cut);
    releaseChunk(A.P);
    HeadUpdates Updates(NS - Cut);
    routeGroups(A.T, S.data() + Cut, NS - Cut, Updates,
                [](const Node *HN, const K *Span, size_t Len) {
                  return chunkMinus<Codec>(HN->Val.get(), Span, Len);
                });
    Node *NT = T::multiInsert(
        A.T, Updates.data(), Updates.size(),
        [](ChunkRef<K>, ChunkRef<K> New) { return New; });
    return Raw{NT, NP};
  }

  static Raw rawDifference(Raw A, Raw B) {
    if (A.empty()) {
      releaseRaw(B);
      return Raw{};
    }
    if (B.empty())
      return A;
    if (!B.T)
      return diffBC(A, B.P);
    if (!A.T) {
      // Keep prefix elements of A absent from B: stream A's prefix
      // through a membership filter straight into the result payload.
      CTreeSet BView = fromRaw(B); // adopt for reads; released at exit
      Payload *NP = buildChunkStreaming<Codec, K>(
          chunkCount(A.P), [&](auto &&Sink) {
        for (typename Codec::template Cursor<K> Cu(A.P); !Cu.done();
             Cu.advance())
          if (!BView.contains(Cu.value()))
            Sink(Cu.value());
      });
      releaseChunk(A.P);
      return Raw{nullptr, NP};
    }
    typename T::Exposed E = T::expose(B.T);
    K H = E.Shell->Key;
    RawSplit S = rawSplit(A, H); // drops H from A when present
    Payload *V = E.Shell->Val.take();
    T::freeShell(E.Shell);
    Raw L, R;
    bool Par = T::size(S.Left.T) + T::size(E.Left) +
                       T::size(S.Right.T) + T::size(E.Right) >=
                   T::SeqCutoff ||
               T::workOf(S.Left.T) + T::workOf(E.Left) +
                       T::workOf(S.Right.T) + T::workOf(E.Right) >=
                   T::WorkCutoff;
    auto DoL = [&] { L = rawDifference(S.Left, Raw{E.Left, B.P}); };
    auto DoR = [&] { R = rawDifference(S.Right, Raw{E.Right, V}); };
    if (Par)
      parallelDo(DoL, DoR);
    else {
      DoL();
      DoR();
    }
    return rawJoin2(L, R);
  }

  static Raw rawIntersect(Raw A, Raw B) {
    if (A.empty() || B.empty()) {
      releaseRaw(A);
      releaseRaw(B);
      return Raw{};
    }
    if (!B.T || !A.T) {
      // One side is a bare chunk: the intersection consists of non-head
      // elements only, hence is prefix-only. Stream the chunk through a
      // membership filter.
      Raw ChunkSide = !B.T ? B : A;
      Raw TreeSide = !B.T ? A : B;
      CTreeSet View = fromRaw(TreeSide);
      Payload *NP = buildChunkStreaming<Codec, K>(
          chunkCount(ChunkSide.P), [&](auto &&Sink) {
        for (typename Codec::template Cursor<K> Cu(ChunkSide.P); !Cu.done();
             Cu.advance())
          if (View.contains(Cu.value()))
            Sink(Cu.value());
      });
      releaseChunk(ChunkSide.P);
      return Raw{nullptr, NP};
    }
    typename T::Exposed E = T::expose(B.T);
    K H = E.Shell->Key;
    RawSplit S = rawSplit(A, H);
    Payload *V = E.Shell->Val.take();
    Raw L, R;
    bool Par = T::size(S.Left.T) + T::size(E.Left) +
                       T::size(S.Right.T) + T::size(E.Right) >=
                   T::SeqCutoff ||
               T::workOf(S.Left.T) + T::workOf(E.Left) +
                       T::workOf(S.Right.T) + T::workOf(E.Right) >=
                   T::WorkCutoff;
    auto DoL = [&] { L = rawIntersect(S.Left, Raw{E.Left, B.P}); };
    auto DoR = [&] { R = rawIntersect(S.Right, Raw{E.Right, V}); };
    if (Par)
      parallelDo(DoL, DoR);
    else {
      DoL();
      DoR();
    }
    if (S.Found) {
      // H survives; R's prefix is its new tail.
      E.Shell->Val = ChunkRef<K>(R.P);
      return Raw{T::join(L.T, E.Shell, R.T), L.P};
    }
    T::freeShell(E.Shell);
    return rawJoin2(L, R);
  }

  Node *Root = nullptr;
  Payload *Prefix = nullptr;
};

} // namespace aspen

#endif // ASPEN_CTREE_CTREE_H
