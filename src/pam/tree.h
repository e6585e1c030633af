//===- pam/tree.h - Purely-functional weight-balanced trees ---------------===//
//
// Join-based, reference-counted, purely-functional weight-balanced search
// trees in the style of PAM [Sun, Ferizovic, Blelloch PPoPP'18] and "Just
// Join for Parallel Ordered Sets" [Blelloch, Ferizovic, Sun SPAA'16],
// which the paper uses as its underlying tree library (Section 6).
//
// Persistence model: every node carries an atomic reference count.
// Snapshots are O(1): retain the root. Mutating operations use
// path-copying, with the standard optimization that uniquely-referenced
// nodes (refcount 1) are reused in place.
//
// Ownership protocol (important!):
//  * Functions taking `Node *` consume one reference per input root and
//    return roots owned by the caller.
//  * Read-only functions take `const Node *` and leave counts unchanged.
//
// The Entry template parameter describes the key/value/augmentation:
//
//   struct Entry {
//     using KeyT = ...;   // totally ordered by less()
//     using ValT = ...;   // cheap to copy (refcount bump at most)
//     using AugT = ...;   // associative augmentation (use Empty for none)
//     static bool less(const KeyT &A, const KeyT &B);
//     static AugT augOfEntry(const KeyT &K, const ValT &V);
//     static AugT augIdentity();
//     static AugT augCombine(const AugT &A, const AugT &B);
//   };
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_PAM_TREE_H
#define ASPEN_PAM_TREE_H

#include "memory/pool_allocator.h"
#include "parallel/scheduler.h"
#include "util/types.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>

namespace aspen {

/// Tree node; allocated from a typed pool.
template <class Entry> struct PamNode {
  using KeyT = typename Entry::KeyT;
  using ValT = typename Entry::ValT;
  using AugT = typename Entry::AugT;

  PamNode *Left;
  PamNode *Right;
  std::atomic<uint32_t> Ref;
  uint32_t Size;
  [[no_unique_address]] AugT Aug;
  KeyT Key;
  [[no_unique_address]] ValT Val;
};

/// Static operations over PamNode<Entry>. See the ownership protocol in the
/// file header.
template <class Entry> struct Tree {
  using Node = PamNode<Entry>;
  using KeyT = typename Entry::KeyT;
  using ValT = typename Entry::ValT;
  using AugT = typename Entry::AugT;

  /// Below this subtree size, recursive operations run sequentially.
  static constexpr uint32_t SeqCutoff = 128;

  /// Augmentation-weighted work threshold for forking. SeqCutoff counts
  /// nodes, which under-forks trees whose per-node payloads are heavy: a
  /// vertex tree of 16 nodes carrying a million edges never reaches 128
  /// nodes, yet its merge does a million elements of chunk work. workOf()
  /// folds an integral augmentation (edge counts in the vertex tree, tail
  /// counts in the C-tree heads tree) into the fork decision so such
  /// subtrees still split across cores. The threshold is coarser than
  /// SeqCutoff because per-element chunk work is much cheaper than
  /// per-node tree work.
  static constexpr uint64_t WorkCutoff = 4096;

  /// Fork-decision work estimate: node count, plus the aggregated payload
  /// size when the augmentation measures one (integral AugT).
  static uint64_t workOf(const Node *T) {
    if constexpr (std::is_integral_v<AugT>)
      return T ? uint64_t(T->Size) + uint64_t(T->Aug) : 0;
    else
      return T ? uint64_t(T->Size) : 0;
  }

  //===--------------------------------------------------------------------===
  // Node lifecycle.
  //===--------------------------------------------------------------------===

  static uint32_t size(const Node *T) { return T ? T->Size : 0; }

  /// Weight for the balance criterion (size + 1).
  static uint64_t weight(const Node *T) { return uint64_t(size(T)) + 1; }

  static AugT aug(const Node *T) {
    return T ? T->Aug : Entry::augIdentity();
  }

  /// Recompute Size/Aug of \p T from its children and entry.
  static void update(Node *T) {
    T->Size = 1 + size(T->Left) + size(T->Right);
    AugT A = Entry::augCombine(aug(T->Left),
                               Entry::augOfEntry(T->Key, T->Val));
    T->Aug = Entry::augCombine(A, aug(T->Right));
  }

  /// Allocate a node owning \p L and \p R.
  static Node *make(const KeyT &K, ValT V, Node *L, Node *R) {
    void *Mem = NodePool<Node>::allocRaw();
    Node *T = new (Mem) Node{L, R, {}, 0, Entry::augIdentity(), K,
                             std::move(V)};
    T->Ref.store(1, std::memory_order_relaxed);
    update(T);
    return T;
  }

  static Node *singleton(const KeyT &K, ValT V) {
    return make(K, std::move(V), nullptr, nullptr);
  }

  static void retain(Node *T) {
    if (T)
      T->Ref.fetch_add(1, std::memory_order_relaxed);
  }

  /// Destroy the node shell only (children ownership must have been taken).
  static void freeShell(Node *T) {
    T->~Node();
    NodePool<Node>::freeRaw(T);
  }

  /// Drop one reference on \p T, freeing recursively (in parallel for large
  /// subtrees) when the count reaches zero.
  static void release(Node *T) {
    if (!T)
      return;
    if (T->Ref.fetch_sub(1, std::memory_order_acq_rel) != 1)
      return;
    Node *L = T->Left, *R = T->Right;
    uint32_t Sz = T->Size;
    freeShell(T);
    if (Sz >= SeqCutoff) {
      parallelDo([&] { release(L); }, [&] { release(R); });
    } else {
      release(L);
      release(R);
    }
  }

  /// Claim ownership of T's children and a writable shell for T itself.
  /// Consumes \p T. The returned Shell has refcount 1 and dangling child
  /// pointers; it must be re-linked via a subsequent make-like operation
  /// (update() is the caller's responsibility, usually via join).
  struct Exposed {
    Node *Left;
    Node *Right;
    Node *Shell;
  };

  static Exposed expose(Node *T) {
    assert(T && "expose of empty tree");
    if (T->Ref.load(std::memory_order_acquire) == 1) {
      // Sole owner: reuse the shell directly.
      return Exposed{T->Left, T->Right, T};
    }
    // Shared: claim fresh references on the children, copy the shell, and
    // drop our reference on T. If we race with the other owners releasing,
    // release() will drop the child references T held, which our claimed
    // references keep alive.
    retain(T->Left);
    retain(T->Right);
    Node *Shell = make(T->Key, T->Val, nullptr, nullptr);
    Exposed E{T->Left, T->Right, Shell};
    release(T);
    return E;
  }

  /// Link \p Shell over \p L and \p R without rebalancing (caller asserts
  /// the result is balanced).
  static Node *linkShell(Node *L, Node *Shell, Node *R) {
    Shell->Left = L;
    Shell->Right = R;
    update(Shell);
    return Shell;
  }

  //===--------------------------------------------------------------------===
  // Weight-balanced join (Just Join, Figure for WB trees).
  //===--------------------------------------------------------------------===

  /// Balance predicate: may weights \p A and \p B be siblings?
  /// alpha = 0.29 expressed as an exact rational test.
  static bool likeWeights(uint64_t A, uint64_t B) {
    uint64_t S = A + B;
    uint64_t M = A < B ? A : B;
    return 100 * M >= 29 * S;
  }

  static bool heavier(const Node *A, const Node *B) {
    return weight(A) > weight(B);
  }

  /// Left rotation of the tree rooted at shell \p T (fields already linked,
  /// T->Right non-null and writable ownership held).
  static Node *rotateLeft(Node *T) {
    Exposed R = expose(T->Right);
    T->Right = R.Left;
    update(T);
    return linkShell(T, R.Shell, R.Right);
  }

  static Node *rotateRight(Node *T) {
    Exposed L = expose(T->Left);
    T->Left = L.Right;
    update(T);
    return linkShell(L.Left, L.Shell, T);
  }

  static Node *joinRightHeavy(Node *L, Node *Shell, Node *R) {
    if (likeWeights(weight(L), weight(R)))
      return linkShell(L, Shell, R);
    Exposed E = expose(L);
    Node *Joined = joinRightHeavy(E.Right, Shell, R);
    // Tentatively link and rebalance.
    Node *T = linkShell(E.Left, E.Shell, Joined);
    if (likeWeights(weight(T->Left), weight(T->Right)))
      return T;
    // Right child too heavy: single or double left rotation depending on
    // the inner grandchild's weight (Just Join WB case analysis).
    Node *RC = T->Right;
    uint64_t WL = weight(T->Left);
    uint64_t WRL = weight(RC->Left), WRR = weight(RC->Right);
    if (likeWeights(WL, WRL) && likeWeights(WL + WRL, WRR))
      return rotateLeft(T);
    T->Right = rotateRight(T->Right);
    update(T);
    return rotateLeft(T);
  }

  static Node *joinLeftHeavy(Node *L, Node *Shell, Node *R) {
    if (likeWeights(weight(L), weight(R)))
      return linkShell(L, Shell, R);
    Exposed E = expose(R);
    Node *Joined = joinLeftHeavy(L, Shell, E.Left);
    Node *T = linkShell(Joined, E.Shell, E.Right);
    if (likeWeights(weight(T->Left), weight(T->Right)))
      return T;
    Node *LC = T->Left;
    uint64_t WR = weight(T->Right);
    uint64_t WLR = weight(LC->Right), WLL = weight(LC->Left);
    if (likeWeights(WR, WLR) && likeWeights(WR + WLR, WLL))
      return rotateRight(T);
    T->Left = rotateLeft(T->Left);
    update(T);
    return rotateRight(T);
  }

  /// Join trees \p L and \p R (all keys in L < Shell->Key < all keys in R)
  /// around the single-entry shell \p Shell. Consumes all three.
  static Node *join(Node *L, Node *Shell, Node *R) {
    if (heavier(L, R))
      return joinRightHeavy(L, Shell, R);
    if (heavier(R, L))
      return joinLeftHeavy(L, Shell, R);
    return linkShell(L, Shell, R);
  }

  /// Remove and return the rightmost entry of \p T as a shell.
  static std::pair<Node *, Node *> splitLast(Node *T) {
    Exposed E = expose(T);
    if (!E.Right)
      return {E.Left, E.Shell};
    auto [Rest, Last] = splitLast(E.Right);
    return {join(E.Left, E.Shell, Rest), Last};
  }

  /// Join without a middle entry.
  static Node *join2(Node *L, Node *R) {
    if (!L)
      return R;
    if (!R)
      return L;
    auto [Rest, Last] = splitLast(L);
    return join(Rest, Last, R);
  }

  //===--------------------------------------------------------------------===
  // Split / insert / remove / find.
  //===--------------------------------------------------------------------===

  struct SplitResult {
    Node *Left = nullptr;
    Node *Right = nullptr;
    bool Found = false;
    ValT Val{};
  };

  /// Split \p T by \p K into keys < K and keys > K; reports whether K was
  /// present (and its value). Consumes \p T.
  static SplitResult split(Node *T, const KeyT &K) {
    if (!T)
      return SplitResult{};
    Exposed E = expose(T);
    if (Entry::less(K, E.Shell->Key)) {
      SplitResult S = split(E.Left, K);
      S.Right = join(S.Right, E.Shell, E.Right);
      return S;
    }
    if (Entry::less(E.Shell->Key, K)) {
      SplitResult S = split(E.Right, K);
      S.Left = join(E.Left, E.Shell, S.Left);
      return S;
    }
    SplitResult S;
    S.Left = E.Left;
    S.Right = E.Right;
    S.Found = true;
    S.Val = std::move(E.Shell->Val);
    freeShell(E.Shell);
    return S;
  }

  /// Insert (K, V); \p Comb combines (old, new) when K is present.
  template <class Comb>
  static Node *insert(Node *T, const KeyT &K, ValT V, const Comb &Fn) {
    SplitResult S = split(T, K);
    ValT NewV = S.Found ? Fn(std::move(S.Val), std::move(V)) : std::move(V);
    return join(S.Left, singleton(K, std::move(NewV)), S.Right);
  }

  static Node *insert(Node *T, const KeyT &K, ValT V) {
    return insert(T, K, std::move(V),
                  [](ValT, ValT New) { return New; });
  }

  /// Remove K if present.
  static Node *remove(Node *T, const KeyT &K) {
    SplitResult S = split(T, K);
    return join2(S.Left, S.Right);
  }

  /// Find the node with key \p K (read-only; no ownership change).
  static const Node *findNode(const Node *T, const KeyT &K) {
    while (T) {
      if (Entry::less(K, T->Key))
        T = T->Left;
      else if (Entry::less(T->Key, K))
        T = T->Right;
      else
        return T;
    }
    return nullptr;
  }

  /// Largest entry with key <= K (the paper's Find semantics), or null.
  static const Node *findLE(const Node *T, const KeyT &K) {
    const Node *Cand = nullptr;
    while (T) {
      if (Entry::less(K, T->Key)) {
        T = T->Left;
      } else {
        Cand = T;
        T = T->Right;
      }
    }
    return Cand;
  }

  static const Node *first(const Node *T) {
    if (!T)
      return nullptr;
    while (T->Left)
      T = T->Left;
    return T;
  }

  static const Node *last(const Node *T) {
    if (!T)
      return nullptr;
    while (T->Right)
      T = T->Right;
    return T;
  }

  //===--------------------------------------------------------------------===
  // Bulk operations.
  //===--------------------------------------------------------------------===

  /// Perfectly-balanced build from sorted, duplicate-free entries.
  /// O(n) work, O(log n) depth.
  static Node *buildSorted(const std::pair<KeyT, ValT> *Entries, size_t N) {
    if (N == 0)
      return nullptr;
    size_t Mid = N / 2;
    Node *L = nullptr, *R = nullptr;
    auto BuildL = [&] { L = buildSorted(Entries, Mid); };
    auto BuildR = [&] { R = buildSorted(Entries + Mid + 1, N - Mid - 1); };
    if (N >= SeqCutoff)
      parallelDo(BuildL, BuildR);
    else {
      BuildL();
      BuildR();
    }
    return linkShell(L, singleton(Entries[Mid].first, Entries[Mid].second),
                     R);
  }

  /// Union of \p A and \p B; on duplicate keys the value is
  /// `Fn(valueInA, valueInB)`. Consumes both.
  template <class Comb>
  static Node *unionWith(Node *A, Node *B, const Comb &Fn) {
    if (!A)
      return B;
    if (!B)
      return A;
    Exposed E = expose(B);
    SplitResult S = split(A, E.Shell->Key);
    if (S.Found)
      E.Shell->Val = Fn(std::move(S.Val), std::move(E.Shell->Val));
    Node *L = nullptr, *R = nullptr;
    bool Par = (size(S.Left) + size(E.Left) >= SeqCutoff ||
                workOf(S.Left) + workOf(E.Left) >= WorkCutoff) &&
               size(S.Right) + size(E.Right) >= 1;
    auto DoL = [&] { L = unionWith(S.Left, E.Left, Fn); };
    auto DoR = [&] { R = unionWith(S.Right, E.Right, Fn); };
    if (Par)
      parallelDo(DoL, DoR);
    else {
      DoL();
      DoR();
    }
    return join(L, E.Shell, R);
  }

  /// Intersection by key; values taken via `Fn(valueInA, valueInB)`.
  template <class Comb>
  static Node *intersectWith(Node *A, Node *B, const Comb &Fn) {
    if (!A) {
      release(B);
      return nullptr;
    }
    if (!B) {
      release(A);
      return nullptr;
    }
    Exposed E = expose(B);
    SplitResult S = split(A, E.Shell->Key);
    Node *L = nullptr, *R = nullptr;
    bool Par = size(S.Left) + size(E.Left) >= SeqCutoff ||
               workOf(S.Left) + workOf(E.Left) >= WorkCutoff;
    auto DoL = [&] { L = intersectWith(S.Left, E.Left, Fn); };
    auto DoR = [&] { R = intersectWith(S.Right, E.Right, Fn); };
    if (Par)
      parallelDo(DoL, DoR);
    else {
      DoL();
      DoR();
    }
    if (S.Found) {
      E.Shell->Val = Fn(std::move(S.Val), std::move(E.Shell->Val));
      return join(L, E.Shell, R);
    }
    freeShell(E.Shell);
    return join2(L, R);
  }

  /// Keys of \p A not present in \p B (A \ B). Consumes both.
  static Node *difference(Node *A, Node *B) {
    if (!A) {
      release(B);
      return nullptr;
    }
    if (!B)
      return A;
    Exposed E = expose(B);
    SplitResult S = split(A, E.Shell->Key);
    freeShell(E.Shell);
    Node *L = nullptr, *R = nullptr;
    bool Par = size(S.Left) + size(E.Left) >= SeqCutoff ||
               workOf(S.Left) + workOf(E.Left) >= WorkCutoff;
    auto DoL = [&] { L = difference(S.Left, E.Left); };
    auto DoR = [&] { R = difference(S.Right, E.Right); };
    if (Par)
      parallelDo(DoL, DoR);
    else {
      DoL();
      DoR();
    }
    return join2(L, R);
  }

  /// Multi-update by path copying. For each pair of the sorted,
  /// duplicate-free \p Entries whose key \p T holds, the value becomes
  /// `Fn(oldValue, newValue)` and `OnSet(I, Node)` sees the node that now
  /// holds entry I; `OnMissing(I)` is called for each entry whose key T
  /// lacks, and T is left without it (a delete batch must not create
  /// keys). Each node partitions the batch by binary search, so only the
  /// union of the batch's search paths is visited, each node once, and
  /// copied once, built with its new value. The shape does not change, so
  /// nothing rebalances: K keys cost O(K log(n/K)) node copies, where
  /// multiInsert's split/join also rebuilds the joins. Forks as unionWith
  /// does. Consumes \p T.
  template <class Comb, class Set, class Miss>
  static Node *multiUpdate(Node *T, const std::pair<KeyT, ValT> *Entries,
                           size_t N, const Comb &Fn, const Set &OnSet,
                           const Miss &OnMissing) {
    return multiUpdateRec(T, Entries, 0, N, Fn, OnSet, OnMissing);
  }

  /// MultiInsert: union with a tree built over the sorted, duplicate-free
  /// batch (the paper builds a tree over the batch and calls Union). The
  /// graph's batch merges run multiUpdate first and send only the keys the
  /// tree lacks through here.
  template <class Comb>
  static Node *multiInsert(Node *T, const std::pair<KeyT, ValT> *Entries,
                           size_t N, const Comb &Fn) {
    Node *B = buildSorted(Entries, N);
    return unionWith(T, B, Fn);
  }

  /// Keep only entries satisfying \p Pred(key, value). Consumes \p T.
  template <class Pred> static Node *filter(Node *T, const Pred &Fn) {
    if (!T)
      return nullptr;
    Exposed E = expose(T);
    Node *L = nullptr, *R = nullptr;
    bool Par = size(E.Left) >= SeqCutoff || workOf(E.Left) >= WorkCutoff;
    auto DoL = [&] { L = filter(E.Left, Fn); };
    auto DoR = [&] { R = filter(E.Right, Fn); };
    if (Par)
      parallelDo(DoL, DoR);
    else {
      DoL();
      DoR();
    }
    if (Fn(E.Shell->Key, E.Shell->Val))
      return join(L, E.Shell, R);
    freeShell(E.Shell);
    return join2(L, R);
  }

  //===--------------------------------------------------------------------===
  // Traversal.
  //===--------------------------------------------------------------------===

  /// Explicit-stack in-order cursor (done / node / advance): the streaming
  /// counterpart of forEachSeq, composable with chunk cursors so callers
  /// can merge tree contents against other streams without materializing
  /// either side. Trivially copyable; holds no references (the borrowed
  /// tree must stay alive).
  class Cursor {
  public:
    Cursor() = default;
    explicit Cursor(const Node *Root) { descend(Root); }

    bool done() const { return Top == 0; }
    const Node *node() const {
      assert(Top > 0 && "node() on exhausted cursor");
      return Stack[Top - 1];
    }
    void advance() {
      assert(Top > 0 && "advance() on exhausted cursor");
      const Node *N = Stack[--Top];
      descend(N->Right);
    }

  private:
    // Weight balance with alpha = 0.29 bounds the depth by
    // log(n) / log(1/(1-alpha)) < 2.03 log2(n); Size is 32-bit, so 96
    // levels leave ample slack.
    static constexpr int MaxDepth = 96;

    void push(const Node *N) {
      assert(Top < MaxDepth && "tree deeper than the balance bound");
      Stack[Top++] = N;
    }
    void descend(const Node *N) {
      while (N) {
        push(N);
        N = N->Left;
      }
    }

    const Node *Stack[MaxDepth];
    int Top = 0;
  };

  /// Sequential in-order traversal applying Fn(key, value).
  template <class F> static void forEachSeq(const Node *T, const F &Fn) {
    if (!T)
      return;
    forEachSeq(T->Left, Fn);
    Fn(T->Key, T->Val);
    forEachSeq(T->Right, Fn);
  }

  /// Parallel unordered traversal applying Fn(key, value).
  template <class F> static void forEachPar(const Node *T, const F &Fn) {
    if (!T)
      return;
    if (T->Size < SeqCutoff) {
      forEachSeq(T, Fn);
      return;
    }
    parallelDo([&] { forEachPar(T->Left, Fn); },
               [&] {
                 Fn(T->Key, T->Val);
                 forEachPar(T->Right, Fn);
               });
  }

  /// Parallel traversal with the in-order index of each entry:
  /// Fn(index, key, value).
  template <class F>
  static void forEachIndexed(const Node *T, size_t Offset, const F &Fn) {
    if (!T)
      return;
    size_t LS = size(T->Left);
    if (T->Size < SeqCutoff) {
      forEachIndexedSeq(T, Offset, Fn);
      return;
    }
    parallelDo([&] { forEachIndexed(T->Left, Offset, Fn); },
               [&] {
                 Fn(Offset + LS, T->Key, T->Val);
                 forEachIndexed(T->Right, Offset + LS + 1, Fn);
               });
  }

  template <class F>
  static void forEachIndexedSeq(const Node *T, size_t Offset, const F &Fn) {
    if (!T)
      return;
    size_t LS = size(T->Left);
    forEachIndexedSeq(T->Left, Offset, Fn);
    Fn(Offset + LS, T->Key, T->Val);
    forEachIndexedSeq(T->Right, Offset + LS + 1, Fn);
  }

  /// Sequential in-order traversal with early exit: stops when Fn returns
  /// false. Returns false iff stopped early.
  template <class F> static bool iterCond(const Node *T, const F &Fn) {
    if (!T)
      return true;
    if (!iterCond(T->Left, Fn))
      return false;
    if (!Fn(T->Key, T->Val))
      return false;
    return iterCond(T->Right, Fn);
  }

  //===--------------------------------------------------------------------===
  // Validation (test support).
  //===--------------------------------------------------------------------===

  /// Check structural invariants: BST order, size fields, weight balance,
  /// and positive refcounts. Returns true when all hold.
  static bool validate(const Node *T) {
    bool Ok = true;
    validateRec(T, nullptr, nullptr, Ok);
    return Ok;
  }

private:
  /// multiUpdate over the entries [Lo, Hi) and the subtree \p T.
  template <class Comb, class Set, class Miss>
  static Node *multiUpdateRec(Node *T, const std::pair<KeyT, ValT> *Entries,
                              size_t Lo, size_t Hi, const Comb &Fn,
                              const Set &OnSet, const Miss &OnMissing) {
    if (Lo == Hi)
      return T;
    if (!T) {
      for (size_t I = Lo; I < Hi; ++I)
        OnMissing(I);
      return nullptr;
    }
    size_t Mid = size_t(
        std::lower_bound(Entries + Lo, Entries + Hi, T->Key,
                         [](const std::pair<KeyT, ValT> &E, const KeyT &K) {
                           return Entry::less(E.first, K);
                         }) -
        Entries);
    bool Hit = Mid < Hi && !Entry::less(T->Key, Entries[Mid].first);
    size_t RLo = Mid + (Hit ? 1 : 0);
    // T stays intact for its other owners (the graph's callers always
    // pin the old root): the copy takes its own references on the
    // children, and the recursion below copies their paths too.
    Node *L = T->Left, *R = T->Right;
    retain(L);
    retain(R);
    bool Par = (size(L) >= SeqCutoff || workOf(L) >= WorkCutoff) &&
               Mid > Lo && RLo < Hi;
    auto DoL = [&] {
      L = multiUpdateRec(L, Entries, Lo, Mid, Fn, OnSet, OnMissing);
    };
    auto DoR = [&] {
      R = multiUpdateRec(R, Entries, RLo, Hi, Fn, OnSet, OnMissing);
    };
    if (Par)
      parallelDo(DoL, DoR);
    else {
      DoL();
      DoR();
    }
    Node *Out = make(
        T->Key, Hit ? Fn(ValT(T->Val), Entries[Mid].second) : T->Val, L, R);
    release(T);
    if (Hit)
      OnSet(Mid, static_cast<const Node *>(Out));
    return Out;
  }

  static void validateRec(const Node *T, const KeyT *Lo, const KeyT *Hi,
                          bool &Ok) {
    if (!T || !Ok)
      return;
    if (T->Ref.load(std::memory_order_relaxed) == 0)
      Ok = false;
    if (Lo && !Entry::less(*Lo, T->Key))
      Ok = false;
    if (Hi && !Entry::less(T->Key, *Hi))
      Ok = false;
    if (T->Size != 1 + size(T->Left) + size(T->Right))
      Ok = false;
    if (!likeWeights(weight(T->Left), weight(T->Right)))
      Ok = false;
    validateRec(T->Left, Lo, &T->Key, Ok);
    validateRec(T->Right, &T->Key, Hi, Ok);
  }
};

} // namespace aspen

#endif // ASPEN_PAM_TREE_H
