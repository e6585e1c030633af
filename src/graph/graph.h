//===- graph/graph.h - Aspen graph snapshots -------------------------------===//
//
// The tree-of-trees graph representation of Section 5: a purely-functional
// vertex-tree mapping vertex ids to edge sets (C-trees by default), with
// the vertex tree augmented by edge counts so numEdges() is O(1). A
// GraphSnapshotT value is an immutable snapshot; "updates" return new
// snapshots sharing structure with the old one.
//
// Batch updates follow Section 5: sort the batch and build an edge set per
// distinct source. The paper then builds a tree over the batch and calls
// Union; here the sources the vertex tree holds are combined (edge-set
// Union for insertions, Difference for deletions) by one path-copying
// multi-update that copies only the batch's search paths, and only new
// sources go through MultiInsert (DESIGN.md Section 5). O(k log n) work,
// polylog depth.
//
// Flat snapshots (Section 5.1) give edgeMap O(1) vertex access like CSR.
// They are stored as a two-level persistent page table: refcounted pages
// of (edge-set view, degree) slots under refcounted directories. A full
// build writes every slot once, and FlatSnapshotT::refresh derives the
// flat view of a successor snapshot by cloning only the touched pages and
// the directories above them, sharing everything else with the
// predecessor (copy-on-write). The sharded store keeps a hot-epoch flat
// snapshot continuously maintained this way (acquireFlat()).
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_GRAPH_GRAPH_H
#define ASPEN_GRAPH_GRAPH_H

#include "ctree/ctree.h"
#include "graph/hybrid_set.h"
#include "graph/uncompressed_set.h"
#include "memory/pool_allocator.h"
#include "parallel/primitives.h"
#include "util/types.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

namespace aspen {

/// Group a batch by source — the one grouping routine of every batch
/// path (the snapshot span updates and the sharded store's per-shard
/// prepare): sort the edges, drop duplicates, and build one (source,
/// sorted edge set) entry per distinct source under \p P into \p Pairs,
/// in ascending source order. O(K log K) in the batch, independent of
/// the vertex universe. The sort runs on packed 64-bit keys (source in
/// the high half), so each comparison is one integer compare. Grouping
/// scratch lives in borrowed worker-cache blocks released before return,
/// so the caller's merge never contends with input-sized blocks.
/// Requires \p K > 0.
template <class EdgeSet>
void groupSpan(const EdgePair *Edges, size_t K,
               typename EdgeSet::BuildParams P,
               std::optional<PairScratch<VertexId, EdgeSet>> &Pairs) {
  static_assert(sizeof(VertexId) == 4, "a sort key packs two vertex ids");
  assert(K > 0 && "groupSpan of an empty batch");
  CtxArray<uint64_t> Keys(K);
  uint64_t *KeysP = Keys.data();
  parallelFor(0, K, [&](size_t I) {
    KeysP[I] = uint64_t(Edges[I].first) << 32 | Edges[I].second;
  });
  parallelSort(KeysP, K);
  K = size_t(std::unique(KeysP, KeysP + K) - KeysP);
  CtxArray<uint32_t> Starts(K);
  uint32_t *StartsP = Starts.data();
  size_t Groups = filterIndexInto(
      K, [&](size_t I) { return uint32_t(I); },
      [&](size_t I) {
        return I == 0 || (KeysP[I] >> 32) != (KeysP[I - 1] >> 32);
      },
      StartsP);
  CtxArray<VertexId> Dst(K);
  VertexId *DstP = Dst.data();
  parallelFor(0, K, [&](size_t I) { DstP[I] = VertexId(KeysP[I]); });
  Pairs.emplace(Groups);
  Pairs->setSize(Groups);
  parallelFor(0, Groups, [&](size_t G) {
    size_t Lo = StartsP[G];
    size_t Hi = (G + 1 < Groups) ? StartsP[G + 1] : K;
    Pairs->emplaceAt(G, VertexId(KeysP[Lo] >> 32),
                     EdgeSet::buildSorted(DstP + Lo, Hi - Lo, P));
  });
}

/// Partition \p K edges by owning shard (source & (\p S - 1), \p S a
/// power of two) into \p Parts, stable within a shard, with
/// \p ShardLo[S + 1] the per-shard slice bounds.
inline void splitByShard(const EdgePair *Edges, size_t K, size_t S,
                         EdgePair *Parts, size_t *ShardLo) {
  VertexId Mask = VertexId(S - 1);
  size_t At = 0;
  for (size_t Sh = 0; Sh < S; ++Sh) {
    ShardLo[Sh] = At;
    At += filterIndexInto(
        K, [&](size_t I) { return Edges[I]; },
        [&](size_t I) { return size_t(Edges[I].first & Mask) == Sh; },
        Parts + At);
  }
  ShardLo[S] = At;
  assert(At == K && "shard split must cover the batch");
}

/// One vertex's flat-snapshot slot: its key, degree and borrowed
/// edge-set view. A batch merge records one for every vertex it sets
/// (GraphSnapshotT::insertGrouped / deleteGrouped), and
/// FlatSnapshotT::refresh writes them into the pages it clones.
///
/// Lifetime: the view points only at refcounted edge-set internals that
/// every copy of the edge set shares (the C-tree root and prefix chunk),
/// or holds inline edges by value. A slot recorded
/// when an epoch was built is therefore valid in every later epoch that
/// did not touch its vertex, for as long as such an epoch is alive; a
/// flat keeps its slots alive through its owner snapshot.
template <class EdgeSet> struct VertexSlot {
  VertexId Key = 0;
  uint32_t Degree = 0;
  typename EdgeSet::View Edges{};
};

/// An immutable graph snapshot over edge sets of type \p EdgeSet
/// (CTreeSet<VertexId, Codec> or UncompressedSet<VertexId>).
template <class EdgeSet> class GraphSnapshotT {
public:
  /// Vertex-tree entry: vertex id -> edge set, augmented with edge counts.
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
  using Slot = VertexSlot<EdgeSet>;

  /// Edge-set construction parameters of this snapshot's lineage. Every
  /// edge set built on behalf of this snapshot (initial build, batch
  /// spans, grouped merges) uses the same params, which functional
  /// updates inherit — sets that the set algebra combines are therefore
  /// always structurally compatible (e.g. same C-tree chunk mask).
  using BuildParams = typename EdgeSet::BuildParams;

  GraphSnapshotT() = default;
  /// Empty snapshot whose future updates build edge sets under \p P.
  explicit GraphSnapshotT(BuildParams P) : Params(P) {}
  /// Adopts \p Root.
  explicit GraphSnapshotT(Node *Root, BuildParams P = {})
      : Root(Root), Params(P) {}

  GraphSnapshotT(const GraphSnapshotT &O) : Root(O.Root), Params(O.Params) {
    VT::retain(Root);
  }
  GraphSnapshotT(GraphSnapshotT &&O) noexcept
      : Root(O.Root), Params(O.Params) {
    O.Root = nullptr;
  }
  GraphSnapshotT &operator=(const GraphSnapshotT &O) {
    if (this != &O) {
      VT::retain(O.Root);
      VT::release(Root);
      Root = O.Root;
      Params = O.Params;
    }
    return *this;
  }
  GraphSnapshotT &operator=(GraphSnapshotT &&O) noexcept {
    if (this != &O) {
      VT::release(Root);
      Root = O.Root;
      Params = O.Params;
      O.Root = nullptr;
    }
    return *this;
  }
  ~GraphSnapshotT() { VT::release(Root); }

  BuildParams buildParams() const { return Params; }

  //===--------------------------------------------------------------------===
  // Construction.
  //===--------------------------------------------------------------------===

  /// BuildGraph (Section 10.4): a graph over vertices [0, N) containing
  /// the given directed edges. Vertices with no edges are materialized
  /// with empty edge sets. The one-shard case of buildShards.
  static GraphSnapshotT fromEdges(VertexId N, std::vector<EdgePair> Edges,
                                  BuildParams P = {}) {
    GraphSnapshotT G;
    buildShards(Edges.data(), Edges.size(), 0, N, P, &G);
    return G;
  }

  /// BuildGraph over S = 2^\p LogShards hash shards, the one build path
  /// of fromEdges and the sharded store: \p Out[Sh] receives the edges
  /// whose source is owned by shard Sh (source & (S - 1) == Sh), plus
  /// every owned vertex Sh, Sh + S, ... < \p N with an empty edge set
  /// when it has no edges. Each shard's edges are grouped by groupSpan,
  /// merged with its owned ids, and built into one vertex tree. Sources
  /// at or above N are materialized too.
  static void buildShards(const EdgePair *Edges, size_t K, size_t LogShards,
                          VertexId N, BuildParams P, GraphSnapshotT *Out) {
    using PairT = std::pair<VertexId, EdgeSet>;
    size_t S = size_t(1) << LogShards;
    // Heap, not worker scratch: a one-off input-sized block would stay
    // cached in this thread's scratch for the life of the thread.
    std::vector<EdgePair> Parts(K);
    CtxArray<size_t> ShardLo(S + 1);
    EdgePair *PartsP = Parts.data();
    size_t *ShardLoP = ShardLo.data();
    splitByShard(Edges, K, S, PartsP, ShardLoP);
    parallelFor(0, S, [&](size_t Sh) {
      std::optional<PairScratch<VertexId, EdgeSet>> Groups;
      size_t Lo = ShardLoP[Sh], Hi = ShardLoP[Sh + 1];
      if (Hi > Lo)
        groupSpan<EdgeSet>(PartsP + Lo, Hi - Lo, P, Groups);
      const PairT *G = Groups ? Groups->data() : nullptr;
      size_t NG = Groups ? Groups->size() : 0;
      // Owned id Sh + J * S sits at slot J; the groups ascend, so the
      // sources at or above N are a suffix and follow every owned id.
      size_t Owned = N > Sh ? (size_t(N) - Sh + S - 1) >> LogShards : 0;
      size_t InRange = size_t(
          std::partition_point(G, G + NG,
                               [&](const PairT &E) { return E.first < N; }) -
          G);
      std::vector<PairT> Pairs(Owned + NG - InRange);
      parallelFor(0, Owned, [&](size_t J) {
        Pairs[J].first = VertexId(Sh + (J << LogShards));
      });
      parallelFor(0, NG, [&](size_t I) {
        Pairs[I < InRange ? size_t(G[I].first >> LogShards)
                          : Owned + I - InRange] = G[I];
      });
      Out[Sh] = GraphSnapshotT(VT::buildSorted(Pairs.data(), Pairs.size()), P);
    }, 1);
  }

  //===--------------------------------------------------------------------===
  // Basic queries (Section 5, "Basic Graph Operations").
  //===--------------------------------------------------------------------===

  /// Number of vertices, O(1).
  size_t numVertices() const { return VT::size(Root); }

  /// Number of directed edges via the augmented vertex tree, O(1).
  uint64_t numEdges() const { return VT::aug(Root); }

  /// Upper bound for dense vertex-indexed arrays (max id + 1).
  VertexId vertexUniverse() const {
    const Node *L = VT::last(Root);
    return L ? L->Key + 1 : 0;
  }

  bool hasVertex(VertexId V) const {
    return VT::findNode(Root, V) != nullptr;
  }

  /// Copy of the edge set of \p V (empty if V is absent). O(log n).
  EdgeSet findVertex(VertexId V) const {
    const Node *N = VT::findNode(Root, V);
    return N ? N->Val : EdgeSet();
  }

  /// Borrowed (non-owning, no refcount traffic) view of \p V's edge set;
  /// valid while this snapshot is alive. The uniform entry point for
  /// cursor-based neighbor iteration: its sequential traversals stream
  /// chunk contents through the codec's block-decoded bulk iterate
  /// (encoding/varint_block.h), so edge scans decode many neighbors per
  /// step instead of one varint at a time.
  typename EdgeSet::View edgesView(VertexId V) const {
    const Node *N = VT::findNode(Root, V);
    return N ? N->Val.view() : typename EdgeSet::View{};
  }

  /// Streaming cursor over \p V's neighbors (empty for absent vertices);
  /// this snapshot must outlive it. Mirrors the graph views' cursor
  /// surface so snapshot holders need not build a view for one vertex.
  typename EdgeSet::View::Cursor neighborCursor(VertexId V) const {
    return edgesView(V).cursor();
  }

  /// Degree of \p V; O(log n) lookup then O(1).
  uint64_t degree(VertexId V) const {
    const Node *N = VT::findNode(Root, V);
    return N ? N->Val.size() : 0;
  }

  /// Slots of the \p N vertices \p Keys in this snapshot, an empty slot
  /// for each vertex it does not hold: O(log n) per key. For callers that
  /// hold only touched ids; a batch merge hands out its slots directly.
  std::vector<Slot> slotsOf(const VertexId *Keys, size_t N) const {
    std::vector<Slot> Out(N);
    parallelFor(0, N, [&](size_t I) {
      const Node *Nd = VT::findNode(Root, Keys[I]);
      Out[I] = Nd ? slotOf(Nd) : Slot{Keys[I]};
    });
    return Out;
  }

  /// Edge-existence probe: membership of \p X in N(\p U).
  bool containsEdge(VertexId U, VertexId X) const {
    return edgesView(U).contains(X);
  }

  Node *root() const { return Root; }

  /// Parallel traversal over (vertex, edge set) entries.
  template <class F> void forEachVertex(const F &Fn) const {
    VT::forEachPar(Root, Fn);
  }

  //===--------------------------------------------------------------------===
  // Functional batch updates (Section 5, "Batch Updates").
  //===--------------------------------------------------------------------===

  /// New snapshot with \p Edges inserted (duplicates combined). Sources
  /// not yet present are created. Grouping runs through groupSpan's
  /// borrowed scratch and makes no input-sized heap allocations.
  GraphSnapshotT insertEdges(const std::vector<EdgePair> &Edges) const {
    return combineSpan(Edges.data(), Edges.size(), /*Insert=*/true);
  }

  /// New snapshot with \p Edges removed. Vertices are kept even when their
  /// edge sets become empty (the paper makes singleton removal optional;
  /// see removeIsolatedVertices()). Unknown sources are ignored.
  GraphSnapshotT deleteEdges(const std::vector<EdgePair> &Edges) const {
    return combineSpan(Edges.data(), Edges.size(), /*Insert=*/false);
  }

  //===--------------------------------------------------------------------===
  // Batch routing helpers. Both insertEdges/deleteEdges and the sharded
  // store's shard merges group through groupSpan (borrowed scratch, so
  // steady-state ingest allocates only the functional-tree structure
  // itself) and merge through insertGrouped/deleteGrouped.
  //===--------------------------------------------------------------------===

  /// MultiInsert of a pre-grouped batch: \p Pairs sorted by vertex id with
  /// one entry per distinct source. Duplicate-source behavior matches
  /// insertEdges (sets are unioned). The sources the tree holds merge in
  /// one path-copying multiUpdate; only the sources it lacks (new
  /// vertices) go through multiInsert. When \p SlotsOut is non-null,
  /// SlotsOut[I] receives the new slot of Pairs[I]'s source.
  GraphSnapshotT insertGrouped(const std::pair<VertexId, EdgeSet> *Pairs,
                               size_t N, Slot *SlotsOut = nullptr) const {
    if (N == 0)
      return *this;
    auto Union = [](EdgeSet Old, EdgeSet New) {
      return EdgeSet::setUnion(std::move(Old), std::move(New));
    };
    CtxArray<uint8_t> Missing(N);
    uint8_t *MissingP = Missing.data();
    std::atomic<size_t> NumMissing{0};
    Node *Mine = Root;
    VT::retain(Mine);
    Node *NewRoot = VT::multiUpdate(
        Mine, Pairs, N, Union,
        [&](size_t I, const Node *Nd) {
          MissingP[I] = 0;
          if (SlotsOut)
            SlotsOut[I] = slotOf(Nd);
        },
        [&](size_t I) {
          MissingP[I] = 1;
          NumMissing.fetch_add(1, std::memory_order_relaxed);
        });
    if (size_t M = NumMissing.load(std::memory_order_relaxed)) {
      PairScratch<VertexId, EdgeSet> New(M);
      for (size_t I = 0; I < N; ++I)
        if (MissingP[I])
          New.emplaceBack(Pairs[I].first, Pairs[I].second);
      NewRoot = VT::multiInsert(NewRoot, New.data(), M, Union);
      if (SlotsOut)
        for (size_t I = 0; I < N; ++I)
          if (MissingP[I])
            SlotsOut[I] = slotOf(VT::findNode(NewRoot, Pairs[I].first));
    }
    return GraphSnapshotT(NewRoot, Params);
  }

  /// Grouped counterpart of deleteEdges: subtract each set from its
  /// source's edge set in one path-copying multiUpdate; unknown sources
  /// are ignored (their slots, if asked for, are empty). \p SlotsOut as
  /// in insertGrouped.
  GraphSnapshotT deleteGrouped(const std::pair<VertexId, EdgeSet> *Pairs,
                               size_t N, Slot *SlotsOut = nullptr) const {
    if (N == 0)
      return *this;
    Node *Mine = Root;
    VT::retain(Mine);
    Node *NewRoot = VT::multiUpdate(
        Mine, Pairs, N,
        [](EdgeSet Old, EdgeSet Del) {
          return EdgeSet::setDifference(std::move(Old), std::move(Del));
        },
        [&](size_t I, const Node *Nd) {
          if (SlotsOut)
            SlotsOut[I] = slotOf(Nd);
        },
        [&](size_t I) {
          if (SlotsOut)
            SlotsOut[I] = Slot{Pairs[I].first};
        });
    return GraphSnapshotT(NewRoot, Params);
  }

  /// New snapshot containing the additional vertices (with empty edge
  /// sets); existing vertices keep their edges.
  GraphSnapshotT insertVertices(std::vector<VertexId> Vs) const {
    parallelSort(Vs);
    Vs.erase(std::unique(Vs.begin(), Vs.end()), Vs.end());
    auto Pairs = tabulate(Vs.size(), [&](size_t I) {
      return std::pair<VertexId, EdgeSet>{Vs[I], EdgeSet()};
    });
    Node *Mine = Root;
    VT::retain(Mine);
    Node *NewRoot =
        VT::multiInsert(Mine, Pairs.data(), Pairs.size(),
                        [](EdgeSet Old, EdgeSet) { return Old; });
    return GraphSnapshotT(NewRoot, Params);
  }

  /// New snapshot without the given vertices (and their out-edges). Edges
  /// *to* deleted vertices stored at other vertices are not removed; for
  /// symmetric graphs delete the incident edges first.
  GraphSnapshotT deleteVertices(std::vector<VertexId> Vs) const {
    parallelSort(Vs);
    Vs.erase(std::unique(Vs.begin(), Vs.end()), Vs.end());
    auto Pairs = tabulate(Vs.size(), [&](size_t I) {
      return std::pair<VertexId, EdgeSet>{Vs[I], EdgeSet()};
    });
    Node *Batch = VT::buildSorted(Pairs.data(), Pairs.size());
    Node *Mine = Root;
    VT::retain(Mine);
    return GraphSnapshotT(VT::difference(Mine, Batch), Params);
  }

  /// Drop all degree-0 vertices.
  GraphSnapshotT removeIsolatedVertices() const {
    Node *Mine = Root;
    VT::retain(Mine);
    return GraphSnapshotT(VT::filter(
        Mine, [](VertexId, const EdgeSet &S) { return !S.empty(); }),
                          Params);
  }

  //===--------------------------------------------------------------------===
  // Introspection.
  //===--------------------------------------------------------------------===

  /// Exact heap footprint: vertex-tree nodes plus all edge-set memory.
  size_t memoryBytes() const { return memoryRec(Root); }

  /// Structural audit of the vertex tree and every edge set.
  bool checkInvariants() const {
    if (!VT::validate(Root))
      return false;
    std::atomic<bool> Ok{true};
    VT::forEachPar(Root, [&](VertexId, const EdgeSet &S) {
      if (!S.checkInvariants(Params))
        Ok.store(false, std::memory_order_relaxed);
    });
    return Ok.load();
  }

private:
  /// Shared core of insertEdges/deleteEdges: groupSpan, then the grouped
  /// merge.
  GraphSnapshotT combineSpan(const EdgePair *Edges, size_t K,
                             bool Insert) const {
    if (K == 0)
      return *this;
    std::optional<PairScratch<VertexId, EdgeSet>> Pairs;
    groupSpan<EdgeSet>(Edges, K, Params, Pairs);
    return Insert ? insertGrouped(Pairs->data(), Pairs->size())
                  : deleteGrouped(Pairs->data(), Pairs->size());
  }

  static Slot slotOf(const Node *N) {
    return Slot{N->Key, uint32_t(N->Val.size()), N->Val.view()};
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
  BuildParams Params{};
};

namespace detail {
constexpr unsigned log2Floor(size_t X) {
  unsigned L = 0;
  while (X >>= 1)
    ++L;
  return L;
}
/// Exponent of the power of two nearest \p X (> 0), rounding in log space.
constexpr unsigned log2Nearest(size_t X) {
  unsigned L = log2Floor(X);
  return X * X >= (size_t(2) << (2 * L)) ? L + 1 : L;
}
} // namespace detail

/// Flat-snapshot page table geometry: a page aims at FlatPageBytes of
/// (view, degree) slots, and a directory holds FlatDirFanout pages. The
/// geometry/* rows of BENCH_flat_snapshot.json sweep both (DESIGN.md
/// Section 4).
inline constexpr size_t FlatPageBytes = 4096;
inline constexpr size_t FlatDirFanout = 16;

/// Flat snapshot (Section 5.1): a dense array of per-vertex edge-set
/// views plus degrees, giving O(1) vertex access like CSR. Slots are
/// non-owning (trivially destructible); the retained source snapshot
/// keeps every edge tree alive, so construction and destruction incur no
/// per-vertex reference-count traffic.
///
/// Storage is a two-level persistent page table. Slots live in
/// refcounted pages of PageSlots (view, degree) pairs; pages hang off
/// refcounted directories of DirPages page pointers; the directory vector
/// is the only per-snapshot dense array, so copying a flat snapshot
/// retains its directories and nothing else. A full build fills the
/// pages in parallel, each by an in-order traversal of the vertex tree
/// clipped to its slot range - every slot (materialized vertex or hole)
/// is written exactly once into uninitialized page storage, at O(n +
/// pages * log n) work. refresh() derives the flat view of a
/// *successor* snapshot from a predecessor's: untouched directories are
/// shared by refcount, and a directory above a touched page is cloned
/// (its untouched pages retained, not copied) while the touched page is
/// cloned and slot-repaired. Untouched slots stay valid because a
/// functional update only replaces the edge sets of touched vertices -
/// every other vertex keeps the identical, refcounted (root, prefix) pair
/// in the new snapshot. The touched slots themselves come from the batch
/// merge that set them (VertexSlot), so the refresh reads no tree node
/// another core just wrote; universe growth is filled from the tree. A
/// refresh costs O(touched pages * page bytes + touched directories *
/// DirPages + directories + touched vertices).
/// This is what turns flat snapshots from a per-epoch batch job into the
/// continuously maintained read index behind the stores' acquireFlat().
///
/// \p SlotShift maps vertex keys to slots (slot = key >> SlotShift): 0
/// for whole-graph snapshots, log2(shards) for a sharded store's
/// per-shard flats, whose keys all share their low bits. \p PageBytes and
/// \p DirFanout fix the geometry at compile time; everything but the
/// geometry sweep in bench_flat_snapshot uses the defaults.
template <class EdgeSet, size_t PageBytes = FlatPageBytes,
          size_t DirFanout = FlatDirFanout>
class FlatSnapshotT {
public:
  using SetView = typename EdgeSet::View;
  static_assert(std::is_trivially_copyable<SetView>::value &&
                    std::is_trivially_destructible<SetView>::value,
                "flat-snapshot slots must be trivially copyable views");
  static_assert(DirFanout > 0 && (DirFanout & (DirFanout - 1)) == 0,
                "directory fanout must be a power of two");

  /// Slots per page: the power of two nearest PageBytes / slot bytes
  /// (64 on the hybrid store's 60-byte slots, 256 on the C-tree store's
  /// 20-byte slots at the default 4 KB).
  static constexpr size_t PageSlots = size_t(1) << detail::log2Nearest(
      std::max<size_t>(1, PageBytes / (sizeof(SetView) + sizeof(uint32_t))));
  static constexpr size_t DirPages = DirFanout;

  FlatSnapshotT() = default;

  explicit FlatSnapshotT(GraphSnapshotT<EdgeSet> G, unsigned SlotShift = 0)
      : Owner(std::move(G)), Shift(SlotShift), NumEdgesV(Owner.numEdges()) {
    NumSlots = slotCount(Owner.vertexUniverse());
    const size_t NP = pageCount(NumSlots);
    Dirs.resize(dirCount(NP));
    parallelFor(0, Dirs.size(), [&](size_t D) {
      Dir *Dr = newNode<Dir>();
      for (size_t J = 0; J < DirPages; ++J)
        Dr->Pages[J] = (D << DirLog) + J < NP ? newNode<Page>() : nullptr;
      Dirs[D] = Dr;
    });
    parallelFor(0, NP, [&](size_t P) {
      fillPage(P, VertexId(P << PageLog),
               std::min(NumSlots, VertexId((P + 1) << PageLog)));
    });
  }

  FlatSnapshotT(const FlatSnapshotT &O)
      : Owner(O.Owner), Dirs(O.Dirs), NumSlots(O.NumSlots), Shift(O.Shift),
        NumEdgesV(O.NumEdgesV) {
    for (Dir *D : Dirs)
      retain(D);
  }
  FlatSnapshotT(FlatSnapshotT &&O) noexcept
      : Owner(std::move(O.Owner)), Dirs(std::move(O.Dirs)),
        NumSlots(O.NumSlots), Shift(O.Shift), NumEdgesV(O.NumEdgesV) {
    O.Dirs.clear();
    O.NumSlots = 0;
    O.NumEdgesV = 0;
  }
  FlatSnapshotT &operator=(const FlatSnapshotT &O) {
    if (this != &O) {
      FlatSnapshotT Tmp(O);
      *this = std::move(Tmp);
    }
    return *this;
  }
  FlatSnapshotT &operator=(FlatSnapshotT &&O) noexcept {
    if (this != &O) {
      releaseDirs();
      Owner = std::move(O.Owner);
      Dirs = std::move(O.Dirs);
      NumSlots = O.NumSlots;
      Shift = O.Shift;
      NumEdgesV = O.NumEdgesV;
      O.Dirs.clear();
      O.NumSlots = 0;
      O.NumEdgesV = 0;
    }
    return *this;
  }
  ~FlatSnapshotT() { releaseDirs(); }

  /// Flat view of \p Next derived from \p Prev's flat view.
  /// Preconditions: \p Next is a (possibly multi-batch) functional
  /// successor of Prev's snapshot, and \p Touched holds - sorted
  /// ascending by key, one per key - the slot in \p Next of every vertex
  /// whose edge set differs between the two (VertexSlot's lifetime rule
  /// keeps a slot recorded by an earlier batch valid in Next when no later
  /// batch touched its vertex). Untouched directories are shared with
  /// \p Prev; directories above touched pages are cloned, and the
  /// touched pages themselves cloned and their slots overwritten, with no
  /// tree lookup; slots the universe grew into are filled from the tree
  /// (so touched slots beyond Prev's universe are ignored).
  static FlatSnapshotT refresh(const FlatSnapshotT &Prev,
                               GraphSnapshotT<EdgeSet> Next,
                               const VertexSlot<EdgeSet> *Touched,
                               size_t NumTouched) {
    FlatSnapshotT FS;
    FS.Owner = std::move(Next);
    FS.Shift = Prev.Shift;
    FS.NumEdgesV = FS.Owner.numEdges();
    FS.NumSlots = FS.slotCount(FS.Owner.vertexUniverse());

    const VertexId OldSlots = Prev.NumSlots;
    const size_t OldPages = pageCount(OldSlots);
    const size_t NewPages = pageCount(FS.NumSlots);

    // Work set, ascending by page: pages holding touched slots below the
    // repair limit, then every page the universe grew into (including a
    // partial old last page, which may already be listed as touched).
    const VertexId RepairLimit = std::min(OldSlots, FS.NumSlots);
    struct WorkPage {
      size_t Page;
      size_t TBegin, TEnd; ///< touched-slot range to write (may be empty)
    };
    std::vector<WorkPage> Work;
    for (size_t I = 0; I < NumTouched;) {
      VertexId At = FS.slotOf(Touched[I].Key);
      assert((I == 0 || Touched[I - 1].Key < Touched[I].Key) &&
             "touched slots must be sorted and one per key");
      if (At >= RepairLimit)
        break; // growth region (or dropped tail): handled by the tree fill
      size_t P = size_t(At) >> PageLog;
      size_t J = I + 1;
      while (J < NumTouched) {
        VertexId At2 = FS.slotOf(Touched[J].Key);
        if (At2 >= RepairLimit || (size_t(At2) >> PageLog) != P)
          break;
        ++J;
      }
      Work.push_back({P, I, J});
      I = J;
    }
    const size_t NumTouchedPages = Work.size();
    if (FS.NumSlots > OldSlots) {
      size_t P = size_t(OldSlots) >> PageLog;
      if (NumTouchedPages && Work.back().Page == P)
        ++P;
      for (; P < NewPages; ++P)
        Work.push_back({P, 0, 0});
    }

    // Directory runs of the work set; every other directory is shared.
    struct WorkDir {
      size_t Dir;
      size_t WBegin, WEnd; ///< its pages' range in Work
    };
    std::vector<WorkDir> WDirs;
    for (size_t W = 0; W < Work.size();) {
      size_t D = Work[W].Page >> DirLog, E = W + 1;
      while (E < Work.size() && (Work[E].Page >> DirLog) == D)
        ++E;
      WDirs.push_back({D, W, E});
      W = E;
    }
    FS.Dirs.assign(dirCount(NewPages), nullptr);
    for (size_t D = 0, K = 0; D < FS.Dirs.size(); ++D) {
      if (K < WDirs.size() && WDirs[K].Dir == D) {
        ++K;
        continue;
      }
      assert(D < Prev.Dirs.size() && "a grown directory holds growth pages");
      FS.Dirs[D] = Prev.Dirs[D];
      retain(FS.Dirs[D]);
    }

    // Clone the work directories: untouched pages are retained, work
    // pages left for the clones below. Both loops fork in tasks of up to
    // DirPages items, so a small batch's refresh never pays a fork.
    const size_t KeepPages = std::min(OldPages, NewPages);
    parallelFor(0, WDirs.size(), [&](size_t K) {
      const WorkDir &WD = WDirs[K];
      Dir *ND = newNode<Dir>();
      size_t W = WD.WBegin;
      for (size_t J = 0; J < DirPages; ++J) {
        size_t P = (WD.Dir << DirLog) + J;
        Page *Src = nullptr;
        if (W < WD.WEnd && Work[W].Page == P) {
          ++W;
        } else if (P < KeepPages) {
          Src = Prev.Dirs[WD.Dir]->Pages[J];
          retain(Src);
        }
        ND->Pages[J] = Src;
      }
      FS.Dirs[WD.Dir] = ND;
    }, DirPages);

    // Clone every work page (only the predecessor's valid slots), fill
    // the slots the universe grew into from the tree, and overwrite each
    // touched slot with the one the merge recorded (a source a delete
    // did not find comes as an empty slot). Repairs write slots below the
    // repair limit and the fill slots above it, so the two never overlap.
    parallelFor(0, Work.size(), [&](size_t W) {
      size_t P = Work[W].Page;
      Page *NP = newNode<Page>();
      if (P < OldPages) {
        size_t Valid =
            std::min(PageSlots, size_t(OldSlots) - (P << PageLog));
        const Page *OP = Prev.pageAt(P);
        std::memcpy(NP->Views, OP->Views, Valid * sizeof(SetView));
        std::memcpy(NP->Degrees, OP->Degrees, Valid * sizeof(uint32_t));
      }
      FS.Dirs[P >> DirLog]->Pages[P & (DirPages - 1)] = NP;
      VertexId PageEnd = std::min(FS.NumSlots, VertexId((P + 1) << PageLog));
      FS.fillPage(P, std::max(OldSlots, VertexId(P << PageLog)), PageEnd);
      for (size_t I = Work[W].TBegin; I < Work[W].TEnd; ++I) {
        size_t At = size_t(FS.slotOf(Touched[I].Key)) & (PageSlots - 1);
        NP->Views[At] = Touched[I].Edges;
        NP->Degrees[At] = Touched[I].Degree;
      }
    }, DirPages);

    return FS;
  }

  /// Slot count (== vertex universe when SlotShift is 0).
  VertexId numVertices() const { return NumSlots; }
  uint64_t numEdges() const { return NumEdgesV; }
  /// O(1). \p Slot is a vertex id >> SlotShift; must be < numVertices().
  uint64_t degree(VertexId Slot) const {
    return pageAt(size_t(Slot) >> PageLog)
        ->Degrees[size_t(Slot) & (PageSlots - 1)];
  }
  SetView edges(VertexId Slot) const {
    return pageAt(size_t(Slot) >> PageLog)
        ->Views[size_t(Slot) & (PageSlots - 1)];
  }

  /// The snapshot this flat view resolves (also what keeps it alive).
  const GraphSnapshotT<EdgeSet> &graph() const { return Owner; }
  unsigned slotShift() const { return Shift; }

  /// Bytes used by the flat structure itself (Table 2, "Flat Snap."):
  /// full page footprint - slot arrays plus per-page refcount header and
  /// padding - the directories, and the directory vector. Shared pages
  /// are counted in full here; sharedPages() reports how many are
  /// co-owned with other snapshots.
  size_t memoryBytes() const {
    return numPages() * sizeof(Page) + Dirs.size() * sizeof(Dir) +
           Dirs.capacity() * sizeof(Dir *);
  }

  /// Pages co-owned with other flat snapshots, directly or through a
  /// shared directory (CoW sharing diagnostic).
  size_t sharedPages() const {
    size_t N = 0;
    for (size_t P = 0, NP = numPages(); P < NP; ++P) {
      const Dir *D = Dirs[P >> DirLog];
      N += D->Refs.load(std::memory_order_relaxed) > 1 ||
           D->Pages[P & (DirPages - 1)]->Refs.load(
               std::memory_order_relaxed) > 1;
    }
    return N;
  }
  size_t numPages() const { return pageCount(NumSlots); }

private:
  static constexpr unsigned PageLog = detail::log2Floor(PageSlots);
  static constexpr unsigned DirLog = detail::log2Floor(DirPages);

  /// A refcounted page of slots. Slot arrays are raw storage filled
  /// write-once by the builders; SetView is trivially copyable, so page
  /// clones are two memcpys and destruction is a single pool free.
  struct Page {
    std::atomic<uint32_t> Refs;
    SetView Views[PageSlots];
    uint32_t Degrees[PageSlots];
  };
  /// A refcounted directory: DirPages owning page pointers (nullptr past
  /// the last page).
  struct Dir {
    std::atomic<uint32_t> Refs;
    Page *Pages[DirPages];
  };

  /// Pages and directories come from typed pools, so neither a build nor
  /// a refresh pays one heap allocation per page.
  template <class T> static T *newNode() {
    T *N = static_cast<T *>(NodePool<T>::allocRaw());
    new (&N->Refs) std::atomic<uint32_t>(1);
    return N; // payload deliberately uninitialized (write-once fill)
  }
  template <class T> static void retain(T *N) {
    N->Refs.fetch_add(1, std::memory_order_relaxed);
  }
  template <class T> static bool unref(T *N) {
    if (N->Refs.fetch_sub(1, std::memory_order_acq_rel) != 1)
      return false;
    N->Refs.~atomic();
    return true;
  }
  static void releasePage(Page *P) {
    if (unref(P))
      NodePool<Page>::freeRaw(P);
  }
  static void releaseDir(Dir *D) {
    if (!unref(D))
      return;
    for (Page *P : D->Pages)
      if (P)
        releasePage(P);
    NodePool<Dir>::freeRaw(D);
  }
  void releaseDirs() {
    for (Dir *D : Dirs)
      if (D)
        releaseDir(D);
    Dirs.clear();
  }

  Page *pageAt(size_t P) const {
    return Dirs[P >> DirLog]->Pages[P & (DirPages - 1)];
  }

  VertexId slotOf(VertexId Key) const { return Key >> Shift; }
  VertexId slotCount(VertexId Universe) const {
    return Universe ? ((Universe - 1) >> Shift) + 1 : 0;
  }
  static size_t pageCount(VertexId Slots) {
    return (size_t(Slots) + PageSlots - 1) >> PageLog;
  }
  static size_t dirCount(size_t Pages) {
    return (Pages + DirPages - 1) >> DirLog;
  }

  /// Write-once fill of page \p P's slots [Lo, Hi) from the vertex tree:
  /// materialized vertices get their view/degree, key gaps (holes of the
  /// universe) the default slot. Each slot is written exactly once, here
  /// or by a clone, never both.
  void fillPage(size_t P, VertexId Lo, VertexId Hi) {
    fillRange(Owner.root(), Lo, Hi, pageAt(P), VertexId(P << PageLog));
  }

  /// In-order fill of the slots in [Lo, Hi) that subtree \p N covers.
  /// Subtrees outside the range are skipped, so a page costs O(its slots
  /// + log n) and writes go straight into its arrays.
  void fillRange(const typename GraphSnapshotT<EdgeSet>::VT::Node *N,
                 VertexId Lo, VertexId Hi, Page *Pg, VertexId Base) const {
    if (Lo >= Hi)
      return;
    if (!N) {
      std::fill(Pg->Views + (Lo - Base), Pg->Views + (Hi - Base), SetView{});
      std::memset(Pg->Degrees + (Lo - Base), 0,
                  size_t(Hi - Lo) * sizeof(uint32_t));
      return;
    }
    VertexId S = slotOf(N->Key);
    fillRange(N->Left, Lo, std::min(S, Hi), Pg, Base);
    if (S >= Lo && S < Hi) {
      Pg->Views[S - Base] = N->Val.view();
      Pg->Degrees[S - Base] = uint32_t(N->Val.size());
    }
    fillRange(N->Right, std::max(S + 1, Lo), Hi, Pg, Base);
  }

  GraphSnapshotT<EdgeSet> Owner;
  std::vector<Dir *> Dirs;
  VertexId NumSlots = 0;
  unsigned Shift = 0;
  uint64_t NumEdgesV = 0;
};

//===----------------------------------------------------------------------===
// Graph views: the uniform neighbor-access interface consumed by edgeMap
// and the algorithms (degree / indexed map / early-exit iteration). Both
// Aspen views and the static baselines implement this shape. Each Aspen
// view reads S = 2^k hash shards (vertex v lives in shard v & (S - 1)):
// a single snapshot or flat is the one-shard case, and a sharded store's
// epoch or hot flat epoch is read through the same two classes.
//===----------------------------------------------------------------------===

/// View that resolves vertices through the vertex tree on each access
/// (O(log n/S) per vertex) - the default for local algorithms. Shard
/// trees are keyed by global vertex id.
template <class EdgeSet> class TreeGraphView {
public:
  using NeighborCursor = typename EdgeSet::View::Cursor;
  using Snapshot = GraphSnapshotT<EdgeSet>;

  explicit TreeGraphView(const Snapshot &G)
      : TreeGraphView(&G, 0, G.vertexUniverse(), G.numEdges()) {}
  /// The 2^\p LogShards snapshots at \p Shards (which must outlive the
  /// view) read as one graph over [0, \p Universe) with \p NumEdges
  /// directed edges.
  TreeGraphView(const Snapshot *Shards, unsigned LogShards,
                VertexId Universe, uint64_t NumEdges)
      : Shards(Shards), Mask(VertexId((size_t(1) << LogShards) - 1)),
        Universe(Universe), NumEdgesV(NumEdges) {}

  VertexId numVertices() const { return Universe; }
  uint64_t numEdges() const { return NumEdgesV; }
  uint64_t degree(VertexId V) const { return owner(V).degree(V); }

  /// Streaming cursor over \p V's neighbors (shards must stay alive).
  NeighborCursor neighborCursor(VertexId V) const {
    return owner(V).edgesView(V).cursor();
  }

  template <class F>
  void mapNeighborsIndexed(VertexId V, const F &Fn) const {
    owner(V).edgesView(V).forEachIndexed(Fn);
  }

  template <class F> void mapNeighbors(VertexId V, const F &Fn) const {
    owner(V).edgesView(V).forEachSeq(Fn);
  }

  template <class F> bool iterNeighborsCond(VertexId V, const F &Fn) const {
    return owner(V).edgesView(V).iterCond(Fn);
  }

  /// Edge-existence probe: membership of \p X in N(\p U).
  bool containsEdge(VertexId U, VertexId X) const {
    return owner(U).containsEdge(U, X);
  }

private:
  const Snapshot &owner(VertexId V) const { return Shards[size_t(V & Mask)]; }

  const Snapshot *Shards;
  VertexId Mask;
  VertexId Universe;
  uint64_t NumEdgesV;
};

/// View over flat snapshots: O(1) vertex access, as in CSR - a mask, a
/// shift to the shard-local slot, a range check and two array reads.
/// Vertices past a shard's slots (beyond the universe, or in a shard
/// whose own id space ends earlier) read as empty.
template <class EdgeSet, size_t PageBytes = FlatPageBytes,
          size_t DirFanout = FlatDirFanout>
class FlatGraphView {
public:
  using SetView = typename EdgeSet::View;
  using NeighborCursor = typename SetView::Cursor;
  using Flat = FlatSnapshotT<EdgeSet, PageBytes, DirFanout>;

  explicit FlatGraphView(const Flat &FS)
      : FlatGraphView(&FS, 0, FS.numVertices(), FS.numEdges()) {}
  /// The 2^\p LogShards flats at \p Flats (which must outlive the view;
  /// slot = v >> LogShards) read as one graph over [0, \p Universe) with
  /// \p NumEdges directed edges.
  FlatGraphView(const Flat *Flats, unsigned LogShards, VertexId Universe,
                uint64_t NumEdges)
      : Flats(Flats), Mask(VertexId((size_t(1) << LogShards) - 1)),
        Log(LogShards), Universe(Universe), NumEdgesV(NumEdges) {}

  VertexId numVertices() const { return Universe; }
  uint64_t numEdges() const { return NumEdgesV; }
  uint64_t degree(VertexId V) const {
    const Flat &F = Flats[size_t(V & Mask)];
    VertexId L = V >> Log;
    return L < F.numVertices() ? F.degree(L) : 0;
  }

  /// Streaming cursor over \p V's neighbors (flats must stay alive).
  NeighborCursor neighborCursor(VertexId V) const {
    return slotView(V).cursor();
  }

  template <class F>
  void mapNeighborsIndexed(VertexId V, const F &Fn) const {
    slotView(V).forEachIndexed(Fn);
  }

  template <class F> void mapNeighbors(VertexId V, const F &Fn) const {
    slotView(V).forEachSeq(Fn);
  }

  template <class F> bool iterNeighborsCond(VertexId V, const F &Fn) const {
    return slotView(V).iterCond(Fn);
  }

  /// Edge-existence probe: membership of \p X in N(\p U).
  bool containsEdge(VertexId U, VertexId X) const {
    return slotView(U).contains(X);
  }

private:
  SetView slotView(VertexId V) const {
    const Flat &F = Flats[size_t(V & Mask)];
    VertexId L = V >> Log;
    return L < F.numVertices() ? F.edges(L) : SetView{};
  }

  const Flat *Flats;
  VertexId Mask;
  unsigned Log;
  VertexId Universe;
  uint64_t NumEdgesV;
};


/// Default Aspen configuration: C-trees with difference encoding.
using Graph = GraphSnapshotT<CTreeSet<VertexId, DeltaByteCodec>>;
/// C-trees without difference encoding ("Aspen (No DE)").
using GraphNoDE = GraphSnapshotT<CTreeSet<VertexId, RawCodec>>;
/// Plain purely-functional trees ("Aspen Uncomp.").
using GraphUncompressed = GraphSnapshotT<UncompressedSet<VertexId>>;
/// Degree-adaptive hybrid representation (graph/hybrid_set.h): inline
/// small adjacencies, C-trees with a per-graph chunk size above them.
using HybridGraph = GraphSnapshotT<HybridEdgeSet>;

using FlatSnapshot = FlatSnapshotT<CTreeSet<VertexId, DeltaByteCodec>>;
using HybridFlatSnapshot = FlatSnapshotT<HybridEdgeSet>;

} // namespace aspen

#endif // ASPEN_GRAPH_GRAPH_H
