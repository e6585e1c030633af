//===- ctree/chunk.h - Compressed element chunks ---------------------------===//
//
// Chunks are the tails/prefixes of the C-tree (Section 3.1): immutable,
// reference-counted arrays of sorted elements. The header stores the first
// and last elements so Split does O(1) work per node visited (Section 4.1),
// and the element count so C-tree sizes are O(1) via augmentation.
//
// Two codecs (Section 3.2):
//  * DeltaByteCodec - difference encoding + variable-length byte codes
//    ("Aspen (DE)" in Table 2).
//  * RawCodec       - plain element array ("Aspen (No DE)").
//
// Every codec exposes two streaming readers over one chunk's elements:
//
//  * Cursor - scalar, one element per advance(), byte offsets tracked
//    from the varint position. Early-exit scans (chunkContains,
//    splitChunk's seekLowerBound) and the one-pass set merges use it:
//    those access patterns decode exactly the elements they inspect.
//  * BlockCursor - block-decoded: a refill decodes up to
//    BlockVarintCursor::BlockElts gaps through the SSSE3/SWAR tiers of
//    encoding/varint_block.h and prefix-sums them into absolute
//    elements, and iterate() walks the resulting arrays with tight
//    inner loops. Bulk traversal (forEachSeq/forEachIndexed/iterCond,
//    hence the whole edge-map surface) runs on this path, where whole
//    chunks stream and wide decoding wins.
//
// All set operations below are one-pass cursor merges: elements stream
// from the input cursors through a bounded single-pass encoder into
// per-thread scratch (capacity known from the input counts), then one
// memcpy lands them in the exactly-sized payload. No operation
// materializes a decoded element array; the only allocation on any hot
// path is the output payload itself.
//
// Two operations go further and move encoded bytes instead of re-encoding
// elements, exploiting that a chunk's encoding after element i is
// independent of elements before i:
//  * Split byte-slices the encoded stream - both halves are header
//    fix-ups plus a memcpy.
//  * The set merges (union / minus / intersect) detect maximal runs of
//    consecutive output elements drawn from one input whose encodings are
//    contiguous, and memcpy those runs between switch points; only the
//    first gap after each switch is re-encoded. The produced encodings
//    are byte-identical to the element-at-a-time merges (the *Streaming
//    reference implementations below), which the differential tests
//    assert.
//
// Chunks are immutable after construction, so sharing them between tree
// versions is a reference-count bump; all "modifications" build new chunks.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_CTREE_CHUNK_H
#define ASPEN_CTREE_CHUNK_H

#include "encoding/byte_code.h"
#include "encoding/varint_block.h"
#include "memory/algo_context.h"
#include "memory/pool_allocator.h"

#include <algorithm>

#include <atomic>
#include <cassert>
#include <cstring>
#include <type_traits>
#include <vector>

namespace aspen {

/// Header of a chunk payload; the encoded elements follow contiguously.
template <class K> struct ChunkPayload {
  std::atomic<uint32_t> Ref;
  uint32_t Count; ///< Number of elements (>= 1).
  uint32_t Bytes; ///< Encoded size of elements after the first.
  K First;        ///< Smallest element; base of difference encoding.
  K Last;         ///< Largest element (O(1) Split checks).

  uint8_t *data() { return reinterpret_cast<uint8_t *>(this + 1); }
  const uint8_t *data() const {
    return reinterpret_cast<const uint8_t *>(this + 1);
  }
};

namespace detail {

/// Shared bulk-iteration body: walk a block cursor's decoded windows
/// with a tight inner loop over the plain value array. Fn returns false
/// to stop early; returns false iff stopped early.
template <class K, class BC, class F>
bool iterateBlocks(BC Cu, const F &Fn) {
  do {
    uint32_t L = Cu.blockLen();
    for (uint32_t I = Cu.blockPos(); I < L; ++I)
      if (!Fn(static_cast<K>(Cu.blockValue(I))))
        return false;
  } while (Cu.nextBlock());
  return true;
}

} // namespace detail

/// Difference coding with byte codes: element i>0 is stored as the varint
/// of E[i] - E[i-1] (strictly increasing, so deltas >= 1).
struct DeltaByteCodec {
  static constexpr const char *Name = "delta-byte";

  /// Encoded size of the gap between consecutive elements.
  template <class K> static size_t gapBytes(K Prev, K Next) {
    return varintSize(static_cast<uint64_t>(Next) -
                      static_cast<uint64_t>(Prev));
  }

  /// Upper bound on gapBytes for any pair of K values.
  template <class K> static constexpr size_t maxGapBytes() {
    return (sizeof(K) * 8 + 6) / 7;
  }

  /// Append the encoding of the gap Prev -> Next at \p Out; returns the
  /// byte past it.
  template <class K>
  static uint8_t *encodeGap(K Prev, K Next, uint8_t *Out) {
    return encodeVarint(static_cast<uint64_t>(Next) -
                            static_cast<uint64_t>(Prev),
                        Out);
  }

  template <class K> static size_t encodedBytes(const K *E, size_t N) {
    size_t Bytes = 0;
    for (size_t I = 1; I < N; ++I)
      Bytes += gapBytes(E[I - 1], E[I]);
    return Bytes;
  }

  template <class K>
  static void encode(const K *E, size_t N, uint8_t *Out, size_t Cap) {
    VarintWriter W(Out, Cap);
    for (size_t I = 1; I < N; ++I)
      W.append(static_cast<uint64_t>(E[I]) - static_cast<uint64_t>(E[I - 1]));
  }

  /// Streaming scalar reader over one chunk's elements: one gap decoded
  /// per advance(), byte offsets tracked for free from the varint
  /// cursor's position. This is the seek/merge cursor: early-exit scans
  /// (chunkContains, splitChunk) and the one-pass set merges decode
  /// exactly the elements they look at, which measures faster than
  /// decode-ahead blocks for those access patterns. Bulk sequential
  /// traversal goes through BlockCursor below instead.
  template <class K> class Cursor {
  public:
    Cursor() = default;
    explicit Cursor(const ChunkPayload<K> *C) {
      if (!C)
        return;
      Cur = C->First;
      Begin = C->data();
      Rest = VarintCursor(Begin, C->Count - 1);
      Left = C->Count;
    }

    bool done() const { return Left == 0; }
    uint32_t remaining() const { return Left; }
    K value() const {
      assert(Left > 0 && "value() on exhausted cursor");
      return Cur;
    }

    void advance() {
      assert(Left > 0 && "advance() on exhausted cursor");
      --Left;
      if (Left)
        Cur = static_cast<K>(static_cast<uint64_t>(Cur) + Rest.next());
    }

    /// Bytes of encoded elements consumed so far: the encodings of
    /// elements [1 .. index] (element 0 lives in the header).
    size_t byteOffset() const {
      return static_cast<size_t>(Rest.pos() - Begin);
    }

    /// Advance to the first element >= Key (or done()). prevValue() /
    /// prevByteOffset() then describe the last element < Key, when the
    /// seek moved past at least one element.
    void seekLowerBound(K Key) {
      while (Left && Cur < Key) {
        Prev = Cur;
        PrevOff = byteOffset();
        advance();
      }
    }

    K prevValue() const { return Prev; }
    size_t prevByteOffset() const { return PrevOff; }

  private:
    K Cur{};
    K Prev{};
    VarintCursor Rest;
    const uint8_t *Begin = nullptr;
    size_t PrevOff = 0;
    uint32_t Left = 0;
  };

  /// Block-decoded reader over one chunk's elements. A refill
  /// block-decodes up to BlockVarintCursor::BlockElts gaps at once
  /// (SSSE3 shuffle table or SWAR words, see encoding/varint_block.h)
  /// and prefix-sums them into a buffer of *absolute* elements, so
  /// value() is a load and advance() an increment. This is the bulk
  /// traversal cursor (iterate / forEachSeq / the edge-map surface),
  /// where whole chunks stream and wide decoding wins; it also tracks
  /// per-element end offsets, so it satisfies the same byte-offset
  /// contract as Cursor.
  template <class K> class BlockCursor {
  public:
    static constexpr uint32_t BlockElts = BlockVarintCursor::BlockElts;

    /// Decoded-element buffer type: 32-bit keys decode through the
    /// narrow-kernel variant (gaps and absolute elements both fit 32
    /// bits), halving buffer and store traffic.
    using BufT = std::conditional_t<(sizeof(K) > 4), uint64_t, uint32_t>;

    BlockCursor() = default;
    explicit BlockCursor(const ChunkPayload<K> *C) {
      if (!C)
        return;
      In = C->data();
      Gaps = C->Count - 1;
      Buf[0] = C->First;
      EndOff[0] = 0;
      Len = 1;
    }

    bool done() const { return Pos == Len; }
    uint32_t remaining() const { return (Len - Pos) + uint32_t(Gaps); }
    K value() const {
      assert(!done() && "value() on exhausted cursor");
      return static_cast<K>(Buf[Pos]);
    }

    void advance() {
      assert(!done() && "advance() on exhausted cursor");
      ++Pos;
      if (Pos == Len && Gaps)
        refill();
    }

    /// Bytes of encoded elements consumed so far: the encodings of
    /// elements [1 .. index] (element 0 lives in the header). Only valid
    /// while !done(). (Seeking stays on the scalar Cursor; this cursor
    /// tracks offsets so bulk consumers can still slice runs.)
    size_t byteOffset() const { return EndOff[Pos]; }

    /// Block-bulk access for sequential consumers: the decoded elements
    /// of the current block are blockValue(blockPos() .. blockLen()-1),
    /// reads of a plain array the compiler keeps register-resident loops
    /// over. nextBlock() consumes the whole window and decodes the next
    /// one (false when the chunk is exhausted).
    BufT blockValue(uint32_t J) const { return Buf[J]; }
    uint32_t blockPos() const { return Pos; }
    uint32_t blockLen() const { return Len; }
    bool nextBlock() {
      Pos = Len;
      if (!Gaps)
        return false;
      refill();
      return true;
    }

  private:
    /// Cold path: kept out of line so the consumer loop (value/advance)
    /// compiles tight. Invariant: called only with Gaps > 0; afterwards
    /// Pos < Len.
    void refill() {
      BufT Base = Buf[Len - 1];
      uint32_t Off = EndOff[Len - 1];
      // The first refill is small, so short seeks (contains, split near
      // the front) decode little ahead; later refills use full blocks.
      size_t Want = Gaps < NextWant ? Gaps : size_t(NextWant);
      NextWant = BlockElts;
      size_t Got = decodeVarintBlock(In, Gaps, Want, Buf, EndOff, Off);
      Gaps -= Got;
      for (size_t I = 0; I < Got; ++I) {
        Base += Buf[I];
        Buf[I] = Base;
      }
      Len = uint32_t(Got);
      Pos = 0;
    }

    BufT Buf[BlockElts + VarintBlockSlack];
    uint32_t EndOff[BlockElts + VarintBlockSlack];
    const uint8_t *In = nullptr;
    size_t Gaps = 0;
    uint32_t Pos = 0;
    uint32_t Len = 0;
    uint32_t NextWant = 8;
  };

  /// Invoke Fn on each element in order; Fn returns false to stop early.
  /// Returns false iff stopped early. When the SSSE3 decode tier is
  /// live, consumes whole decoded blocks through BlockCursor's bulk
  /// interface (the inner loop runs over a plain array); on the portable
  /// SWAR-only tier the scalar cursor measures faster, so it is used
  /// instead - the tier check is one predictable branch per chunk.
  template <class K, class F>
  static bool iterate(const ChunkPayload<K> *C, const F &Fn) {
    if (!C)
      return true;
    if (!blockDecodeUsesSSSE3()) {
      for (Cursor<K> Cu(C); !Cu.done(); Cu.advance())
        if (!Fn(Cu.value()))
          return false;
      return true;
    }
    return detail::iterateBlocks<K>(BlockCursor<K>(C), Fn);
  }
};

/// No compression: elements after the first stored as raw K values.
struct RawCodec {
  static constexpr const char *Name = "raw";

  template <class K> static size_t gapBytes(K, K) { return sizeof(K); }

  template <class K> static constexpr size_t maxGapBytes() {
    return sizeof(K);
  }

  template <class K>
  static uint8_t *encodeGap(K, K Next, uint8_t *Out) {
    std::memcpy(Out, &Next, sizeof(K));
    return Out + sizeof(K);
  }

  template <class K> static size_t encodedBytes(const K *, size_t N) {
    return N > 1 ? (N - 1) * sizeof(K) : 0;
  }

  template <class K>
  static void encode(const K *E, size_t N, uint8_t *Out, size_t) {
    if (N > 1)
      std::memcpy(Out, E + 1, (N - 1) * sizeof(K));
  }

  /// Raw payloads ARE element arrays (after the header-held first
  /// element), so the cursor's block interface decodes nothing: block 0
  /// is the header element, block 1 the payload itself.
  template <class K> class Cursor {
  public:
    Cursor() = default;
    explicit Cursor(const ChunkPayload<K> *C) {
      if (!C)
        return;
      FirstBuf = C->First;
      Data = C->data();
      Count = C->Count;
      L = 1;
    }

    bool done() const { return I == L; }
    uint32_t remaining() const { return remainingFrom(I); }
    K value() const {
      assert(!done() && "value() on exhausted cursor");
      return blockValue(I);
    }
    void advance() {
      assert(!done() && "advance() on exhausted cursor");
      ++I;
      if (I == L)
        nextBlock();
    }

    size_t byteOffset() const { return byteOffsetAt(I); }

    /// O(log count): raw chunks support true binary search.
    void seekLowerBound(K Key) {
      if (done() || value() >= Key)
        return;
      for (;;) {
        // Invariant: blockValue(I) < Key; find the in-block lower bound.
        uint32_t Lo = I, Hi = L;
        while (Hi - Lo > 1) {
          uint32_t Mid = Lo + (Hi - Lo) / 2;
          if (blockValue(Mid) < Key)
            Lo = Mid;
          else
            Hi = Mid;
        }
        Prev = blockValue(Lo);
        PrevOff = byteOffsetAt(Lo);
        I = Hi;
        if (I < L)
          return;
        if (!nextBlock() || value() >= Key)
          return;
      }
    }

    K prevValue() const { return Prev; }
    size_t prevByteOffset() const { return PrevOff; }

    /// Block-bulk interface (see DeltaByteCodec::Cursor): elements
    /// blockValue(blockPos() .. blockLen()-1), nextBlock() to continue.
    /// Block 0 is the header element, held in the cursor itself; block 1
    /// is read in place from the payload. Its bytes are raw element
    /// images, so each element is loaded with memcpy rather than through
    /// a typed pointer into the byte buffer.
    K blockValue(uint32_t J) const {
      if (!Tail)
        return FirstBuf;
      K V;
      std::memcpy(&V, Data + size_t(J) * sizeof(K), sizeof(K));
      return V;
    }
    uint32_t blockPos() const { return I; }
    uint32_t blockLen() const { return L; }
    bool nextBlock() {
      if (Tail || Count <= 1) {
        I = L;
        return false;
      }
      Tail = true;
      I = 0;
      L = Count - 1;
      return true;
    }
    size_t byteOffsetAt(uint32_t J) const {
      return Tail ? size_t(J + 1) * sizeof(K) : 0;
    }
    size_t remainingFrom(uint32_t J) const {
      return (L - J) + (Tail || Count <= 1 ? 0 : size_t(Count) - 1);
    }

  private:
    K FirstBuf{};
    K Prev{};
    const uint8_t *Data = nullptr;
    size_t PrevOff = 0;
    uint32_t I = 0;
    uint32_t L = 0;
    uint32_t Count = 0;
    bool Tail = false;
  };

  /// Raw cursors serve both roles (O(1) element access, zero-copy
  /// blocks), so the bulk-cursor name is an alias.
  template <class K> using BlockCursor = Cursor<K>;

  template <class K, class F>
  static bool iterate(const ChunkPayload<K> *C, const F &Fn) {
    if (!C)
      return true;
    return detail::iterateBlocks<K>(Cursor<K>(C), Fn);
  }
};

//===----------------------------------------------------------------------===
// Chunk operations. All functions hand back payloads with one reference
// owned by the caller; nullptr represents the empty chunk.
//===----------------------------------------------------------------------===

template <class K> void retainChunk(ChunkPayload<K> *C) {
  if (C)
    C->Ref.fetch_add(1, std::memory_order_relaxed);
}

template <class K> void releaseChunk(ChunkPayload<K> *C) {
  if (!C)
    return;
  if (C->Ref.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    size_t Total = sizeof(ChunkPayload<K>) + C->Bytes;
    C->~ChunkPayload<K>();
    countedFree(C, Total);
  }
}

/// Cursor-concept adapter over a sorted span, matching the codec cursors'
/// done/value/advance/remaining surface so merge bodies are shared between
/// chunk-vs-chunk and chunk-vs-span operations.
template <class K> class SpanCursor {
public:
  SpanCursor() = default;
  SpanCursor(const K *E, size_t N) : E(E), N(N) {}

  bool done() const { return I == N; }
  size_t remaining() const { return N - I; }
  K value() const {
    assert(I < N && "value() on exhausted cursor");
    return E[I];
  }
  void advance() {
    assert(I < N && "advance() on exhausted cursor");
    ++I;
  }

private:
  const K *E = nullptr;
  size_t I = 0;
  size_t N = 0;
};

namespace detail {

/// The three streaming set-merge bodies, over any pair of cursors. Each
/// consumes its cursors (taken by value) and emits a strictly increasing
/// stream into \p Sink.

template <class CA, class CB, class Sink>
void mergeUnion(CA A, CB B, const Sink &S) {
  while (!A.done() && !B.done()) {
    auto VA = A.value(), VB = B.value();
    if (VA < VB) {
      S(VA);
      A.advance();
    } else if (VB < VA) {
      S(VB);
      B.advance();
    } else {
      S(VA);
      A.advance();
      B.advance();
    }
  }
  for (; !A.done(); A.advance())
    S(A.value());
  for (; !B.done(); B.advance())
    S(B.value());
}

/// Elements of A not present in B.
template <class CA, class CB, class Sink>
void mergeMinus(CA A, CB B, const Sink &S) {
  for (; !A.done(); A.advance()) {
    auto V = A.value();
    while (!B.done() && B.value() < V)
      B.advance();
    if (!B.done() && B.value() == V)
      continue;
    S(V);
  }
}

/// Elements of A also present in B.
template <class CA, class CB, class Sink>
void mergeIntersect(CA A, CB B, const Sink &S) {
  for (; !A.done(); A.advance()) {
    auto V = A.value();
    while (!B.done() && B.value() < V)
      B.advance();
    if (!B.done() && B.value() == V)
      S(V);
  }
}

/// Allocate a payload with the given header; the encoded region is left
/// for the caller to fill (exactly \p Bytes bytes).
template <class K>
ChunkPayload<K> *allocChunk(K First, K Last, uint32_t Count, size_t Bytes) {
  void *Mem = countedAlloc(sizeof(ChunkPayload<K>) + Bytes);
  auto *C = new (Mem) ChunkPayload<K>();
  C->Ref.store(1, std::memory_order_relaxed);
  C->Count = Count;
  C->Bytes = static_cast<uint32_t>(Bytes);
  C->First = First;
  C->Last = Last;
  return C;
}

/// Payload whose encoded region is a verbatim copy of \p Src (valid
/// because a chunk's encoding from any element onward is position-
/// independent under both codecs).
template <class K>
ChunkPayload<K> *sliceChunk(K First, K Last, uint32_t Count,
                            const uint8_t *Src, size_t Bytes) {
  ChunkPayload<K> *C = allocChunk(First, Last, Count, Bytes);
  std::memcpy(C->data(), Src, Bytes);
  return C;
}

//===----------------------------------------------------------------------===
// Run-level byte-copy merging. A chunk's encoding of element i (i >= 1)
// depends only on element i-1, so whenever a merge emits a stretch of
// consecutive same-input elements, their original encoded bytes are
// already exactly what the output needs: only the first gap after a
// switch between inputs must be re-encoded. The emitter below writes the
// merge output into scratch either gap-by-gap (emit) or as memcpy'd runs
// (copyRun); the switch-point detection lives in the individual merge
// bodies, which find run boundaries by comparing against the other
// input's next element.
//===----------------------------------------------------------------------===

/// Byte-level output builder shared by the run-copy merges. Tracks the
/// header fields (first/last/count) while the payload bytes accumulate in
/// caller-provided scratch.
template <class Codec, class K> class RunEmitter {
public:
  explicit RunEmitter(uint8_t *Out) : Out(Out) {}

  /// Append one element, re-encoding its gap from the previous output.
  void emit(K V) {
    if (Count)
      Out = Codec::template encodeGap<K>(Prev, V, Out);
    else
      First = V;
    Prev = V;
    ++Count;
  }

  /// Append \p Bytes of original encoding holding \p Extra elements that
  /// directly follow the previously emitted element in their source
  /// chunk; \p LastV is the last of them.
  void copyRun(const uint8_t *Src, size_t Bytes, uint32_t Extra, K LastV) {
    // Interleaved merges produce many short runs; a bounded byte loop
    // beats a memcpy call for those.
    if (Bytes <= 8) {
      for (size_t B = 0; B < Bytes; ++B)
        Out[B] = Src[B];
    } else {
      std::memcpy(Out, Src, Bytes);
    }
    Out += Bytes;
    Count += Extra;
    Prev = LastV;
  }

  uint8_t *out() const { return Out; }
  uint32_t count() const { return Count; }
  K first() const { return First; }
  K last() const { return Prev; }

private:
  uint8_t *Out;
  K First{};
  K Prev{};
  uint32_t Count = 0;
};

/// Emit cursor \p S's current element (one re-encoded gap), then
/// byte-copy the maximal following run of \p S elements strictly below
/// \p Bound. Leaves S past the run.
template <class Codec, class K, class Cur>
__attribute__((always_inline)) inline void
copyRunBelow(RunEmitter<Codec, K> &Em, Cur &S, const ChunkPayload<K> *SP,
             K Bound) {
  K V0 = S.value();
  Em.emit(V0);
  size_t Start = S.byteOffset();
  size_t End = Start;
  K LastV = V0;
  uint32_t Extra = 0;
  S.advance();
  while (!S.done() && S.value() < Bound) {
    LastV = S.value();
    End = S.byteOffset();
    ++Extra;
    S.advance();
  }
  if (Extra)
    Em.copyRun(SP->data() + Start, End - Start, Extra, LastV);
}

/// Emit cursor \p S's current element, then byte-copy everything that
/// remains of its chunk in one memcpy (no further decoding - the big win
/// when merges drain a long disjoint tail).
template <class Codec, class K, class Cur>
__attribute__((always_inline)) inline void
drainRun(RunEmitter<Codec, K> &Em, Cur &S, const ChunkPayload<K> *SP) {
  K V0 = S.value();
  Em.emit(V0);
  uint32_t Extra = uint32_t(S.remaining()) - 1;
  if (Extra) {
    size_t Start = S.byteOffset();
    Em.copyRun(SP->data() + Start, SP->Bytes - Start, Extra, SP->Last);
  }
}

/// Land the emitter's output in an exactly-sized payload (nullptr when
/// nothing was emitted). Takes the emitter's fields by value so the
/// emitter object itself never escapes the merge loop's frame (keeping
/// it register-resident).
template <class K>
ChunkPayload<K> *finishRunCopy(const uint8_t *Buf, const uint8_t *Out,
                               uint32_t Count, K First, K Last) {
  if (!Count)
    return nullptr;
  size_t Bytes = static_cast<size_t>(Out - Buf);
  ChunkPayload<K> *C = allocChunk(First, Last, Count, Bytes);
  std::memcpy(C->data(), Buf, Bytes);
  return C;
}

/// Convenience overload reading the fields out of the emitter inline.
template <class Codec, class K>
__attribute__((always_inline)) inline ChunkPayload<K> *
finishRunCopy(const RunEmitter<Codec, K> &Em, const uint8_t *Buf) {
  return finishRunCopy<K>(Buf, Em.out(), Em.count(), Em.first(),
                          Em.last());
}

} // namespace detail

/// Build a chunk from \p N sorted, duplicate-free elements (nullptr if
/// N == 0).
template <class Codec, class K>
ChunkPayload<K> *makeChunk(const K *E, size_t N) {
  if (N == 0)
    return nullptr;
  size_t Bytes = Codec::template encodedBytes<K>(E, N);
  ChunkPayload<K> *C =
      detail::allocChunk(E[0], E[N - 1], static_cast<uint32_t>(N), Bytes);
  Codec::template encode<K>(E, N, C->data(), Bytes);
  return C;
}

/// Build a chunk by running the element generator \p G once, encoding as
/// it goes: a bounded single-pass encode into per-thread scratch (capacity
/// maxGapBytes * MaxCount, an upper bound every set operation knows from
/// its input counts), then one memcpy into the exactly-sized payload.
/// \p G invokes its sink with each output element in strictly increasing
/// order; \p MaxCount must bound the number of elements it emits. Returns
/// nullptr for an empty stream. This is the zero-materialization workhorse
/// behind every chunk set operation: the payload is the only allocation,
/// and only the scratch cache's first warm-up ever touches the heap.
template <class Codec, class K, class Gen>
ChunkPayload<K> *buildChunkStreaming(size_t MaxCount, const Gen &G) {
  if (MaxCount == 0)
    return nullptr;
  size_t CapBytes = MaxCount * Codec::template maxGapBytes<K>();
  CtxArray<uint8_t> Scratch(CapBytes);
  uint8_t *Buf = Scratch.data();
  uint8_t *Out = Buf;
  uint32_t N = 0;
  K First{}, Prev{};
  G([&](K V) {
    assert((N == 0 || Prev < V) && "stream must be strictly increasing");
    if (N)
      Out = Codec::template encodeGap<K>(Prev, V, Out);
    else
      First = V;
    Prev = V;
    ++N;
  });
  assert(N <= MaxCount && "generator exceeded its element bound");
  assert(size_t(Out - Buf) <= CapBytes && "encode overran the gap bound");
  ChunkPayload<K> *C = nullptr;
  if (N) {
    size_t Bytes = static_cast<size_t>(Out - Buf);
    C = detail::allocChunk(First, Prev, N, Bytes);
    std::memcpy(C->data(), Buf, Bytes);
  }
  return C;
}

template <class K> uint32_t chunkCount(const ChunkPayload<K> *C) {
  return C ? C->Count : 0;
}

template <class K> size_t chunkBytes(const ChunkPayload<K> *C) {
  return C ? sizeof(ChunkPayload<K>) + C->Bytes : 0;
}

/// Append the chunk's elements to \p Out (test/compat helper; hot paths
/// use cursors or decodeChunkTo into scratch).
template <class Codec, class K>
void decodeChunk(const ChunkPayload<K> *C, std::vector<K> &Out) {
  if (!C)
    return;
  Out.reserve(Out.size() + C->Count);
  Codec::template iterate<K>(C, [&](K V) {
    Out.push_back(V);
    return true;
  });
}

/// Decode into a caller-provided buffer of capacity >= chunkCount(C);
/// returns the element count.
template <class Codec, class K>
size_t decodeChunkTo(const ChunkPayload<K> *C, K *Out) {
  size_t N = 0;
  for (typename Codec::template Cursor<K> Cu(C); !Cu.done(); Cu.advance())
    Out[N++] = Cu.value();
  return N;
}

/// Membership test. Header bounds give O(1) answers at both ends (First
/// and Last symmetric); otherwise a lower-bound seek: O(log b) for raw
/// chunks, early-exiting scan for delta chunks.
template <class Codec, class K>
bool chunkContains(const ChunkPayload<K> *C, K X) {
  if (!C || X < C->First || X > C->Last)
    return false;
  if (X == C->First || X == C->Last)
    return true;
  typename Codec::template Cursor<K> Cu(C);
  Cu.seekLowerBound(X);
  return !Cu.done() && Cu.value() == X;
}

//===----------------------------------------------------------------------===
// Streaming reference merges: the element-at-a-time cursor merges (every
// gap re-encoded). The run-copy implementations below produce
// byte-identical payloads; these remain as the differential-test oracle
// and the bench baseline.
//===----------------------------------------------------------------------===

/// unionChunks, element at a time (no byte concatenation or run copy).
template <class Codec, class K>
ChunkPayload<K> *unionChunksStreaming(const ChunkPayload<K> *A,
                                      const ChunkPayload<K> *B) {
  if (!A || !B) {
    auto *R = const_cast<ChunkPayload<K> *>(A ? A : B);
    retainChunk(R);
    return R;
  }
  return buildChunkStreaming<Codec, K>(
      size_t(A->Count) + B->Count, [&](auto &&Sink) {
        detail::mergeUnion(typename Codec::template Cursor<K>(A),
                           typename Codec::template Cursor<K>(B), Sink);
      });
}

/// unionChunkSpan, element at a time.
template <class Codec, class K>
ChunkPayload<K> *unionChunkSpanStreaming(const ChunkPayload<K> *A,
                                         const K *B, size_t NB) {
  if (NB == 0) {
    auto *R = const_cast<ChunkPayload<K> *>(A);
    retainChunk(R);
    return R;
  }
  if (!A)
    return makeChunk<Codec>(B, NB);
  return buildChunkStreaming<Codec, K>(A->Count + NB, [&](auto &&Sink) {
    detail::mergeUnion(typename Codec::template Cursor<K>(A),
                       SpanCursor<K>(B, NB), Sink);
  });
}

/// chunkMinus (span subtrahend), element at a time.
template <class Codec, class K>
ChunkPayload<K> *chunkMinusStreaming(const ChunkPayload<K> *A,
                                     const K *Sub, size_t NSub) {
  if (!A)
    return nullptr;
  return buildChunkStreaming<Codec, K>(A->Count, [&](auto &&Sink) {
    detail::mergeMinus(typename Codec::template Cursor<K>(A),
                       SpanCursor<K>(Sub, NSub), Sink);
  });
}

/// chunkMinusChunk, element at a time.
template <class Codec, class K>
ChunkPayload<K> *chunkMinusChunkStreaming(const ChunkPayload<K> *A,
                                          const ChunkPayload<K> *Sub) {
  if (!A)
    return nullptr;
  return buildChunkStreaming<Codec, K>(A->Count, [&](auto &&Sink) {
    detail::mergeMinus(typename Codec::template Cursor<K>(A),
                       typename Codec::template Cursor<K>(Sub), Sink);
  });
}

/// chunkIntersect (span), element at a time.
template <class Codec, class K>
ChunkPayload<K> *chunkIntersectStreaming(const ChunkPayload<K> *A,
                                         const K *Keep, size_t NKeep) {
  if (!A || NKeep == 0)
    return nullptr;
  return buildChunkStreaming<Codec, K>(
      A->Count < NKeep ? A->Count : uint32_t(NKeep), [&](auto &&Sink) {
        detail::mergeIntersect(typename Codec::template Cursor<K>(A),
                               SpanCursor<K>(Keep, NKeep), Sink);
      });
}

//===----------------------------------------------------------------------===
// Run-copy set operations (the defaults).
//===----------------------------------------------------------------------===

/// Merge two sorted chunks, removing duplicates. One pass per side; no
/// decoded intermediates. Disjoint ordered ranges (the common case when a
/// tail meets the next subtree's prefix) degrade to byte concatenation;
/// overlapping ranges copy maximal non-interleaved encoded runs between
/// switch points and re-encode only the first gap after each switch.
template <class Codec, class K>
ChunkPayload<K> *unionChunks(const ChunkPayload<K> *A,
                             const ChunkPayload<K> *B) {
  if (!A) {
    auto *R = const_cast<ChunkPayload<K> *>(B);
    retainChunk(R);
    return R;
  }
  if (!B) {
    auto *R = const_cast<ChunkPayload<K> *>(A);
    retainChunk(R);
    return R;
  }
  if (B->Last < A->First)
    std::swap(A, B);
  if (A->Last < B->First) {
    // Disjoint: A's bytes, the bridging gap, B's first-element gap
    // re-encoded, B's remaining bytes... B's encoding after its first
    // element is position-independent, so only the A.Last -> B.First gap
    // is new.
    size_t Gap = Codec::template gapBytes<K>(A->Last, B->First);
    size_t Bytes = size_t(A->Bytes) + Gap + B->Bytes;
    ChunkPayload<K> *C =
        detail::allocChunk(A->First, B->Last, A->Count + B->Count, Bytes);
    uint8_t *Out = C->data();
    std::memcpy(Out, A->data(), A->Bytes);
    Out += A->Bytes;
    Out = Codec::template encodeGap<K>(A->Last, B->First, Out);
    std::memcpy(Out, B->data(), B->Bytes);
    return C;
  }
  using Cur = typename Codec::template Cursor<K>;
  size_t MaxCount = size_t(A->Count) + B->Count;
  CtxArray<uint8_t> Buf(MaxCount * Codec::template maxGapBytes<K>());
  detail::RunEmitter<Codec, K> Em(Buf.data());
  Cur CA(A), CB(B);
  // Adaptive run tracking: if the first stretch of output shows the
  // inputs are element-interleaved (average run barely above 1), the
  // per-run bookkeeping cannot pay for itself - finish the overlap with
  // a plain streaming merge. Long drains below still move bytes.
  uint32_t RunStarts = 0;
  bool Probing = true;
  while (!CA.done() && !CB.done()) {
    if (Probing && Em.count() >= 64) {
      Probing = false;
      if (uint64_t(RunStarts) * 2 > uint64_t(Em.count())) {
        while (!CA.done() && !CB.done()) {
          K VA = CA.value(), VB = CB.value();
          if (VA < VB) {
            Em.emit(VA);
            CA.advance();
          } else if (VB < VA) {
            Em.emit(VB);
            CB.advance();
          } else {
            Em.emit(VA);
            CA.advance();
            CB.advance();
          }
        }
        break;
      }
    }
    K VA = CA.value(), VB = CB.value();
    if (VA == VB) {
      Em.emit(VA);
      CA.advance();
      CB.advance();
    } else if (VA < VB) {
      ++RunStarts;
      detail::copyRunBelow(Em, CA, A, VB);
    } else {
      ++RunStarts;
      detail::copyRunBelow(Em, CB, B, VA);
    }
  }
  if (!CA.done())
    detail::drainRun(Em, CA, A);
  if (!CB.done())
    detail::drainRun(Em, CB, B);
  return detail::finishRunCopy(Em, Buf.data());
}

/// Union of chunk \p A with the sorted, duplicate-free span \p B. Runs of
/// consecutive A elements are byte-copied; span elements (no encoding to
/// reuse) are encoded as they interleave.
template <class Codec, class K>
ChunkPayload<K> *unionChunkSpan(const ChunkPayload<K> *A, const K *B,
                                size_t NB) {
  if (NB == 0) {
    auto *R = const_cast<ChunkPayload<K> *>(A);
    retainChunk(R);
    return R;
  }
  if (!A)
    return makeChunk<Codec>(B, NB);
  using Cur = typename Codec::template Cursor<K>;
  CtxArray<uint8_t> Buf((A->Count + NB) * Codec::template maxGapBytes<K>());
  detail::RunEmitter<Codec, K> Em(Buf.data());
  Cur CA(A);
  SpanCursor<K> CB(B, NB);
  // Same adaptive probe as unionChunks: when batch elements interleave
  // the chunk element-wise, run tracking cannot pay for itself.
  uint32_t RunStarts = 0;
  bool Probing = true;
  while (!CA.done() && !CB.done()) {
    if (Probing && Em.count() >= 64) {
      Probing = false;
      if (uint64_t(RunStarts) * 2 > uint64_t(Em.count())) {
        while (!CA.done() && !CB.done()) {
          K VA = CA.value(), VB = CB.value();
          if (VA < VB) {
            Em.emit(VA);
            CA.advance();
          } else if (VB < VA) {
            Em.emit(VB);
            CB.advance();
          } else {
            Em.emit(VA);
            CA.advance();
            CB.advance();
          }
        }
        break;
      }
    }
    K VA = CA.value(), VB = CB.value();
    if (VA == VB) {
      Em.emit(VA);
      CA.advance();
      CB.advance();
    } else if (VA < VB) {
      ++RunStarts;
      detail::copyRunBelow(Em, CA, A, VB);
    } else {
      Em.emit(VB);
      CB.advance();
    }
  }
  if (!CA.done())
    detail::drainRun(Em, CA, A);
  for (; !CB.done(); CB.advance())
    Em.emit(CB.value());
  return detail::finishRunCopy(Em, Buf.data());
}

namespace detail {

/// Shared run-copy body of the two chunkMinus flavors: \p B is any
/// cursor-concept reader over the subtrahend (span or chunk).
template <class Codec, class K, class CB>
ChunkPayload<K> *chunkMinusRunCopy(const ChunkPayload<K> *A, CB B) {
  using Cur = typename Codec::template Cursor<K>;
  CtxArray<uint8_t> Buf(size_t(A->Count) *
                        Codec::template maxGapBytes<K>());
  RunEmitter<Codec, K> Em(Buf.data());
  Cur CA(A);
  // Same adaptive probe as unionChunks: bail to a plain streaming loop
  // when the kept stretches turn out to be single elements.
  uint32_t RunStarts = 0;
  bool Probing = true;
  while (!CA.done()) {
    if (B.done()) {
      drainRun(Em, CA, A);
      break;
    }
    if (Probing && Em.count() >= 64) {
      Probing = false;
      if (uint64_t(RunStarts) * 2 > uint64_t(Em.count())) {
        while (!CA.done() && !B.done()) {
          K VA = CA.value(), VB = B.value();
          if (VA > VB) {
            B.advance();
          } else if (VA == VB) {
            CA.advance();
            B.advance();
          } else {
            Em.emit(VA);
            CA.advance();
          }
        }
        continue; // back to the outer loop for the B-exhausted drain
      }
    }
    K VA = CA.value(), VB = B.value();
    if (VA > VB) {
      B.advance();
    } else if (VA == VB) {
      CA.advance();
      B.advance();
    } else {
      // The kept stretch below the next subtrahend hit.
      ++RunStarts;
      copyRunBelow(Em, CA, A, VB);
    }
  }
  return finishRunCopy(Em, Buf.data());
}

/// Shared run-copy body of chunkIntersect: consecutive matches are
/// contiguous in A's encoding, so each match run after its first element
/// is one memcpy.
template <class Codec, class K, class CB>
ChunkPayload<K> *chunkIntersectRunCopy(const ChunkPayload<K> *A, CB B,
                                       size_t MaxCount) {
  using Cur = typename Codec::template Cursor<K>;
  CtxArray<uint8_t> Buf(MaxCount * Codec::template maxGapBytes<K>());
  RunEmitter<Codec, K> Em(Buf.data());
  Cur CA(A);
  // Same adaptive probe as unionChunks: single-element match runs cannot
  // pay for their bookkeeping.
  uint32_t RunStarts = 0;
  bool Probing = true;
  while (!CA.done() && !B.done()) {
    if (Probing && Em.count() >= 64) {
      Probing = false;
      if (uint64_t(RunStarts) * 2 > uint64_t(Em.count())) {
        while (!CA.done() && !B.done()) {
          K VA = CA.value(), VB = B.value();
          if (VA < VB) {
            CA.advance();
          } else if (VB < VA) {
            B.advance();
          } else {
            Em.emit(VA);
            CA.advance();
            B.advance();
          }
        }
        break;
      }
    }
    K VA = CA.value(), VB = B.value();
    if (VA < VB) {
      CA.advance();
    } else if (VB < VA) {
      B.advance();
    } else {
      // A match run: consecutive matches are contiguous in A's encoding.
      ++RunStarts;
      Em.emit(VA);
      size_t Start = CA.byteOffset();
      size_t End = Start;
      K LastV = VA;
      uint32_t Extra = 0;
      CA.advance();
      B.advance();
      while (!CA.done() && !B.done() && CA.value() == B.value()) {
        LastV = CA.value();
        End = CA.byteOffset();
        ++Extra;
        CA.advance();
        B.advance();
      }
      if (Extra)
        Em.copyRun(A->data() + Start, End - Start, Extra, LastV);
    }
  }
  return finishRunCopy(Em, Buf.data());
}

} // namespace detail

/// Elements of \p A not in the sorted span \p Sub. Kept stretches between
/// subtrahend hits are byte-copied.
template <class Codec, class K>
ChunkPayload<K> *chunkMinus(const ChunkPayload<K> *A, const K *Sub,
                            size_t NSub) {
  if (!A)
    return nullptr;
  if (NSub == 0 || Sub[NSub - 1] < A->First || Sub[0] > A->Last) {
    auto *R = const_cast<ChunkPayload<K> *>(A);
    retainChunk(R);
    return R;
  }
  return detail::chunkMinusRunCopy<Codec, K>(A, SpanCursor<K>(Sub, NSub));
}

template <class Codec, class K>
ChunkPayload<K> *chunkMinus(const ChunkPayload<K> *A,
                            const std::vector<K> &Sub) {
  return chunkMinus<Codec>(A, Sub.data(), Sub.size());
}

/// Elements of \p A not in chunk \p Sub; both sides stream.
template <class Codec, class K>
ChunkPayload<K> *chunkMinusChunk(const ChunkPayload<K> *A,
                                 const ChunkPayload<K> *Sub) {
  if (!A)
    return nullptr;
  if (!Sub || Sub->Last < A->First || Sub->First > A->Last) {
    auto *R = const_cast<ChunkPayload<K> *>(A);
    retainChunk(R);
    return R;
  }
  return detail::chunkMinusRunCopy<Codec, K>(
      A, typename Codec::template Cursor<K>(Sub));
}

/// Elements of \p A also present in the sorted span \p Keep.
template <class Codec, class K>
ChunkPayload<K> *chunkIntersect(const ChunkPayload<K> *A, const K *Keep,
                                size_t NKeep) {
  if (!A || NKeep == 0 || Keep[NKeep - 1] < A->First ||
      Keep[0] > A->Last)
    return nullptr;
  return detail::chunkIntersectRunCopy<Codec, K>(
      A, SpanCursor<K>(Keep, NKeep),
      A->Count < NKeep ? A->Count : size_t(NKeep));
}

template <class Codec, class K>
ChunkPayload<K> *chunkIntersect(const ChunkPayload<K> *A,
                                const std::vector<K> &Keep) {
  return chunkIntersect<Codec>(A, Keep.data(), Keep.size());
}

struct ChunkSplit {
  void *Left = nullptr;  ///< ChunkPayload<K>* of elements < key
  void *Right = nullptr; ///< ChunkPayload<K>* of elements > key
  bool Found = false;    ///< Key was present (excluded from both sides)
};

/// Split \p C around \p Key into (elements < Key, found, elements > Key).
/// A lower-bound seek (binary search for raw chunks, byte-offset-tracking
/// scan for delta chunks) locates the boundary; both halves are then
/// byte slices of the original encoding - no re-encoding.
template <class Codec, class K>
ChunkSplit splitChunk(const ChunkPayload<K> *C, K Key) {
  ChunkSplit S;
  if (!C)
    return S;
  if (Key < C->First) {
    retainChunk(const_cast<ChunkPayload<K> *>(C));
    S.Right = const_cast<ChunkPayload<K> *>(C);
    return S;
  }
  if (Key > C->Last) {
    retainChunk(const_cast<ChunkPayload<K> *>(C));
    S.Left = const_cast<ChunkPayload<K> *>(C);
    return S;
  }
  typename Codec::template Cursor<K> Cu(C);
  Cu.seekLowerBound(Key);
  uint32_t LoCount = C->Count - Cu.remaining(); // elements strictly < Key
  S.Found = !Cu.done() && Cu.value() == Key;
  if (LoCount > 0)
    S.Left = detail::sliceChunk(C->First, Cu.prevValue(), LoCount,
                                C->data(), Cu.prevByteOffset());
  if (S.Found)
    Cu.advance();
  if (!Cu.done()) {
    size_t Off = Cu.byteOffset();
    S.Right = detail::sliceChunk(Cu.value(), C->Last, Cu.remaining(),
                                 C->data() + Off, C->Bytes - Off);
  }
  return S;
}

/// RAII reference to a chunk payload; the C-tree's node value type.
template <class K> class ChunkRef {
public:
  ChunkRef() = default;
  /// Adopts one reference on \p C.
  explicit ChunkRef(ChunkPayload<K> *C) : C(C) {}

  ChunkRef(const ChunkRef &O) : C(O.C) { retainChunk(C); }
  ChunkRef(ChunkRef &&O) noexcept : C(O.C) { O.C = nullptr; }
  ChunkRef &operator=(const ChunkRef &O) {
    if (this != &O) {
      retainChunk(O.C);
      releaseChunk(C);
      C = O.C;
    }
    return *this;
  }
  ChunkRef &operator=(ChunkRef &&O) noexcept {
    if (this != &O) {
      releaseChunk(C);
      C = O.C;
      O.C = nullptr;
    }
    return *this;
  }
  ~ChunkRef() { releaseChunk(C); }

  ChunkPayload<K> *get() const { return C; }
  ChunkPayload<K> *take() {
    ChunkPayload<K> *R = C;
    C = nullptr;
    return R;
  }
  uint32_t count() const { return chunkCount(C); }

private:
  ChunkPayload<K> *C = nullptr;
};

} // namespace aspen

#endif // ASPEN_CTREE_CHUNK_H
