//===- bench/bench_chunk_ops.cpp - Chunk-operation microbenchmark ---------===//
//
// Measures the chunk-layer hot paths:
//
//  * Set operations (union / minus / split / contains) against naive
//    decode-to-vector reference implementations equivalent to the seed
//    code, reporting throughput and allocations per operation.
//  * Sequential decode throughput: the scalar element-at-a-time Cursor
//    (one varint decode per next()) vs the block-decoded bulk iterate
//    (SSSE3 shuffle-table / SWAR tiers, encoding/varint_block.h), across
//    gap regimes from 1-byte codes (dense chunks) to 2-4 byte codes
//    (large-graph adjacency), over a streaming working set of many
//    chunks.
//  * Run-copy merges: byte-copy union/minus/intersect (the defaults) vs
//    the element-at-a-time streaming merges, across run-length patterns
//    from fully interleaved (run 1, the byte-copy worst case) to long
//    runs and disjoint ranges (where drains skip decode + re-encode
//    entirely).
//
// Allocation accounting: a global operator new/delete override counts
// heap allocation *events* (this is what the std::vector temporaries of
// the naive path hit), countedAllocEvents() counts chunk payload
// allocations, and scratchAllocEvents() counts scratch-cache misses.
//
//   -count <n>     elements per chunk (default 128, the paper's b)
//   -pairs <n>     number of chunk pairs (default 1024)
//   -rounds <r>    timing repetitions (default 3)
//   -json <path>   write every reported metric to <path> as flat JSON
//                  (one "metric": value per line) for cross-PR tracking
//   -compare <path> load a previous -json file and print before/after
//                  ratios next to each metric
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "ctree/chunk.h"
#include "ctree/ctree.h"
#include "encoding/byte_code.h"
#include "encoding/varint_block.h"
#include "graph/hybrid_set.h"
#include "util/hash.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <string>
#include <vector>

static std::atomic<uint64_t> GHeapAllocs{0};

void *operator new(std::size_t N) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
// Every delete form funnels into one out-of-line unsized delete: inlined
// into a caller, free() would meet a pointer the compiler knows came from
// operator new, and g++ reports -Wmismatched-new-delete.
__attribute__((noinline)) void operator delete(void *P) noexcept {
  std::free(P);
}
void operator delete[](void *P) noexcept { ::operator delete(P); }
void operator delete(void *P, std::size_t) noexcept { ::operator delete(P); }
void operator delete[](void *P, std::size_t) noexcept {
  ::operator delete(P);
}

using namespace aspen;

namespace {

using P32 = ChunkPayload<uint32_t>;

// Metric collection (-json / -compare) lives in bench_common.h
// (recordMetric / compareSuffix / loadBenchBaseline / writeBenchJson),
// shared with bench_concurrent.

//===----------------------------------------------------------------------===
// Naive reference implementations (the seed's decode-to-vector shape).
//===----------------------------------------------------------------------===

template <class Codec> P32 *naiveUnion(const P32 *A, const P32 *B) {
  std::vector<uint32_t> EA, EB;
  decodeChunk<Codec>(A, EA);
  decodeChunk<Codec>(B, EB);
  std::vector<uint32_t> Out;
  Out.reserve(EA.size() + EB.size());
  std::set_union(EA.begin(), EA.end(), EB.begin(), EB.end(),
                 std::back_inserter(Out));
  return makeChunk<Codec>(Out.data(), Out.size());
}

template <class Codec>
P32 *naiveMinus(const P32 *A, const uint32_t *Sub, size_t NSub) {
  std::vector<uint32_t> EA;
  decodeChunk<Codec>(A, EA);
  std::vector<uint32_t> Out;
  Out.reserve(EA.size());
  std::set_difference(EA.begin(), EA.end(), Sub, Sub + NSub,
                      std::back_inserter(Out));
  return makeChunk<Codec>(Out.data(), Out.size());
}

template <class Codec> ChunkSplit naiveSplit(const P32 *C, uint32_t Key) {
  ChunkSplit S;
  if (!C)
    return S;
  std::vector<uint32_t> E;
  decodeChunk<Codec>(C, E);
  size_t Lo = size_t(std::lower_bound(E.begin(), E.end(), Key) - E.begin());
  size_t Hi = Lo;
  if (Hi < E.size() && E[Hi] == Key) {
    S.Found = true;
    ++Hi;
  }
  S.Left = makeChunk<Codec>(E.data(), Lo);
  S.Right = makeChunk<Codec>(E.data() + Hi, E.size() - Hi);
  return S;
}

//===----------------------------------------------------------------------===
// Harness.
//===----------------------------------------------------------------------===

struct AllocStats {
  uint64_t Heap;
  uint64_t Counted;
  uint64_t Scratch;
};

AllocStats snapshotAllocs() {
  return {GHeapAllocs.load(std::memory_order_relaxed),
          countedAllocEvents(), scratchAllocEvents()};
}

struct OpReport {
  double Seconds;
  AllocStats Delta;
  uint64_t Ops;
};

template <class F> OpReport measure(int Rounds, uint64_t Ops, const F &Fn) {
  // Warm-up pass populates scratch caches and vector allocator pools.
  Fn();
  AllocStats Before = snapshotAllocs();
  double Best = 1e30;
  for (int R = 0; R < Rounds; ++R) {
    double T = timeIt(Fn);
    if (T < Best)
      Best = T;
  }
  AllocStats After = snapshotAllocs();
  uint64_t TotalOps = Ops * uint64_t(Rounds);
  return {Best,
          {(After.Heap - Before.Heap) / uint64_t(Rounds),
           (After.Counted - Before.Counted) / uint64_t(Rounds),
           (After.Scratch - Before.Scratch) / uint64_t(Rounds)},
          TotalOps};
}

void printRow(const std::string &Scope, const char *Op, const char *Impl,
              const OpReport &R, uint64_t OpsPerRound) {
  double Rate = double(OpsPerRound) / R.Seconds;
  std::string Key = Scope + "/" + Op + "/" + Impl + "_ops_s";
  recordMetric(Key, Rate);
  recordMetric(Scope + "/" + Op + "/" + Impl + "_allocs_op",
               double(R.Delta.Heap + R.Delta.Counted + R.Delta.Scratch) /
                   double(OpsPerRound));
  std::printf("  %-10s %-9s %10s   %7.2f allocs/op (heap %6.2f, "
              "payload %6.2f, scratch %g)%s\n",
              Op, Impl, fmtRate(Rate).c_str(),
              double(R.Delta.Heap + R.Delta.Counted + R.Delta.Scratch) /
                  double(OpsPerRound),
              double(R.Delta.Heap) / double(OpsPerRound),
              double(R.Delta.Counted) / double(OpsPerRound),
              double(R.Delta.Scratch) / double(OpsPerRound),
              compareSuffix(Key, Rate).c_str());
}

void printRateRow(const std::string &Scope, const char *Op,
                  const char *Impl, double Rate, const char *Unit) {
  std::string Key = Scope + "/" + Op + "/" + std::string(Impl) + "_" + Unit;
  recordMetric(Key, Rate);
  std::printf("  %-10s %-9s %10s %s%s\n", Op, Impl, fmtRate(Rate).c_str(),
              Unit, compareSuffix(Key, Rate).c_str());
}

template <class Codec> void runCodec(size_t Count, size_t Pairs, int Rounds) {
  std::printf("\ncodec %s, %zu elements/chunk, %zu pairs:\n", Codec::Name,
              Count, Pairs);
  std::string Scope =
      std::string(Codec::Name) + std::to_string(Count);

  // Overlapping sorted-unique element sets per pair.
  std::vector<P32 *> As(Pairs), Bs(Pairs);
  std::vector<std::vector<uint32_t>> Spans(Pairs);
  for (size_t P = 0; P < Pairs; ++P) {
    auto Make = [&](uint64_t Seed) {
      std::vector<uint32_t> E(Count);
      for (size_t I = 0; I < Count; ++I)
        E[I] = uint32_t(hashAt(Seed, I) % (Count * 8));
      std::sort(E.begin(), E.end());
      E.erase(std::unique(E.begin(), E.end()), E.end());
      return E;
    };
    auto EA = Make(2 * P);
    auto EB = Make(2 * P + 1);
    As[P] = makeChunk<Codec>(EA.data(), EA.size());
    Bs[P] = makeChunk<Codec>(EB.data(), EB.size());
    Spans[P] = EB;
  }

  OpReport R;
  auto Run = [&](auto &&Fn) { return measure(Rounds, Pairs, Fn); };

  R = Run([&] {
    for (size_t P = 0; P < Pairs; ++P)
      releaseChunk(naiveUnion<Codec>(As[P], Bs[P]));
  });
  printRow(Scope, "union", "naive", R, Pairs);
  R = Run([&] {
    for (size_t P = 0; P < Pairs; ++P)
      releaseChunk(unionChunks<Codec>(As[P], Bs[P]));
  });
  printRow(Scope, "union", "runcopy", R, Pairs);

  R = Run([&] {
    for (size_t P = 0; P < Pairs; ++P)
      releaseChunk(
          naiveMinus<Codec>(As[P], Spans[P].data(), Spans[P].size()));
  });
  printRow(Scope, "minus", "naive", R, Pairs);
  R = Run([&] {
    for (size_t P = 0; P < Pairs; ++P)
      releaseChunk(
          chunkMinus<Codec>(As[P], Spans[P].data(), Spans[P].size()));
  });
  printRow(Scope, "minus", "runcopy", R, Pairs);

  auto SplitKey = [&](size_t P) {
    return As[P]->First + uint32_t(hashAt(7, P) % (As[P]->Last -
                                                   As[P]->First + 1));
  };
  R = Run([&] {
    for (size_t P = 0; P < Pairs; ++P) {
      ChunkSplit S = naiveSplit<Codec>(As[P], SplitKey(P));
      releaseChunk(static_cast<P32 *>(S.Left));
      releaseChunk(static_cast<P32 *>(S.Right));
    }
  });
  printRow(Scope, "split", "naive", R, Pairs);
  R = Run([&] {
    for (size_t P = 0; P < Pairs; ++P) {
      ChunkSplit S = splitChunk<Codec>(As[P], SplitKey(P));
      releaseChunk(static_cast<P32 *>(S.Left));
      releaseChunk(static_cast<P32 *>(S.Right));
    }
  });
  printRow(Scope, "split", "cursor", R, Pairs);

  // Contains: no allocation either way; throughput only.
  uint64_t Probes = Pairs * 64;
  std::atomic<uint64_t> Sink{0};
  R = measure(Rounds, Probes, [&] {
    uint64_t Hits = 0;
    for (size_t P = 0; P < Pairs; ++P)
      for (size_t I = 0; I < 64; ++I)
        Hits += chunkContains<Codec>(As[P], uint32_t(hashAt(9, P * 64 + I) %
                                                     (Count * 8)));
    Sink += Hits;
  });
  printRow(Scope, "contains", "cursor", R, Probes);

  for (size_t P = 0; P < Pairs; ++P) {
    releaseChunk(As[P]);
    releaseChunk(Bs[P]);
  }
}

//===----------------------------------------------------------------------===
// C-tree batch base cases (unionBC/diffBC): the whole merge must allocate
// only the output payloads and tree nodes — the head-routing updates
// buffer and the decoded batch live in borrowed scratch, so the heap
// column must stay at ~0 allocs/op and scratch at ~0 misses/op after
// warm-up.
//===----------------------------------------------------------------------===

template <class Codec>
void runCtreeBatchOps(size_t Count, size_t Pairs, int Rounds) {
  using CT = CTreeSet<uint32_t, Codec>;
  std::printf("\nctree batch ops (scratch-routed unionBC/diffBC), %zu "
              "elems/base, %zu batch, %zu pairs:\n",
              Count * 8, Count * 2, Pairs);
  std::string Scope = std::string("ctree-batch-") + Codec::Name;

  std::vector<CT> Bases(Pairs), Batches(Pairs), Dels(Pairs);
  for (size_t P = 0; P < Pairs; ++P) {
    auto Make = [&](uint64_t Seed, size_t N, uint64_t Range) {
      std::vector<uint32_t> E(N);
      for (size_t I = 0; I < N; ++I)
        E[I] = uint32_t(hashAt(Seed, I) % Range);
      return CT::fromUnsorted(std::move(E));
    };
    Bases[P] = Make(3 * P, Count * 8, Count * 64);
    // Batch concentrated in a window: few heads, big groups (the shape
    // the grouped routing targets).
    Batches[P] = Make(3 * P + 1, Count * 2, Count * 8);
    Dels[P] = CT::setIntersect(Bases[P], Make(3 * P + 2, Count * 4,
                                              Count * 64));
  }

  OpReport R = measure(Rounds, Pairs, [&] {
    for (size_t P = 0; P < Pairs; ++P) {
      CT Out = CT::setUnion(Bases[P], Batches[P]);
      (void)Out;
    }
  });
  printRow(Scope, "union", "grouped", R, Pairs);
  recordMetric(Scope + "/union/grouped_heap_allocs_op",
               double(R.Delta.Heap) / double(Pairs));

  R = measure(Rounds, Pairs, [&] {
    for (size_t P = 0; P < Pairs; ++P) {
      CT Out = CT::setDifference(Bases[P], Dels[P]);
      (void)Out;
    }
  });
  printRow(Scope, "minus", "grouped", R, Pairs);
  recordMetric(Scope + "/minus/grouped_heap_allocs_op",
               double(R.Delta.Heap) / double(Pairs));
}

//===----------------------------------------------------------------------===
// Sequential decode throughput: scalar Cursor vs block-decoded iterate,
// across gap regimes, over a streaming working set of many chunks (graph
// traversals stream every chunk once; nothing stays cache-hot).
//===----------------------------------------------------------------------===

void runDecode(size_t Count, size_t Chunks, int Rounds) {
  struct Regime {
    const char *Name;
    uint64_t GapScale; ///< avg gap ~ GapScale -> code width regime
  };
  const Regime Regimes[] = {
      {"gap8", 8},         // 1-byte codes (dense neighborhoods)
      {"gap300", 300},     // 1-2 byte mix (mid-size graphs)
      {"gap40k", 40000},   // 2-3 byte mix (large graphs)
  };
  std::printf("\nsequential decode, %zu elements/chunk, %zu chunks "
              "(tier %s):\n",
              Count, Chunks, blockDecodeTierName());
  for (const Regime &Rg : Regimes) {
    std::vector<P32 *> Cs;
    size_t TotalElems = 0;
    for (size_t C = 0; C < Chunks; ++C) {
      std::vector<uint32_t> E(Count);
      for (size_t I = 0; I < Count; ++I)
        E[I] = uint32_t(hashAt(C * 31 + 7, I) % (Count * Rg.GapScale));
      std::sort(E.begin(), E.end());
      E.erase(std::unique(E.begin(), E.end()), E.end());
      TotalElems += E.size();
      Cs.push_back(makeChunk<DeltaByteCodec>(E.data(), E.size()));
    }
    std::atomic<uint64_t> Sink{0};
    OpReport R = measure(Rounds, TotalElems, [&] {
      uint64_t Acc = 0;
      for (P32 *C : Cs)
        for (DeltaByteCodec::Cursor<uint32_t> Cu(C); !Cu.done();
             Cu.advance())
          Acc += Cu.value();
      Sink += Acc;
    });
    double ScalarRate = double(TotalElems) / R.Seconds;
    printRateRow("decode", Rg.Name, "scalar", ScalarRate, "elems_s");
    R = measure(Rounds, TotalElems, [&] {
      uint64_t Acc = 0;
      for (P32 *C : Cs)
        DeltaByteCodec::iterate<uint32_t>(C, [&](uint32_t V) {
          Acc += V;
          return true;
        });
      Sink += Acc;
    });
    double BlockRate = double(TotalElems) / R.Seconds;
    printRateRow("decode", Rg.Name, "block", BlockRate, "elems_s");
    std::printf("  %-10s ratio  %20.2fx block/scalar\n", Rg.Name,
                BlockRate / ScalarRate);
    recordMetric(std::string("decode/") + Rg.Name + "/ratio",
                 BlockRate / ScalarRate);
    for (P32 *C : Cs)
      releaseChunk(C);
  }
}

//===----------------------------------------------------------------------===
// Run-copy merges vs streaming merges across run-length patterns. Run
// length R: elements alternate between the two inputs in value-contiguous
// blocks of R, so the encoded runs the byte-copy merge can move grow with
// R ("disjoint" = one switch point; the byte-concat fast path).
//===----------------------------------------------------------------------===

void expectSame(const P32 *X, const P32 *Y, const char *What) {
  bool Same = (!X && !Y) ||
              (X && Y && X->Count == Y->Count && X->Bytes == Y->Bytes &&
               X->First == Y->First && X->Last == Y->Last &&
               std::memcmp(X->data(), Y->data(), X->Bytes) == 0);
  if (!Same) {
    std::fprintf(stderr, "FATAL: %s: run-copy and streaming merges "
                         "disagree\n",
                 What);
    std::exit(1);
  }
}

void runMergePatterns(size_t Count, size_t Pairs, int Rounds) {
  std::printf("\nrun-copy merges vs streaming, %zu elements/side, %zu "
              "pairs:\n",
              Count, Pairs);
  const size_t RunLens[] = {1, 16, 64};
  for (size_t RL : RunLens) {
    std::string Scope = "merge-run" + std::to_string(RL);
    std::vector<P32 *> As(Pairs), Bs(Pairs);
    for (size_t P = 0; P < Pairs; ++P) {
      std::vector<uint32_t> EA, EB;
      uint32_t V = uint32_t(P * 7);
      for (size_t I = 0; EA.size() < Count || EB.size() < Count; ++I) {
        bool ToA = (I / RL) % 2 == 0;
        V += 1 + uint32_t(hashAt(P, I) % 600); // mixed 1-2 byte gaps
        if (ToA && EA.size() < Count)
          EA.push_back(V);
        else if (!ToA && EB.size() < Count)
          EB.push_back(V);
      }
      As[P] = makeChunk<DeltaByteCodec>(EA.data(), EA.size());
      Bs[P] = makeChunk<DeltaByteCodec>(EB.data(), EB.size());
    }
    // Safety: byte-identical output on this pattern.
    {
      P32 *X = unionChunks<DeltaByteCodec>(As[0], Bs[0]);
      P32 *Y = unionChunksStreaming<DeltaByteCodec>(As[0], Bs[0]);
      expectSame(X, Y, Scope.c_str());
      releaseChunk(X);
      releaseChunk(Y);
    }
    OpReport R = measure(Rounds, Pairs, [&] {
      for (size_t P = 0; P < Pairs; ++P)
        releaseChunk(unionChunksStreaming<DeltaByteCodec>(As[P], Bs[P]));
    });
    printRow(Scope, "union", "streaming", R, Pairs);
    double StreamRate = double(Pairs) / R.Seconds;
    R = measure(Rounds, Pairs, [&] {
      for (size_t P = 0; P < Pairs; ++P)
        releaseChunk(unionChunks<DeltaByteCodec>(As[P], Bs[P]));
    });
    printRow(Scope, "union", "runcopy", R, Pairs);
    double CopyRate = double(Pairs) / R.Seconds;
    std::printf("  %-10s ratio  %20.2fx runcopy/streaming\n", "union",
                CopyRate / StreamRate);
    recordMetric(Scope + "/union/ratio", CopyRate / StreamRate);
    for (size_t P = 0; P < Pairs; ++P) {
      releaseChunk(As[P]);
      releaseChunk(Bs[P]);
    }
  }

  // Sparse subtrahend: every 32nd element removed - long kept stretches
  // byte-copy; and a disjoint union (single bridge gap, byte concat).
  {
    std::vector<P32 *> As(Pairs);
    std::vector<std::vector<uint32_t>> Subs(Pairs);
    for (size_t P = 0; P < Pairs; ++P) {
      std::vector<uint32_t> E(Count);
      uint32_t V = uint32_t(P);
      for (size_t I = 0; I < Count; ++I) {
        V += 1 + uint32_t(hashAt(P, I) % 600); // mixed 1-2 byte gaps
        E[I] = V;
      }
      As[P] = makeChunk<DeltaByteCodec>(E.data(), E.size());
      for (size_t I = 0; I < Count; I += 32)
        Subs[P].push_back(E[I]);
    }
    OpReport R = measure(Rounds, Pairs, [&] {
      for (size_t P = 0; P < Pairs; ++P)
        releaseChunk(chunkMinusStreaming<DeltaByteCodec>(
            As[P], Subs[P].data(), Subs[P].size()));
    });
    printRow("merge-sparse", "minus", "streaming", R, Pairs);
    double StreamRate = double(Pairs) / R.Seconds;
    R = measure(Rounds, Pairs, [&] {
      for (size_t P = 0; P < Pairs; ++P)
        releaseChunk(chunkMinus<DeltaByteCodec>(As[P], Subs[P].data(),
                                                Subs[P].size()));
    });
    printRow("merge-sparse", "minus", "runcopy", R, Pairs);
    double CopyRate = double(Pairs) / R.Seconds;
    std::printf("  %-10s ratio  %20.2fx runcopy/streaming\n", "minus",
                CopyRate / StreamRate);
    recordMetric("merge-sparse/minus/ratio", CopyRate / StreamRate);
    for (size_t P = 0; P < Pairs; ++P)
      releaseChunk(As[P]);
  }
}

//===----------------------------------------------------------------------===
// containsEdge probes per hybrid degree class (graph/hybrid_set.h):
// inline (in-node array scan) and chunked (tree descent + chunk decode
// scan). Each row is reported twice: through the hybrid set and through
// a plain C-tree over the same elements (findLE + chunkContains).
//===----------------------------------------------------------------------===

void runHybridProbes(size_t Sets, int Rounds) {
  using HSet = HybridEdgeSetT<uint32_t, DeltaByteCodec>;
  struct ClassSpec {
    const char *Name;
    size_t Degree;
  };
  // Degrees relative to the inline capacity (8) and the default chunk
  // size (b = 128).
  const ClassSpec Classes[] = {{"inline", 8}, {"chunked", 512}};
  HybridParams HP; // defaults: LogB 7
  std::printf("\nhybrid containsEdge probes, %zu sets/class, degrees "
              "8/512 (b=128):\n",
              Sets);
  for (const ClassSpec &CS : Classes) {
    std::vector<HSet> Hs(Sets);
    std::vector<CTreeSet<uint32_t, DeltaByteCodec>> Cs(Sets);
    for (size_t S = 0; S < Sets; ++S) {
      std::vector<uint32_t> E(CS.Degree);
      for (size_t I = 0; I < CS.Degree; ++I)
        E[I] = uint32_t(hashAt(31 * S + 5, I) % (CS.Degree * 16));
      std::sort(E.begin(), E.end());
      E.erase(std::unique(E.begin(), E.end()), E.end());
      Hs[S] = HSet::buildSorted(E.data(), E.size(), HP);
      Cs[S] = CTreeSet<uint32_t, DeltaByteCodec>::buildSorted(
          E.data(), E.size(), {HP.headMask()});
    }
    uint64_t Probes = Sets * 256;
    std::atomic<uint64_t> Sink{0};
    std::string Scope = std::string("probe-") + CS.Name;
    OpReport R = measure(Rounds, Probes, [&] {
      uint64_t Hits = 0;
      for (size_t S = 0; S < Sets; ++S) {
        auto V = Hs[S].view();
        for (size_t I = 0; I < 256; ++I)
          Hits += V.contains(uint32_t(hashAt(13, S * 256 + I) %
                                      (CS.Degree * 16)));
      }
      Sink += Hits;
    });
    printRateRow(Scope, "contains", "hybrid",
                 double(Probes) / R.Seconds, "ops_s");
    double HybridRate = double(Probes) / R.Seconds;
    R = measure(Rounds, Probes, [&] {
      uint64_t Hits = 0;
      for (size_t S = 0; S < Sets; ++S) {
        auto V = Cs[S].view();
        for (size_t I = 0; I < 256; ++I)
          Hits += V.contains(uint32_t(hashAt(13, S * 256 + I) %
                                      (CS.Degree * 16)));
      }
      Sink += Hits;
    });
    printRateRow(Scope, "contains", "ctree-scan",
                 double(Probes) / R.Seconds, "ops_s");
    double ScanRate = double(Probes) / R.Seconds;
    std::printf("  %-10s ratio  %20.2fx hybrid/scan\n", CS.Name,
                HybridRate / ScanRate);
    recordMetric(Scope + "/contains/ratio", HybridRate / ScanRate);
  }
}

//===----------------------------------------------------------------------===
// Varint skip: scalar byte loop (the pre-word-at-a-time implementation)
// vs VarintCursor::skip's 8-byte-load + SWAR continuation-bit count; and
// raw block decode: scalar decodeVarint loop vs the dispatched
// decodeVarintBlock kernel.
//===----------------------------------------------------------------------===

const uint8_t *scalarSkip(const uint8_t *In, size_t N) {
  while (N > 0) {
    while (*In & 0x80)
      ++In;
    ++In;
    --N;
  }
  return In;
}

void runVarintKernels(size_t Count, size_t Streams, int Rounds) {
  std::printf("\nvarint kernels, %zu varints/stream, %zu streams (tier "
              "%s):\n",
              Count, Streams, blockDecodeTierName());
  // Per-stream encodings with hash-spread values (1..5 byte codes).
  std::vector<std::vector<uint8_t>> Bufs(Streams);
  for (size_t S = 0; S < Streams; ++S) {
    Bufs[S].resize(Count * 10);
    uint8_t *P = Bufs[S].data();
    for (size_t I = 0; I < Count; ++I)
      P = encodeVarint(hashAt(S, I) % (uint64_t(1) << 28), P);
    Bufs[S].resize(size_t(P - Bufs[S].data()));
  }
  // Each op: skip 7/8 of the stream, then decode one value (the seek
  // pattern: position, then read).
  size_t SkipN = Count - Count / 8;
  std::atomic<uint64_t> Sink{0};

  OpReport R = measure(Rounds, Streams, [&] {
    uint64_t Acc = 0;
    for (size_t S = 0; S < Streams; ++S) {
      const uint8_t *P = scalarSkip(Bufs[S].data(), SkipN);
      uint64_t V;
      decodeVarint(P, V);
      Acc += V;
    }
    Sink += Acc;
  });
  printRateRow("varint", "skip", "scalar",
               double(Streams) / R.Seconds, "ops_s");

  R = measure(Rounds, Streams, [&] {
    uint64_t Acc = 0;
    for (size_t S = 0; S < Streams; ++S) {
      VarintCursor Cu(Bufs[S].data(), Count);
      Cu.skip(SkipN);
      Acc += Cu.next();
    }
    Sink += Acc;
  });
  printRateRow("varint", "skip", "word",
               double(Streams) / R.Seconds, "ops_s");

  uint64_t TotalVals = Count * Streams;
  R = measure(Rounds, TotalVals, [&] {
    uint64_t Acc = 0;
    for (size_t S = 0; S < Streams; ++S) {
      const uint8_t *P = Bufs[S].data();
      for (size_t I = 0; I < Count; ++I) {
        uint64_t V;
        P = decodeVarint(P, V);
        Acc += V;
      }
    }
    Sink += Acc;
  });
  printRateRow("varint", "decode", "scalar",
               double(TotalVals) / R.Seconds, "vals_s");

  R = measure(Rounds, TotalVals, [&] {
    uint64_t Acc = 0;
    uint64_t Vals[64 + VarintBlockSlack];
    uint32_t EndOff[64 + VarintBlockSlack];
    for (size_t S = 0; S < Streams; ++S) {
      const uint8_t *P = Bufs[S].data();
      size_t Left = Count;
      while (Left) {
        size_t Want = Left < 64 ? Left : 64;
        size_t Got = decodeVarintBlock(P, Left, Want, Vals, EndOff, 0);
        for (size_t I = 0; I < Got; ++I)
          Acc += Vals[I];
        Left -= Got;
      }
    }
    Sink += Acc;
  });
  printRateRow("varint", "decode", "block",
               double(TotalVals) / R.Seconds, "vals_s");
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  size_t Count = size_t(CL.getInt("count", 128));
  size_t Pairs = size_t(CL.getInt("pairs", 1024));
  int Rounds = int(CL.getInt("rounds", 3));
  std::string ComparePath = CL.getString("compare");
  if (!ComparePath.empty() && !loadBenchBaseline(ComparePath))
    std::fprintf(stderr, "warning: cannot read -compare file %s\n",
                 ComparePath.c_str());

  printHeader("chunk set-operation microbenchmark");
  printEnvironment();
  std::printf("block-decode tier: %s\n", blockDecodeTierName());
  runCodec<DeltaByteCodec>(Count, Pairs, Rounds);
  runCodec<RawCodec>(Count, Pairs, Rounds);
  runCodec<DeltaByteCodec>(Count * 16, Pairs / 8 + 1, Rounds);
  runCtreeBatchOps<DeltaByteCodec>(Count, Pairs / 16 + 1, Rounds);
  runDecode(512, Pairs, Rounds);
  runMergePatterns(Count * 8, Pairs / 4 + 1, Rounds);
  runHybridProbes(Pairs / 16 + 1, Rounds);
  runVarintKernels(Count * 16, Pairs, Rounds);

  finishMetricTrail(CL, {{"_tier", blockDecodeTierName()}});
  return 0;
}
