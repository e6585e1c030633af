//===- parallel/primitives.h - Parallel sequence primitives ---------------===//
//
// Work-efficient parallel primitives built on the fork-join scheduler:
// tabulate, reduce, exclusive scan, filter/pack, parallel stable merge
// sort, and a deterministic random permutation. These match the primitives
// the paper assumes (Appendix 10.1): Scan and Filter in O(n) work and
// O(log n) depth, comparison sorting in O(n log n) work.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_PARALLEL_PRIMITIVES_H
#define ASPEN_PARALLEL_PRIMITIVES_H

#include "memory/algo_context.h"
#include "parallel/scheduler.h"
#include "util/hash.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <type_traits>
#include <vector>

namespace aspen {

/// Build a vector of length \p N whose I-th element is `Fn(I)`.
template <class F> auto tabulate(size_t N, F &&Fn) {
  using T = decltype(Fn(size_t(0)));
  std::vector<T> Out(N);
  parallelFor(0, N, [&](size_t I) { Out[I] = Fn(I); });
  return Out;
}

namespace detail {

template <class F, class T, class Combine>
T reduceRec(size_t Lo, size_t Hi, const F &Fn, T Identity,
            const Combine &Comb, size_t Grain) {
  if (Hi - Lo <= Grain) {
    T Acc = Identity;
    for (size_t I = Lo; I < Hi; ++I)
      Acc = Comb(Acc, Fn(I));
    return Acc;
  }
  size_t Mid = Lo + (Hi - Lo) / 2;
  T Left = Identity, Right = Identity;
  parallelDo([&] { Left = reduceRec(Lo, Mid, Fn, Identity, Comb, Grain); },
             [&] { Right = reduceRec(Mid, Hi, Fn, Identity, Comb, Grain); });
  return Comb(Left, Right);
}

} // namespace detail

/// Parallel reduction of `Fn(I)` for I in [0, N) under the associative
/// combiner \p Comb with identity \p Identity.
template <class F, class T, class Combine>
T reduce(size_t N, const F &Fn, T Identity, const Combine &Comb) {
  if (N == 0)
    return Identity;
  // A floor of 2048 keeps leaf tasks large enough to amortize fork costs
  // for cheap combine functions.
  size_t Grain = N / (8 * static_cast<size_t>(numWorkers())) + 1;
  if (Grain < 2048)
    Grain = 2048;
  if (Grain > 16384)
    Grain = 16384;
  return detail::reduceRec(0, N, Fn, Identity, Comb, Grain);
}

/// Sum of `Fn(I)` over [0, N).
template <class F> auto reduceSum(size_t N, const F &Fn) {
  using T = decltype(Fn(size_t(0)));
  return reduce(N, Fn, T(), std::plus<T>());
}

/// Maximum of `Fn(I)` over [0, N); returns \p Identity for N == 0.
template <class F, class T> T reduceMax(size_t N, const F &Fn, T Identity) {
  return reduce(N, Fn, Identity,
                [](const T &A, const T &B) { return A < B ? B : A; });
}

/// Exclusive in-place prefix sum of \p Data; returns the overall total.
/// Two-pass blocked algorithm: O(n) work, O(log n) depth.
template <class T> T scanExclusive(T *Data, size_t N) {
  if (N == 0)
    return T();
  size_t P = static_cast<size_t>(numWorkers());
  size_t BlockSize = std::max<size_t>(2048, (N + 4 * P - 1) / (4 * P));
  size_t NumBlocks = (N + BlockSize - 1) / BlockSize;
  if (NumBlocks <= 1) {
    T Acc = T();
    for (size_t I = 0; I < N; ++I) {
      T Tmp = Data[I];
      Data[I] = Acc;
      Acc = Acc + Tmp;
    }
    return Acc;
  }
  // Block sums live in borrowed scratch so hot loops (edgeMap offsets run
  // every round) stay heap-allocation-free.
  CtxArray<T> Sums(NumBlocks);
  parallelFor(
      0, NumBlocks,
      [&](size_t B) {
        size_t Lo = B * BlockSize, Hi = std::min(N, Lo + BlockSize);
        T Acc = T();
        for (size_t I = Lo; I < Hi; ++I)
          Acc = Acc + Data[I];
        Sums[B] = Acc;
      },
      1);
  T Total = T();
  for (size_t B = 0; B < NumBlocks; ++B) {
    T Tmp = Sums[B];
    Sums[B] = Total;
    Total = Total + Tmp;
  }
  parallelFor(
      0, NumBlocks,
      [&](size_t B) {
        size_t Lo = B * BlockSize, Hi = std::min(N, Lo + BlockSize);
        T Acc = Sums[B];
        for (size_t I = Lo; I < Hi; ++I) {
          T Tmp = Data[I];
          Data[I] = Acc;
          Acc = Acc + Tmp;
        }
      },
      1);
  return Total;
}

/// Exclusive prefix sum of a vector in place; returns the total.
template <class T> T scanExclusive(std::vector<T> &Data) {
  return scanExclusive(Data.data(), Data.size());
}

namespace detail {

/// Shared core of filterIndex/filterIndexInto: blocked count pass, scan
/// of the per-block counts (held in borrowed scratch), then an ordered
/// scatter into the destination obtained from `MakeDest(Total)` after
/// the total is known. Returns the number of kept elements.
template <class Get, class Keep, class MakeDest>
size_t blockedFilter(size_t N, const Get &GetFn, const Keep &KeepFn,
                     const MakeDest &MakeDestFn) {
  size_t P = static_cast<size_t>(numWorkers());
  size_t BlockSize = std::max<size_t>(2048, (N + 4 * P - 1) / (4 * P));
  size_t NumBlocks = (N + BlockSize - 1) / BlockSize;
  CtxArray<size_t> Counts(NumBlocks);
  parallelFor(
      0, NumBlocks,
      [&](size_t B) {
        size_t Lo = B * BlockSize, Hi = std::min(N, Lo + BlockSize);
        size_t C = 0;
        for (size_t I = Lo; I < Hi; ++I)
          C += KeepFn(I) ? 1 : 0;
        Counts[B] = C;
      },
      1);
  size_t Total = scanExclusive(Counts.data(), NumBlocks);
  auto *Out = MakeDestFn(Total);
  parallelFor(
      0, NumBlocks,
      [&](size_t B) {
        size_t Lo = B * BlockSize, Hi = std::min(N, Lo + BlockSize);
        size_t Pos = Counts[B];
        for (size_t I = Lo; I < Hi; ++I)
          if (KeepFn(I))
            Out[Pos++] = GetFn(I);
      },
      1);
  return Total;
}

} // namespace detail

/// Parallel filter into a caller-provided buffer: write `Get(I)` for all I
/// in [0, N) with `Keep(I)` to \p Out (capacity >= the number kept),
/// preserving order; returns the number written. O(n) work, O(log n)
/// depth, no heap allocation (block counts live in borrowed scratch).
/// \p Out must not alias memory read by Get/Keep.
template <class Get, class Keep, class T>
size_t filterIndexInto(size_t N, const Get &GetFn, const Keep &KeepFn,
                       T *Out) {
  if (N == 0)
    return 0;
  return detail::blockedFilter(N, GetFn, KeepFn,
                               [&](size_t) { return Out; });
}

/// Parallel filter: collect `Get(I)` for all I in [0, N) with `Keep(I)`,
/// preserving order. O(n) work, O(log n) depth. The exactly-sized result
/// vector is the only heap allocation: one-shot filters over huge inputs
/// (graph loading) never pin input-sized blocks in the scratch caches —
/// hot loops that want a zero-allocation filter pass their own buffer to
/// filterIndexInto.
template <class Get, class Keep>
auto filterIndex(size_t N, const Get &GetFn, const Keep &KeepFn) {
  using T = decltype(GetFn(size_t(0)));
  std::vector<T> Out;
  if (N == 0)
    return Out;
  detail::blockedFilter(N, GetFn, KeepFn, [&](size_t Total) {
    Out.resize(Total);
    return Out.data();
  });
  return Out;
}

/// Filter the elements of \p In that satisfy \p Pred, preserving order.
template <class T, class Pred>
std::vector<T> filter(const std::vector<T> &In, const Pred &PredFn) {
  return filterIndex(
      In.size(), [&](size_t I) { return In[I]; },
      [&](size_t I) { return PredFn(In[I]); });
}

namespace detail {

/// Parallel merge of sorted [A, A+Na) and [B, B+Nb) into Out. Stable with
/// the convention that A's elements precede equal elements of B. Splits on
/// the midpoint of the larger input so the recursion always halves.
template <class T, class Cmp>
void parallelMerge(const T *A, size_t Na, const T *B, size_t Nb, T *Out,
                   const Cmp &Less) {
  if (Na + Nb < 8192) {
    std::merge(A, A + Na, B, B + Nb, Out, Less);
    return;
  }
  if (Na >= Nb) {
    size_t MidA = Na / 2;
    // B elements equal to the pivot stay on the right (A precedes B).
    size_t MidB = std::lower_bound(B, B + Nb, A[MidA], Less) - B;
    Out[MidA + MidB] = A[MidA];
    parallelDo(
        [&] { parallelMerge(A, MidA, B, MidB, Out, Less); },
        [&] {
          parallelMerge(A + MidA + 1, Na - MidA - 1, B + MidB, Nb - MidB,
                        Out + MidA + MidB + 1, Less);
        });
    return;
  }
  size_t MidB = Nb / 2;
  // A elements equal to the pivot go to the left (A precedes B).
  size_t MidA = std::upper_bound(A, A + Na, B[MidB], Less) - A;
  Out[MidA + MidB] = B[MidB];
  parallelDo(
      [&] { parallelMerge(A, MidA, B, MidB, Out, Less); },
      [&] {
        parallelMerge(A + MidA, Na - MidA, B + MidB + 1, Nb - MidB - 1,
                      Out + MidA + MidB + 1, Less);
      });
}

/// Sequential stable sort. Equal integers under std::less are
/// indistinguishable, so integral keys take the faster in-place
/// std::sort: stability is free for them.
template <class T, class Cmp>
void stableSortSeq(T *Data, size_t N, const Cmp &Less) {
  if constexpr (std::is_integral_v<T> && std::is_same_v<Cmp, std::less<T>>)
    std::sort(Data, Data + N);
  else
    std::stable_sort(Data, Data + N, Less);
}

template <class T, class Cmp>
void mergeSortRec(T *Data, T *Buf, size_t N, const Cmp &Less, bool ToBuf) {
  if (N < 8192) {
    stableSortSeq(Data, N, Less);
    if (ToBuf)
      std::copy(Data, Data + N, Buf);
    return;
  }
  size_t Mid = N / 2;
  parallelDo([&] { mergeSortRec(Data, Buf, Mid, Less, !ToBuf); },
             [&] { mergeSortRec(Data + Mid, Buf + Mid, N - Mid, Less,
                                !ToBuf); });
  if (ToBuf)
    parallelMerge(Data, Mid, Data + Mid, N - Mid, Buf, Less);
  else
    parallelMerge(Buf, Mid, Buf + Mid, N - Mid, Data, Less);
}

} // namespace detail

/// Parallel stable sort of [Data, Data+N) under \p Less.
template <class T, class Cmp = std::less<T>>
void parallelSort(T *Data, size_t N, Cmp Less = Cmp()) {
  if (N < 8192 || !detail::parallelismEnabled()) {
    detail::stableSortSeq(Data, N, Less);
    return;
  }
  std::vector<T> Buf(N);
  detail::mergeSortRec(Data, Buf.data(), N, Less, /*ToBuf=*/false);
}

/// Parallel stable sort of a vector.
template <class T, class Cmp = std::less<T>>
void parallelSort(std::vector<T> &Data, Cmp Less = Cmp()) {
  parallelSort(Data.data(), Data.size(), Less);
}

/// Deterministic pseudo-random permutation of [0, N) driven by \p Seed.
inline std::vector<size_t> randomPermutation(size_t N, uint64_t Seed) {
  auto Keys = tabulate(N, [&](size_t I) {
    return std::make_pair(hashAt(Seed, I), I);
  });
  parallelSort(Keys);
  return tabulate(N, [&](size_t I) { return Keys[I].second; });
}

} // namespace aspen

#endif // ASPEN_PARALLEL_PRIMITIVES_H
