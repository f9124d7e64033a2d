//===- memsim/Prefetcher.h - Sequential-stream prefetch table ---*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constant-time bookkeeping for the hardware stream prefetcher modeled by
/// HybridMemory. The reference semantics are a linear table of N streams,
/// each holding the next line it expects:
///
///   - a missed line matching the lowest-indexed stream's expectation is a
///     prefetch hit; that stream advances to the successor line and becomes
///     most recently used;
///   - otherwise the least-recently-used stream (ties broken toward the
///     lowest index, which also makes never-used streams fill in index
///     order) is retrained to expect the successor.
///
/// The linear scan is O(N) per miss and sat directly on the simulator's
/// hottest path. This table keeps the same decisions with O(1) amortized
/// work: an open-addressing hash table (fixed 256 slots, linear probing,
/// backward-shift deletion -- no allocation on the access path) from
/// expected line to a bitmask of the streams expecting it (lowest set bit
/// == lowest index, matching the scan order), plus an intrusive recency
/// list whose head is the LRU victim (initialized 0..N-1 so initial ties
/// also pop in index order). The bitmask bounds N at 64 streams;
/// HybridMemory rejects wider configurations.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_MEMSIM_PREFETCHER_H
#define PANTHERA_MEMSIM_PREFETCHER_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace panthera {
namespace memsim {

/// Stream-prefetcher state machine; access() per missed line address.
class PrefetchStreamTable {
public:
  /// Bitmask width: the most streams the table can track.
  static constexpr uint32_t MaxStreams = 64;

  /// \p NumStreams must not exceed MaxStreams.
  explicit PrefetchStreamTable(uint32_t NumStreams) : N(NumStreams) {
    if (N == 0)
      return;
    NextLine.assign(N, NoLine);
    Table.assign(TableSlots, Slot());
    Prev.resize(N);
    Next.resize(N);
    for (uint32_t I = 0; I != N; ++I) {
      Prev[I] = I == 0 ? NoIndex : I - 1;
      Next[I] = I + 1 == N ? NoIndex : I + 1;
    }
    Head = 0;
    Tail = N - 1;
  }

  /// True when \p LineAddr continues a tracked sequential stream; updates
  /// the table either way (hit streams advance, misses retrain the LRU
  /// stream). Decision-identical to the reference linear scan.
  bool access(uint64_t LineAddr) {
    if (N == 0)
      return false;

    size_t S = findSlot(LineAddr);
    if (Table[S].Mask != 0) {
      // Lowest set bit == the stream the reference scan would find first.
      uint32_t I = static_cast<uint32_t>(std::countr_zero(Table[S].Mask));
      Table[S].Mask &= Table[S].Mask - 1;
      if (Table[S].Mask == 0)
        eraseAt(S);
      retarget(I, LineAddr + 1);
      return true;
    }
    // New stream candidate: retrain the LRU victim (list head) to predict
    // the sequential successor.
    uint32_t I = Head;
    if (NextLine[I] != NoLine) {
      size_t Old = findSlot(NextLine[I]);
      Table[Old].Mask &= ~(uint64_t(1) << I);
      if (Table[Old].Mask == 0)
        eraseAt(Old);
    }
    retarget(I, LineAddr + 1);
    return false;
  }

private:
  static constexpr uint64_t NoLine = ~0ull;
  static constexpr uint32_t NoIndex = ~0u;

  /// Slot for \p Key: the matching live slot, or the first empty slot of
  /// its probe chain. At most N (<= 64) of the 256 slots are ever live,
  /// so probe chains stay short.
  size_t findSlot(uint64_t Key) const {
    size_t S = slotOf(Key);
    while (Table[S].Mask != 0 && Table[S].Key != Key)
      S = (S + 1) & (TableSlots - 1);
    return S;
  }

  /// Deletes the entry at slot \p I by backward-shifting the rest of its
  /// probe cluster (no tombstones, so findSlot stays a two-test loop).
  void eraseAt(size_t I) {
    size_t J = I;
    while (true) {
      Table[I].Mask = 0;
      while (true) {
        J = (J + 1) & (TableSlots - 1);
        if (Table[J].Mask == 0)
          return;
        size_t Home = slotOf(Table[J].Key);
        // An entry whose home lies cyclically in (I, J] is still
        // reachable with the hole at I; keep scanning past it.
        bool Reachable = I <= J ? (Home > I && Home <= J)
                                : (Home > I || Home <= J);
        if (!Reachable)
          break;
      }
      Table[I] = Table[J];
      I = J;
    }
  }

  /// Points stream \p I at \p Line and makes it most recently used.
  void retarget(uint32_t I, uint64_t Line) {
    NextLine[I] = Line;
    size_t S = findSlot(Line);
    if (Table[S].Mask == 0)
      Table[S].Key = Line;
    Table[S].Mask |= uint64_t(1) << I;
    if (I == Tail)
      return;
    // Unlink, then append at the tail.
    if (Prev[I] != NoIndex)
      Next[Prev[I]] = Next[I];
    else
      Head = Next[I];
    Prev[Next[I]] = Prev[I];
    Prev[I] = Tail;
    Next[I] = NoIndex;
    Next[Tail] = I;
    Tail = I;
  }

  /// Open-addressing table entry; Mask == 0 marks an empty slot (a live
  /// expectation always has at least one stream bit set).
  struct Slot {
    uint64_t Key = 0;
    uint64_t Mask = 0;
  };

  static constexpr size_t TableSlots = 256; // power of two, >= 4x streams

  /// Fibonacci-hash home slot of \p Key.
  static size_t slotOf(uint64_t Key) {
    return static_cast<size_t>((Key * 0x9E3779B97F4A7C15ull) >> 56);
  }

  uint32_t N;
  /// Expected line -> bitmask of streams expecting it.
  std::vector<Slot> Table;
  std::vector<uint64_t> NextLine;
  /// Intrusive recency list over stream indices; Head is the LRU victim.
  std::vector<uint32_t> Prev;
  std::vector<uint32_t> Next;
  uint32_t Head = NoIndex;
  uint32_t Tail = NoIndex;
};

} // namespace memsim
} // namespace panthera

#endif // PANTHERA_MEMSIM_PREFETCHER_H
