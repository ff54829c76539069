//===- analysis/DataRef.h - Data references and interning ------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A data reference is a load or store of a particular address, represented
/// as a pair (r.pc, r.addr) — Section 2.1 of the paper.  The profiler
/// interns references into dense ids so the Sequitur grammar and the DFSM
/// construction operate on small integers.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_ANALYSIS_DATAREF_H
#define HDS_ANALYSIS_DATAREF_H

#include "support/Rng.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hds {
namespace analysis {

/// A load or store of address \p Addr issued by the instruction at \p Pc.
struct DataRef {
  uint64_t Pc = 0;
  uint64_t Addr = 0;

  friend bool operator==(const DataRef &A, const DataRef &B) {
    return A.Pc == B.Pc && A.Addr == B.Addr;
  }
  friend bool operator<(const DataRef &A, const DataRef &B) {
    return A.Pc != B.Pc ? A.Pc < B.Pc : A.Addr < B.Addr;
  }
};

/// Dense id assigned to an interned DataRef.
using RefId = uint32_t;

/// Sentinel for "no such reference".
inline constexpr RefId InvalidRefId = ~RefId{0};

/// Bidirectional interning table: (pc, addr) <-> dense RefId.
///
/// Sequitur terminals, hot data stream elements, and DFSM symbols are all
/// RefIds; this table is the single place that maps them back to concrete
/// program points and addresses when injecting checks and prefetches.
///
/// The references sit in one vector in id order; an open-addressed index
/// of ids (linear probing, load at most 1/2) finds them by value.  Ids are
/// handed out in first-seen order until the next clear(), which the
/// profiler calls at the start of every profiling cycle; between clears
/// the index never deletes, and it is only rebuilt, in id order, when it
/// grows.  Nothing is allocated before the first intern(), and clear()
/// keeps both buffers' capacity.
class DataRefTable {
public:
  /// Returns the id for \p Ref, creating one on first sight.
  RefId intern(const DataRef &Ref) {
    if (!Slots.empty()) {
      const size_t Slot = probe(Ref);
      if (Slots[Slot] != InvalidRefId)
        return Slots[Slot];
      if (2 * (Refs.size() + 1) <= Slots.size())
        return insertAt(Slot, Ref);
    }
    growIndex();
    return insertAt(probe(Ref), Ref);
  }

  /// Returns the id for \p Ref if it was interned before, or InvalidRefId.
  RefId lookup(const DataRef &Ref) const {
    return Slots.empty() ? InvalidRefId : Slots[probe(Ref)];
  }

  const DataRef &refOf(RefId Id) const {
    assert(Id < Refs.size() && "unknown RefId");
    return Refs[Id];
  }

  size_t size() const { return Refs.size(); }

  /// Bytes held by the reference vector and the index.
  size_t storeBytes() const {
    return Refs.capacity() * sizeof(DataRef) +
           Slots.capacity() * sizeof(RefId);
  }

  /// Forgets every reference; the next intern() hands out id 0 again.
  void clear() {
    Refs.clear();
    std::fill(Slots.begin(), Slots.end(), InvalidRefId);
  }

private:
  /// The slot holding \p Ref's id, or the empty slot where it would go.
  size_t probe(const DataRef &Ref) const {
    const size_t Mask = Slots.size() - 1;
    size_t Slot =
        splitMix64(Ref.Addr ^ (Ref.Pc * 0x9E3779B97F4A7C15ULL)) & Mask;
    while (Slots[Slot] != InvalidRefId && !(Refs[Slots[Slot]] == Ref))
      Slot = (Slot + 1) & Mask;
    return Slot;
  }

  RefId insertAt(size_t Slot, const DataRef &Ref) {
    const RefId Id = static_cast<RefId>(Refs.size());
    Slots[Slot] = Id;
    Refs.push_back(Ref);
    return Id;
  }

  /// Doubles the index (16 slots at first) and re-inserts every id in
  /// id order.
  void growIndex() {
    Slots.assign(Slots.empty() ? 16 : 2 * Slots.size(), InvalidRefId);
    for (RefId Id = 0; Id < Refs.size(); ++Id)
      Slots[probe(Refs[Id])] = Id;
  }

  std::vector<DataRef> Refs; ///< index == id
  std::vector<RefId> Slots;  ///< power-of-two size; InvalidRefId when empty
};

} // namespace analysis
} // namespace hds

#endif // HDS_ANALYSIS_DATAREF_H
