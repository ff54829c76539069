//===- support/PageMapping.h - Owned anonymous page mapping ----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dedicated anonymous read-write page mapping, owned RAII-style and
/// followed by one PROT_NONE guard page.
///
/// Large tables that are freed and re-created per simulated cell live in
/// their own mapping instead of the malloc heap: freeing a glibc chunk
/// above the mmap threshold raises that threshold, and later blocks of
/// the same size then come from the brk heap, whose fragmentation (and
/// so the process's peak RSS) depends on the order cells run in.  A
/// mapping costs only the pages a table touches and returns all of them
/// on release.  The guard page makes a run past the end fault at once,
/// which matters because AddressSanitizer does not instrument mappings.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_SUPPORT_PAGEMAPPING_H
#define HDS_SUPPORT_PAGEMAPPING_H

#include <cstddef>

namespace hds {

/// Owns zero or one mapping; not copyable.
class PageMapping {
public:
  PageMapping() = default;
  PageMapping(const PageMapping &) = delete;
  PageMapping &operator=(const PageMapping &) = delete;
  ~PageMapping() { release(); }

  /// Replaces any current mapping with \p Bytes (rounded up to whole
  /// pages) of zeroed read-write memory and a trailing guard page.
  /// Throws std::bad_alloc when the kernel refuses.
  void map(size_t Bytes);
  /// Unmaps the memory and the guard page; a no-op when nothing is mapped.
  void release();

  void *data() const { return Base; }
  bool empty() const { return Base == nullptr; }

private:
  void *Base = nullptr;
  /// Bytes mapped, guard page included.
  size_t Length = 0;
};

} // namespace hds

#endif // HDS_SUPPORT_PAGEMAPPING_H
