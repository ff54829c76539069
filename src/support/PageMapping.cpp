//===- support/PageMapping.cpp - Owned anonymous page mapping --------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "support/PageMapping.h"

#include <new>

#include <sys/mman.h>
#include <unistd.h>

using namespace hds;

void PageMapping::map(size_t Bytes) {
  release();
  const size_t Page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t Usable = (Bytes + Page - 1) / Page * Page;
  void *Mapped = mmap(nullptr, Usable + Page, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Mapped == MAP_FAILED)
    throw std::bad_alloc();
  if (mprotect(static_cast<char *>(Mapped) + Usable, Page, PROT_NONE) != 0) {
    munmap(Mapped, Usable + Page);
    throw std::bad_alloc();
  }
  Base = Mapped;
  Length = Usable + Page;
}

void PageMapping::release() {
  if (Base)
    munmap(Base, Length);
  Base = nullptr;
  Length = 0;
}
