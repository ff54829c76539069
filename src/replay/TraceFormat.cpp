//===- replay/TraceFormat.cpp - Versioned binary trace format -------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "replay/TraceFormat.h"

#include "core/Runtime.h"
#include "memsim/Cache.h"
#include "support/Table.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

using namespace hds;
using namespace hds::replay;

namespace {

constexpr char FileMagic[8] = {'H', 'D', 'S', 'T', 'R', 'A', 'C', 'E'};
constexpr char EndMagic[4] = {'H', 'D', 'S', 'E'};

//===----------------------------------------------------------------------===//
// LEB128 byte stream helpers
//===----------------------------------------------------------------------===//

void putVarint(std::string &Out, uint64_t Value) {
  do {
    uint8_t Byte = Value & 0x7F;
    Value >>= 7;
    if (Value)
      Byte |= 0x80;
    Out.push_back(static_cast<char>(Byte));
  } while (Value);
}

void putString(std::string &Out, const std::string &Text) {
  putVarint(Out, Text.size());
  Out.append(Text);
}

/// Bounds-checked reader over the serialized bytes.
class ByteReader {
public:
  explicit ByteReader(const std::string &Buffer) : Bytes(Buffer) {}

  bool failed() const { return Failed; }
  size_t position() const { return Pos; }
  bool atEnd() const { return Pos == Bytes.size(); }
  size_t remaining() const { return Bytes.size() - Pos; }

  bool takeRaw(const char *Expected, size_t Length) {
    if (Failed || Pos + Length > Bytes.size() ||
        std::memcmp(Bytes.data() + Pos, Expected, Length) != 0) {
      Failed = true;
      return false;
    }
    Pos += Length;
    return true;
  }

  uint32_t takeU32() {
    uint32_t Value = 0;
    if (Failed || Pos + 4 > Bytes.size()) {
      Failed = true;
      return 0;
    }
    for (int I = 0; I < 4; ++I)
      Value |= static_cast<uint32_t>(
                   static_cast<uint8_t>(Bytes[Pos + static_cast<size_t>(I)]))
               << (8 * I);
    Pos += 4;
    return Value;
  }

  uint64_t takeVarint() {
    uint64_t Value = 0;
    unsigned Shift = 0;
    while (true) {
      if (Failed || Pos >= Bytes.size() || Shift >= 64) {
        Failed = true;
        return 0;
      }
      const uint8_t Byte = static_cast<uint8_t>(Bytes[Pos++]);
      Value |= static_cast<uint64_t>(Byte & 0x7F) << Shift;
      if (!(Byte & 0x80))
        return Value;
      Shift += 7;
    }
  }

  std::string takeString() {
    const uint64_t Length = takeVarint();
    if (Failed || Length > remaining()) {
      Failed = true;
      return std::string();
    }
    std::string Result = Bytes.substr(Pos, Length);
    Pos += Length;
    return Result;
  }

private:
  const std::string &Bytes;
  size_t Pos = 0;
  bool Failed = false;
};

void putU32(std::string &Out, uint32_t Value) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((Value >> (8 * I)) & 0xFF));
}

bool fail(std::string *Error, const std::string &Why) {
  if (Error)
    *Error = Why;
  return false;
}

/// Checks event \p I (\p E) against the 32-bit simulated address space,
/// setting \p Error when it fails.  An access must lie below 2^32, and so
/// must a recorded allocation.  \p HeapReach bounds the heap break a
/// replay reaches whatever addresses the trace records (an allocation
/// adds its size plus at most its alignment less one, a padding its
/// size), so replaying the events can never push the heap past 2^32.
bool checkAddressSpace(const TraceEvent &E, uint64_t I, uint64_t &HeapReach,
                       std::string *Error) {
  constexpr uint64_t Limit = memsim::AddressSpaceBytes;
  const char *What = nullptr;
  if (E.K == TraceEvent::Kind::Load || E.K == TraceEvent::Kind::Store) {
    if (E.B >= Limit)
      What = "access address";
  } else if (E.K == TraceEvent::Kind::Allocate) {
    if (!std::has_single_bit(E.B))
      return fail(Error, formatString("allocation alignment %llu at event "
                                      "%llu is not a power of two",
                                      (unsigned long long)E.B,
                                      (unsigned long long)I));
    // Past the first test, neither sum below can wrap.
    if (E.C >= Limit || E.A > Limit - E.C ||
        (HeapReach += E.A + E.B - 1) > Limit)
      What = "allocation";
  } else if (E.K == TraceEvent::Kind::PadHeap) {
    if (E.A > Limit || (HeapReach += E.A) > Limit)
      What = "heap padding";
  }
  return !What ||
         fail(Error, formatString("%s at event %llu leaves the 32-bit "
                                  "simulated address space",
                                  What, (unsigned long long)I));
}

} // namespace

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

std::string hds::replay::serializeTrace(const Trace &T) {
  std::string Out;
  Out.reserve(64 + T.Events.size() * 4);
  Out.append(FileMagic, sizeof(FileMagic));
  putU32(Out, Trace::CurrentVersion);

  putString(Out, T.Meta.Workload);
  putVarint(Out, T.Meta.Iterations);
  Out.push_back(static_cast<char>(T.Meta.Mode));
  putVarint(Out, T.Meta.HeadLength);
  // The flags byte keeps the original per-kind bit layout (stride=1,
  // markov=2, pin=4, pair=16) so version-1 traces recorded before
  // PrefetcherSelection existed read back unchanged.  Bits 8 and 32 were
  // the removed stream prefetcher and dueling selector; the reader
  // rejects both.
  using prefetch::Prefetcher;
  const uint8_t Flags =
      (T.Meta.Prefetchers.has(Prefetcher::Stride) ? 1 : 0) |
      (T.Meta.Prefetchers.has(Prefetcher::Markov) ? 2 : 0) |
      (T.Meta.Pin ? 4 : 0) |
      (T.Meta.Prefetchers.has(Prefetcher::PairTable) ? 16 : 0);
  Out.push_back(static_cast<char>(Flags));

  putVarint(Out, T.Events.size());
  for (const TraceEvent &E : T.Events) {
    Out.push_back(static_cast<char>(E.K));
    switch (E.K) {
    case TraceEvent::Kind::DeclareProcedure:
      putVarint(Out, E.A);
      putString(Out, E.Text);
      break;
    case TraceEvent::Kind::DeclareSite:
      putVarint(Out, E.A);
      putVarint(Out, E.B);
      putString(Out, E.Text);
      break;
    case TraceEvent::Kind::Allocate:
      putVarint(Out, E.A);
      putVarint(Out, E.B);
      putVarint(Out, E.C);
      break;
    case TraceEvent::Kind::PadHeap:
    case TraceEvent::Kind::EnterProcedure:
    case TraceEvent::Kind::Compute:
      putVarint(Out, E.A);
      break;
    case TraceEvent::Kind::Load:
    case TraceEvent::Kind::Store:
      putVarint(Out, E.A);
      putVarint(Out, E.B);
      break;
    case TraceEvent::Kind::LeaveProcedure:
    case TraceEvent::Kind::LoopBackEdge:
    case TraceEvent::Kind::SetupDone:
      break;
    }
  }

  putVarint(Out, T.Summary.Cycles);
  putVarint(Out, T.Summary.TotalAccesses);
  putVarint(Out, T.Summary.ChecksExecuted);
  putVarint(Out, T.Summary.TracedRefs);
  putVarint(Out, T.Summary.L1Misses);
  putVarint(Out, T.Summary.L2Misses);
  putVarint(Out, T.Summary.PrefetchesIssued);
  putVarint(Out, T.Summary.CompleteMatches);
  Out.append(EndMagic, sizeof(EndMagic));
  return Out;
}

bool hds::replay::deserializeTrace(const std::string &Bytes, Trace &Out,
                                   std::string *Error) {
  Out = Trace();
  ByteReader In(Bytes);
  if (!In.takeRaw(FileMagic, sizeof(FileMagic)))
    return fail(Error, "not an hds trace (bad magic)");
  const uint32_t Version = In.takeU32();
  if (In.failed())
    return fail(Error, "truncated header");
  if (Version != Trace::CurrentVersion)
    return fail(Error, formatString("unsupported trace version %u "
                                    "(this build reads version %u)",
                                    Version, Trace::CurrentVersion));

  Out.Meta.Workload = In.takeString();
  Out.Meta.Iterations = In.takeVarint();
  const uint64_t Mode = In.takeVarint();
  if (Mode > static_cast<uint64_t>(core::RunMode::DynamicPrefetch))
    return fail(Error, "invalid run mode in trace meta");
  Out.Meta.Mode = static_cast<core::RunMode>(Mode);
  Out.Meta.HeadLength = static_cast<uint32_t>(In.takeVarint());
  const uint64_t Flags = In.takeVarint();
  if (In.failed())
    return fail(Error, "truncated trace meta");
  if (Flags & 8)
    return fail(Error, "trace enables the stream prefetcher (flag 8), "
                       "which was removed");
  if (Flags & 32)
    return fail(Error, "trace enables the dueling selector (flag 32), "
                       "which was removed");
  if (Flags > 63)
    return fail(Error, formatString("unknown flag bits 0x%llx in trace meta",
                                    (unsigned long long)(Flags & ~63ull)));
  using prefetch::Prefetcher;
  Out.Meta.Prefetchers.set(Prefetcher::Stride, (Flags & 1) != 0);
  Out.Meta.Prefetchers.set(Prefetcher::Markov, (Flags & 2) != 0);
  Out.Meta.Pin = (Flags & 4) != 0;
  Out.Meta.Prefetchers.set(Prefetcher::PairTable, (Flags & 16) != 0);

  const uint64_t EventCount = In.takeVarint();
  if (In.failed())
    return fail(Error, "truncated event count");
  // Every event takes at least one byte, so a count larger than the bytes
  // left is a lie; never let it size the reservation.
  Out.Events.reserve(std::min<uint64_t>(EventCount, In.remaining()));
  for (uint64_t I = 0; I < EventCount; ++I) {
    TraceEvent E;
    const uint64_t Opcode = In.takeVarint();
    if (In.failed())
      return fail(Error, formatString("truncated at event %llu",
                                      (unsigned long long)I));
    if (Opcode > static_cast<uint64_t>(TraceEvent::Kind::SetupDone))
      return fail(Error, formatString("unknown opcode %llu at event %llu",
                                      (unsigned long long)Opcode,
                                      (unsigned long long)I));
    E.K = static_cast<TraceEvent::Kind>(Opcode);
    switch (E.K) {
    case TraceEvent::Kind::DeclareProcedure:
      E.A = In.takeVarint();
      E.Text = In.takeString();
      break;
    case TraceEvent::Kind::DeclareSite:
      E.A = In.takeVarint();
      E.B = In.takeVarint();
      E.Text = In.takeString();
      break;
    case TraceEvent::Kind::Allocate:
      E.A = In.takeVarint();
      E.B = In.takeVarint();
      E.C = In.takeVarint();
      break;
    case TraceEvent::Kind::PadHeap:
    case TraceEvent::Kind::EnterProcedure:
    case TraceEvent::Kind::Compute:
      E.A = In.takeVarint();
      break;
    case TraceEvent::Kind::Load:
    case TraceEvent::Kind::Store:
      E.A = In.takeVarint();
      E.B = In.takeVarint();
      break;
    case TraceEvent::Kind::LeaveProcedure:
    case TraceEvent::Kind::LoopBackEdge:
    case TraceEvent::Kind::SetupDone:
      break;
    }
    if (In.failed())
      return fail(Error, formatString("truncated inside event %llu",
                                      (unsigned long long)I));
    Out.Events.push_back(std::move(E));
  }

  uint64_t HeapReach = core::Runtime::HeapBase;
  for (uint64_t I = 0; I < Out.Events.size(); ++I)
    if (!checkAddressSpace(Out.Events[I], I, HeapReach, Error))
      return false;

  Out.Summary.Cycles = In.takeVarint();
  Out.Summary.TotalAccesses = In.takeVarint();
  Out.Summary.ChecksExecuted = In.takeVarint();
  Out.Summary.TracedRefs = In.takeVarint();
  Out.Summary.L1Misses = In.takeVarint();
  Out.Summary.L2Misses = In.takeVarint();
  Out.Summary.PrefetchesIssued = In.takeVarint();
  Out.Summary.CompleteMatches = In.takeVarint();
  if (In.failed())
    return fail(Error, "truncated summary footer");
  if (!In.takeRaw(EndMagic, sizeof(EndMagic)))
    return fail(Error, "missing end magic (truncated file?)");
  if (!In.atEnd())
    return fail(Error, "trailing bytes after end magic");
  return true;
}

bool hds::replay::writeTraceFile(const Trace &T, const std::string &Path,
                                 std::string *Error) {
  const std::string Bytes = serializeTrace(T);
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return fail(Error, "cannot open '" + Path + "' for writing");
  const size_t Written = std::fwrite(Bytes.data(), 1, Bytes.size(), File);
  const bool Ok = std::fclose(File) == 0 && Written == Bytes.size();
  if (!Ok)
    return fail(Error, "short write to '" + Path + "'");
  return true;
}

bool hds::replay::readTraceFile(const std::string &Path, Trace &Out,
                                std::string *Error) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return fail(Error, "cannot open '" + Path + "'");
  std::string Bytes;
  char Buffer[1 << 16];
  size_t Got;
  while ((Got = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Bytes.append(Buffer, Got);
  std::fclose(File);
  return deserializeTrace(Bytes, Out, Error);
}

std::string
hds::replay::describeSummaryDivergence(const TraceSummary &Recorded,
                                       const TraceSummary &Replayed) {
  std::string Out;
  auto Field = [&](const char *Name, uint64_t Was, uint64_t Is) {
    if (Was == Is)
      return;
    if (!Out.empty())
      Out += "; ";
    Out += formatString("%s: recorded %llu, replayed %llu", Name,
                        (unsigned long long)Was, (unsigned long long)Is);
  };
  Field("cycles", Recorded.Cycles, Replayed.Cycles);
  Field("accesses", Recorded.TotalAccesses, Replayed.TotalAccesses);
  Field("checks", Recorded.ChecksExecuted, Replayed.ChecksExecuted);
  Field("traced refs", Recorded.TracedRefs, Replayed.TracedRefs);
  Field("L1 misses", Recorded.L1Misses, Replayed.L1Misses);
  Field("L2 misses", Recorded.L2Misses, Replayed.L2Misses);
  Field("prefetches", Recorded.PrefetchesIssued, Replayed.PrefetchesIssued);
  Field("complete matches", Recorded.CompleteMatches,
        Replayed.CompleteMatches);
  return Out;
}
