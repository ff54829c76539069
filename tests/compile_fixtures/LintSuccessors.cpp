// Compile fixture: the two defects lint rules C1 and D5 used to look for.
// The compiler must reject both (tests/CMakeLists.txt,
// compile_gate_lint_successors): CycleAccount's clock and phase totals
// are private, so only charge() can move them, and -Wconversion under
// HDS_WERROR rejects floating-point accumulation into an integer counter.
#include "obs/CycleAccount.h"

#include <cstdint>

uint64_t bypassTheAccount(hds::obs::CycleAccount &Account) {
  Account.Total += 1;
  uint64_t Cycles = 0;
  Cycles += 0.5;
  return Cycles + Account.total();
}
