// Fixture: a canonical guard must lint clean.
// Lexed with virtual display path src/fixture/h1_good.h.
#ifndef HDS_FIXTURE_H1_GOOD_H
#define HDS_FIXTURE_H1_GOOD_H

#include <cstdint>
#include <optional>
#include <vector>

struct Holder {
  std::vector<int> Values;
  uint64_t Total = 0;
  std::optional<int> Best;
};

#endif // HDS_FIXTURE_H1_GOOD_H
