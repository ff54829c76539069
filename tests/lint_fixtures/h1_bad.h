// Fixture: H1 must fire on a non-canonical include guard and on use of
// std symbols whose headers are not included (not self-contained).
#ifndef WRONG_GUARD_NAME_H
#define WRONG_GUARD_NAME_H

struct Holder {
  std::vector<int> Values;   // H1: <vector> not included
  std::array<int, 4> Quad;   // H1: <array> not included
  std::span<const int> View; // H1: <span> not included
  uint64_t Total = 0;        // H1: <cstdint> not included
  std::optional<int> Best;   // H1: <optional> not included
  std::variant<int, long> V; // H1: <variant> not included
  std::expected<int, int> E; // H1: <expected> not included
};

#endif
