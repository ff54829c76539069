// Compile fixture: a header that uses std::vector without including
// <vector>.  Its generated translation unit must not compile
// (tests/CMakeLists.txt, compile_gate_header_alone).
#ifndef HDS_TESTS_COMPILE_FIXTURES_MISSINGVECTOR_H
#define HDS_TESTS_COMPILE_FIXTURES_MISSINGVECTOR_H

struct Holder {
  std::vector<int> Values;
};

#endif // HDS_TESTS_COMPILE_FIXTURES_MISSINGVECTOR_H
