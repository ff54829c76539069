// Compile fixture: a switch that names all but one enumerator and hides
// the gap behind a default: arm.  -Wswitch-enum under HDS_WERROR must
// reject it (tests/CMakeLists.txt, compile_gate_switch_enum).

enum class Color { Red, Green, Blue };

int colorIndex(Color C) {
  switch (C) {
  case Color::Red:
    return 0;
  case Color::Green:
    return 1;
  default:
    return -1;
  }
}
