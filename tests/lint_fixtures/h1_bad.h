// Fixture: H1 must fire on a non-canonical include guard.
#ifndef WRONG_GUARD_NAME_H
#define WRONG_GUARD_NAME_H

struct Holder {
  int Total = 0;
};

#endif
