// Seeded-bad fixture for sb7-lint R5 (harness layering). Never compiled —
// the selftest treats this file as living in src/harness/ (not main.cc) and
// expects an R5 finding for each of the two includes below; the one in the
// comment does not count.

#include "src/harness/driver.h"
#include "src/mvstm/mvstm.h"
#include "src/net/server.h"
// #include "src/mvstm/redo_log.h"
