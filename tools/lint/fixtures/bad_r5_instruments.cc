// Seeded-bad fixture for sb7-lint R5 (layering of the instruments). Never
// compiled — the selftest treats this file as living in src/telemetry/ and
// expects an R5 finding for each of the two includes of a layer above it;
// the src/common/ include is allowed and the one in the comment does not
// count.

#include "src/common/json.h"
#include "src/harness/driver.h"
#include "src/perf/report.h"
// #include "src/perf/runner.h"
