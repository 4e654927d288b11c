#include "src/stm/lock_table.h"

namespace sb7 {

sp::AtomicU64 LockTable::clock_{1};

}  // namespace sb7
