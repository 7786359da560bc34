// D008 corpus: pool traffic inside a compiled-plan TU. Capture pins
// every buffer a step touches, so an acquire in the plan layer would add
// pool traffic to every replay — both spellings must flag.
#include "pcss/tensor/pool.h"

namespace pool = pcss::tensor::pool;

void bad_replay_scratch() {
  auto scratch = pool::acquire(256);
  auto accum = pool::acquire_zeroed(256);
  pool::release(std::move(accum));
  pool::release(std::move(scratch));
}
