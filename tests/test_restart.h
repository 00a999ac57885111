// The blocking restart shared by the tests and benchmarks: restart a crashed
// database and wait until it has fully caught up.

#ifndef ARIESRH_TESTS_TEST_RESTART_H_
#define ARIESRH_TESTS_TEST_RESTART_H_

#include <memory>

#include "core/database.h"

namespace ariesrh {

/// StartRecovery() + Await(): the merged Outcome once every shard's restart
/// has finished (under kInstant too), or the first failure.
inline Result<RecoveryManager::Outcome> RestartAndAwait(Database* db) {
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<RecoveryHandle> handle,
                           db->StartRecovery());
  return handle->Await();
}

}  // namespace ariesrh

#endif  // ARIESRH_TESTS_TEST_RESTART_H_
