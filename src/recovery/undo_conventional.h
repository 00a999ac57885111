// Conventional ARIES undo: follow each loser transaction's backward chain,
// undoing its updates in reverse chronological order, continually taking the
// maximum outstanding LSN across losers. CLR undo-next pointers make the
// pass idempotent across crashes during recovery.
//
// Used when delegation is disabled — abort, savepoint rollback, restart and
// reenactment — and by the eager / lazy-rewrite baselines after history has
// been physically rewritten (the chains then reflect responsibility, so
// chain undo is correct for them).

#ifndef ARIESRH_RECOVERY_UNDO_CONVENTIONAL_H_
#define ARIESRH_RECOVERY_UNDO_CONVENTIONAL_H_

#include <unordered_map>

#include "recovery/redo.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_manager.h"

namespace ariesrh {

/// Walks the backward chains headed by `loser_heads` (txn -> chain head
/// LSN), always at the maximum outstanding LSN, calling `compensate` for
/// every update on them on behalf of the chain's owner. CLRs jump to their
/// undo-next pointer; DELEGATE records encountered on a chain are traversed
/// through the side (tor/tee) belonging to the chain's owner. Records at or
/// below `floor` are left alone: a savepoint rollback passes the savepoint,
/// a full rollback 0. `tally` (optional) counts the examined records for
/// the caller.
Status ChainUndo(const std::unordered_map<TxnId, Lsn>& loser_heads,
                 const LogManager* log, Stats* stats,
                 const CompensateFn& compensate, Lsn floor = 0,
                 PassTally* tally = nullptr);

}  // namespace ariesrh

#endif  // ARIESRH_RECOVERY_UNDO_CONVENTIONAL_H_
