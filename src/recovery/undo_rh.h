// The ARIES/RH backward pass (paper Figure 8): undo by loser-scope clusters.
//
// Instead of following per-transaction backward chains, RH undoes exactly
// the *loser updates* — updates whose ultimately-responsible transaction is
// a loser — by sweeping the log backwards through the clusters of
// overlapping loser scopes. Between clusters no record is touched; within a
// cluster each record is examined exactly once, in strictly decreasing LSN
// order (the property that preserves ARIES's sequential-log efficiencies).
//
// The sweep only chooses which records to undo; a CompensateFn (redo.h)
// decides what undoing one means. It has four callers:
//   * normal-processing abort (TxnManager::RollBack) — the "cluster" is just
//     the aborting transaction's own scopes; CLRs via UndoUpdate;
//   * savepoint rollback (TxnManager::RollbackTo) — those scopes clipped to
//     the records past the savepoint; CLRs via UndoUpdate;
//   * restart undo (RecoveryManager's back half, under both restart modes) —
//     one sweep per undo group (PartitionUndoClusters), the groups together
//     spanning every loser's scopes; CLRs via UndoUpdate;
//   * reenactment (reenact::Reenactor) — the losers open at a cut, undone
//     in scratch components by applying each compensation, logging nothing.

#ifndef ARIESRH_RECOVERY_UNDO_RH_H_
#define ARIESRH_RECOVERY_UNDO_RH_H_

#include <unordered_set>
#include <vector>

#include "recovery/redo.h"
#include "txn/scope.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_manager.h"

namespace ariesrh {

/// One loser scope queued for undo, tagged with the transaction that is
/// responsible for (and therefore aborts) the covered updates.
struct ScopeUndoTarget {
  TxnId responsible = kInvalidTxn;
  ObjectId object = kInvalidObject;
  Scope scope;
};

/// Sweeps the log backwards calling `compensate` for every update covered
/// by `targets`, on behalf of the covering scope's responsible transaction,
/// in strictly decreasing LSN order. Records whose LSN appears in
/// `compensated` (already undone before a crash — rebuilt by the forward
/// pass from CLRs) are skipped.
///
/// `sweep_from` is where the backward sweep conceptually starts (the end of
/// the log during recovery). Without a `tally` the sweep credits its gaps
/// (CreditSkippedGaps); with one it counts its examined records there.
Status ScopeSweepUndo(const std::vector<ScopeUndoTarget>& targets,
                      const std::unordered_set<Lsn>& compensated,
                      Lsn sweep_from, const LogManager* log, Stats* stats,
                      const CompensateFn& compensate,
                      PassTally* tally = nullptr);

/// The records a cluster sweep of `targets` from `sweep_from` never reads:
/// the gap down to the newest cluster and the gaps between clusters (maximal
/// runs of overlapping scopes). Credits each gap to
/// `stats->recovery_backward_skipped` and the trace (kUndoClusterSkip), and
/// returns the total.
uint64_t CreditSkippedGaps(const std::vector<ScopeUndoTarget>& targets,
                           Lsn sweep_from, Stats* stats);

/// Ablation baseline for the backward pass (Section 3.6.2's rejected
/// alternative): scan EVERY record from `sweep_from` down to the oldest
/// loser scope, matching each against the loser scopes. Compensates the
/// same records in the same order as ScopeSweepUndo but examines every
/// record in between, including all the winner updates the cluster sweep
/// skips. `tally` (optional) counts the examined records for the caller.
Status FullScanUndo(const std::vector<ScopeUndoTarget>& targets,
                    const std::unordered_set<Lsn>& compensated,
                    Lsn sweep_from, const LogManager* log, Stats* stats,
                    const CompensateFn& compensate,
                    PassTally* tally = nullptr);

/// Partitions loser scopes into groups that can be undone concurrently,
/// one ScopeSweepUndo per group. Two scopes land in the same group when any
/// of the following holds (transitively):
///  - their LSN intervals overlap — they belong to the same sweep cluster,
///    and splitting a cluster would break the single-examination sweep;
///  - they share a responsible transaction — that loser's CLR chain must be
///    written in strictly decreasing compensated-LSN order, which only a
///    single sequential sweep guarantees;
///  - they name the same object — a Set undo restores a before image, so
///    per-object undo order must match the serial (decreasing-LSN) order.
/// Groups are returned in a deterministic order (by largest scope end,
/// descending) regardless of input order. Scopes inside a group keep the
/// relative order ScopeSweepUndo would see serially.
std::vector<std::vector<ScopeUndoTarget>> PartitionUndoClusters(
    const std::vector<ScopeUndoTarget>& targets);

}  // namespace ariesrh

#endif  // ARIESRH_RECOVERY_UNDO_RH_H_
