// Page application helpers shared by normal processing, the redo pass, and
// both undo algorithms — plus the partitioned parallel redo pass.

#ifndef ARIESRH_RECOVERY_REDO_H_
#define ARIESRH_RECOVERY_REDO_H_

#include <atomic>
#include <functional>
#include <unordered_map>
#include <vector>

#include "recovery/parallel.h"
#include "storage/buffer_pool.h"
#include "table/table_heap.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace ariesrh {

/// Applies an UPDATE or CLR record to its page, or a logical table record
/// to the table heap.
///
/// With `check_page_lsn` (the redo pass), a page record is applied only if
/// the page LSN is older than the record's LSN — ARIES "repeating history"
/// idempotence; otherwise (normal processing) it is applied unconditionally.
/// Either way the page LSN advances to the record's LSN on application and
/// the page is marked dirty. The fetch + apply runs atomically under the
/// pool latch, so concurrent recovery workers can share the pool.
/// Table records replay state-based through `heap` (idempotent by per-key
/// LSN order rather than page LSN); engines without a table heap pass
/// nullptr and encountering a table record is then an error.
/// `applied` (optional) reports whether state was actually modified.
Status ApplyRecordToPage(BufferPool* pool, const LogRecord& rec,
                         bool check_page_lsn, bool* applied = nullptr,
                         table::TableHeap* heap = nullptr);

/// Compensates one loser update on behalf of `responsible`, the transaction
/// that answers for it. The backward passes (ScopeSweepUndo, ChainUndo,
/// FullScanUndo) only choose which records to undo; this callback decides
/// what undoing one means — logging a CLR (UndoUpdate) or, for
/// reenactment, applying the inverse to scratch state.
using CompensateFn =
    std::function<Status(const LogRecord& update, TxnId responsible)>;

/// A restart's backward pass, counted by the pass itself: a shard's Stats
/// cells aggregate every shard restarting concurrently. The pass runs as
/// several group sweeps, and one group's gaps can hold another group's
/// clusters, so a sweep given a tally credits no skipped gaps; the pass
/// credits them once, over all of its targets (CreditSkippedGaps).
struct PassTally {
  std::atomic<uint64_t> examined{0};
};

/// Builds the compensation record for `update` on behalf of `responsible`,
/// chained after `prev` on its backward chain. It carries the inverse so it
/// replays through ApplyRecordToPage like any record: a CLR restores the
/// before image of a Set or applies the negated delta of an Add; a TBL_CLR
/// removes the key an insert created and restores the before image of any
/// other table write. Pure: appends and applies nothing.
LogRecord MakeCompensation(const LogRecord& update, TxnId responsible,
                           Lsn prev);

/// The compensation recovery, abort and savepoint rollback pass to the
/// backward passes: each call appends MakeCompensation's record, chains it
/// into the responsible transaction's backward chain (heads tracked in
/// `bc_heads`), applies it to `pool` (or `heap`, for a table write), and
/// counts it in `stats->recovery_undos`.
/// `undo_budget` (optional, test-only) injects a crash: once it is exhausted
/// the log is flushed and the call fails with IOError, modeling a failure
/// in the middle of the undo pass. The budget is thread-safe, so concurrent
/// sweeps draw from one crash point.
/// `undone` (optional) also counts each compensation, for callers that need
/// their own count: a sharded engine's Stats cells aggregate every shard.
CompensateFn UndoUpdate(LogManager* log, BufferPool* pool, Stats* stats,
                        std::unordered_map<TxnId, Lsn>* bc_heads,
                        table::TableHeap* heap = nullptr,
                        RecoveryFaultBudget* undo_budget = nullptr,
                        std::atomic<uint64_t>* undone = nullptr);

/// One unit of redo work discovered by the forward scan: the parsed record
/// and the page it touches. The scan emits items in increasing LSN order,
/// so any stable partition of a plan by page preserves per-page LSN order.
/// Carrying the parsed record means redo workers never touch the log — the
/// collecting scan already paid for the read and the decode. The plan is
/// bounded by the log suffix past the last checkpoint, like the scan itself.
struct RedoItem {
  LogRecord rec;
  PageId page = kInvalidPage;
};

/// Partitioned parallel redo: buckets `plan` by page and replays each
/// bucket's records (in the plan's LSN order) on up to `threads` workers.
/// Pages are independent under redo — each record touches exactly one page
/// and the page-LSN check makes application idempotent — so per-page order
/// is the only order that matters. `redo_budget` (optional, test-only)
/// injects a crash after that many applications. Returns the number of
/// records actually applied through `applied` (optional). Table records are
/// bucketed by their rid's redo bucket (RedoBucketOf) instead of a physical
/// page, which keeps every record of one key in one work unit — the order
/// guarantee logical replay needs.
Status PartitionedRedo(const std::vector<RedoItem>& plan, size_t threads,
                       BufferPool* pool, Stats* stats,
                       RecoveryFaultBudget* redo_budget = nullptr,
                       uint64_t* applied = nullptr,
                       table::TableHeap* heap = nullptr);

}  // namespace ariesrh

#endif  // ARIESRH_RECOVERY_REDO_H_
