// Restart recovery orchestration: torn-tail truncation, checkpoint lookup,
// the forward (analysis + redo) work, and the mode-appropriate backward
// (undo) pass, ending with END records for every resolved loser.
//
// With Options::recovery_threads > 1 the pipeline is parallel: a serial
// analysis sweep collects a redo plan, PartitionedRedo replays it bucketed
// by page on a worker pool, and the undo pass dispatches independent
// loser-scope cluster groups (PartitionUndoClusters) to workers. Serial
// recovery (threads == 1) keeps the classic layouts byte-for-byte.

#ifndef ARIESRH_RECOVERY_RECOVERY_MANAGER_H_
#define ARIESRH_RECOVERY_RECOVERY_MANAGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"
#include "recovery/analysis.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"
#include "table/table_heap.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_manager.h"

namespace ariesrh {

/// Drives restart recovery. Construct against the post-crash components
/// (fresh log manager and buffer pool over the surviving disk) and call
/// Recover() once.
class RecoveryManager {
 public:
  /// `heap` (optional) is the shard's table heap; logical table records
  /// replay into it and table undo compensates through it. Engines without
  /// a table layer pass nullptr.
  RecoveryManager(const Options& options, SimulatedDisk* disk,
                  LogManager* log, BufferPool* pool, Stats* stats,
                  table::TableHeap* heap = nullptr);

  /// What restart recovery did — enough for operators (the shell's
  /// `recover` command prints it) and for tests to assert equivalence
  /// across thread counts.
  struct Outcome {
    TxnId next_txn_id = 1;   ///< id counter seed for new transactions
    uint64_t winners = 0;    ///< committed before the crash
    uint64_t losers = 0;     ///< rolled back by recovery
    Lsn checkpoint_used = 0; ///< CKPT_END the pass started from (0 = none)

    uint32_t threads_used = 1;        ///< worker threads the run employed
    bool merged_forward_pass = false; ///< analysis+redo in one sweep?

    uint64_t analysis_ns = 0;  ///< wall time of the analysis-bearing sweep
    uint64_t redo_ns = 0;      ///< wall time of redo (0 when merged)
    uint64_t undo_ns = 0;      ///< wall time of the backward pass

    uint64_t records_analyzed = 0;  ///< records the forward sweep examined
    uint64_t records_redone = 0;    ///< records actually applied to pages
    uint64_t records_undone = 0;    ///< loser updates compensated (CLRs)
    uint64_t clusters_swept = 0;    ///< undo cluster groups dispatched
    uint64_t records_skipped = 0;   ///< records the cluster sweep never read

    /// In-doubt (prepared) transactions resolved from the coordinator log:
    /// committed because the coordinator's COMMIT was durable, or rolled
    /// back by presumed abort. Always 0 in unsharded engines.
    uint64_t in_doubt_committed = 0;
    uint64_t in_doubt_aborted = 0;

    /// Multi-line human-readable rendering (shell `recover` output).
    std::string ToString() const;
  };

  /// Runs the full restart sequence. Idempotent under crashes during
  /// recovery: re-running after a partial recovery converges to the same
  /// state (CLRs and the compensated set prevent double undo).
  ///
  /// `resolution` (sharded engines) carries the coordinator's durable
  /// verdicts: a prepared transaction whose csn is committed there gets a
  /// COMMIT record appended and counts as a winner; every other prepared
  /// transaction rolls back (presumed abort — the same thing nullptr
  /// does, which is also the unsharded engine's path).
  Result<Outcome> Recover(const coord::Resolution* resolution = nullptr);

  /// Scans backward from the stable log's end dropping records whose CRC
  /// fails (torn tail). Called before constructing the log manager.
  static Status TruncateTornTail(SimulatedDisk* disk);

  /// Locates the most recent completed checkpoint via the disk's master
  /// record and deserializes it into `out`. Returns the CKPT_END LSN, or 0
  /// when recovery must start from the log head (`out` is then untouched) —
  /// always 0 for the history-rewriting baselines, whose checkpoints would
  /// be stale (see Recover). Shared by the blocking path and instant
  /// restart's analysis front half.
  static Result<Lsn> LocateCheckpoint(const Options& options,
                                      SimulatedDisk* disk, LogManager* log,
                                      CheckpointData* out);

 private:
  Status UndoLosers(const ForwardPassResult& fwd, Outcome* outcome);

  const Options& options_;
  SimulatedDisk* disk_;
  LogManager* log_;
  BufferPool* pool_;
  Stats* stats_;
  table::TableHeap* heap_;
};

}  // namespace ariesrh

#endif  // ARIESRH_RECOVERY_RECOVERY_MANAGER_H_
