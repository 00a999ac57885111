// Restart recovery: one pipeline for both restart modes (paper §3.6, Fig. 8;
// docs/INSTANT_RESTART.md).
//
// The front half (Start) runs before the engine opens: checkpoint lookup,
// the forward pass, in-doubt resolution, END records for winners and for
// losers with nothing to undo, building the undo groups, and arming redo.
// The back half (Run) sweeps the undo groups — each group ENDs its own
// losers after its sweep — then drains whatever redo is still pending, then
// forces the log. RecoveryMode::kFull runs the back half to completion
// before the open returns; kInstant runs it on a background thread while
// the RecoveryGate holds back exactly the transactions whose footprints
// intersect a still-unresolved loser group.
//
// The mode-dependent choices are all made in Start():
//   * forward pass — kFull at recovery_threads == 1 merges analysis and redo
//     into one sweep (or runs the three-pass layout with
//     merged_forward_pass = false, the paper's ablation); kFull at more
//     threads collects the redo plan and replays it page-partitioned
//     (PartitionedRedo) before undo; kInstant collects the plan into the
//     on-demand redo index (OnDemandRedo).
//   * undo unit — kRH with kScopeClusters sweeps the PartitionUndoClusters
//     groups, up to recovery_threads at a time; the kFullScan and ChainUndo
//     ablations run as one group each.

#ifndef ARIESRH_RECOVERY_RECOVERY_MANAGER_H_
#define ARIESRH_RECOVERY_RECOVERY_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "coord/coordinator_log.h"
#include "core/options.h"
#include "obs/metrics.h"
#include "recovery/analysis.h"
#include "recovery/ondemand.h"
#include "recovery/redo.h"
#include "recovery/undo_rh.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"
#include "table/table_heap.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_manager.h"

namespace ariesrh {

class RecoveryHandle;

/// One shard's restart. Construct against the post-crash components (fresh
/// log manager and buffer pool over the surviving disk), call Start() once
/// and, if it succeeded, Run() once. Owned by the EngineShard until the next
/// SimulateCrash.
class RecoveryManager {
 public:
  /// `heap` (optional) is the shard's table heap; logical table records
  /// replay into it and table undo compensates through it. Engines without
  /// a table layer pass nullptr. `backlog_gauge` (optional) is the shard's
  /// "ariesrh_undo_backlog" gauge, kept at the live unresolved-group count
  /// under kInstant.
  RecoveryManager(const Options& options, SimulatedDisk* disk,
                  LogManager* log, BufferPool* pool, Stats* stats,
                  table::TableHeap* heap = nullptr,
                  obs::Gauge* backlog_gauge = nullptr);
  /// Cancels and joins a back half still running in the background.
  ~RecoveryManager();

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  /// What restart recovery did — enough for operators (the shell's
  /// `recover` command prints it) and for tests to assert equivalence
  /// across thread counts and restart modes.
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

  /// The front half. On success the shard may open: `*next_txn_id` carries
  /// the id seed and, under kInstant, the redo index and the gate are armed
  /// (pool/heap resolve hooks installed). Every record it appended is
  /// stable, so a crash right after the open re-resolves identically.
  ///
  /// `resolution` (sharded engines) carries the coordinator's durable
  /// verdicts: a prepared transaction whose csn is committed there gets a
  /// COMMIT record appended and counts as a winner; every other prepared
  /// transaction rolls back (presumed abort — the same thing nullptr does,
  /// which is also the unsharded engine's path). `handle` (optional) learns
  /// of the back half's completion or failure.
  Status Start(const coord::Resolution* resolution,
               std::shared_ptr<RecoveryHandle> handle, TxnId* next_txn_id);

  /// The back half: inline under kFull (it has finished when Run returns),
  /// on a background thread under kInstant. `on_complete` runs after a
  /// successful back half, before the handle learns of completion
  /// (checkpoint-after-recovery, daemon start). Idempotent under crashes:
  /// re-running restart after a partial one converges to the same state
  /// (CLRs and the compensated set prevent double undo).
  void Run(std::function<void()> on_complete);

  /// Foreground gates (see RecoveryGate). After the back half finished,
  /// both return its terminal status — a failed restart poisons every gated
  /// entry point.
  Status WaitForObject(ObjectId ob);
  Status WaitForAll();

  /// Blocks until the back half finished; its terminal status.
  Status Await();

  /// Stops the back half: wakes every gate waiter with `reason`, requests
  /// cancellation, joins the worker (idempotent). The handle, if still
  /// pending, learns of the failure.
  void Cancel(const Status& reason);

  /// Scans backward from the stable log's end dropping records whose CRC
  /// fails (torn tail). Called before constructing the log manager.
  static Status TruncateTornTail(SimulatedDisk* disk);

  /// Locates the most recent completed checkpoint via the disk's master
  /// record and deserializes it into `out`. Returns the CKPT_END LSN, or 0
  /// when recovery must start from the log head (`out` is then untouched) —
  /// always 0 for the history-rewriting baselines, whose checkpoints would
  /// be stale. Shared by restart and reenactment.
  static Result<Lsn> LocateCheckpoint(const Options& options,
                                      SimulatedDisk* disk, LogManager* log,
                                      CheckpointData* out);

 private:
  Status ForwardWork(const coord::Resolution* resolution);
  void BuildUndoGroups();
  void ArmLazyRedoAndGate();
  Status BackHalf();
  Status UndoPass();
  Status SweepGroup(size_t group, const CompensateFn& compensate,
                    PassTally* tally);
  Status DrainRemainingRedo();
  void Finish(Status status);
  void SetBacklogGauge();

  const Options options_;
  const bool instant_;
  const size_t threads_;
  SimulatedDisk* disk_;
  LogManager* log_;
  BufferPool* pool_;
  Stats* stats_;
  table::TableHeap* heap_;
  obs::Gauge* backlog_gauge_;

  ForwardPassResult fwd_;
  /// The undo groups: each one's loser scopes (empty under ChainUndo) and
  /// each of its losers with its backward-chain head, which the group's
  /// CLRs advance and its END records chain after.
  std::vector<std::vector<ScopeUndoTarget>> group_targets_;
  std::vector<std::unordered_map<TxnId, Lsn>> group_heads_;
  Outcome outcome_;

  std::unique_ptr<OnDemandRedo> ondemand_;  // kInstant only
  RecoveryGate gate_;                       // armed under kInstant only
  std::shared_ptr<RecoveryHandle> handle_;
  std::function<void()> on_complete_;

  std::atomic<bool> cancel_{false};
  std::atomic<bool> done_{false};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Status status_ = Status::OK();
  std::thread worker_;
};

/// The caller's view of one restart: progress while it runs, the merged
/// RecoveryManager::Outcome once it completes. Every shard reports its back
/// half's completion (or failure) here — under kFull before the open
/// returns, under kInstant from the background. Shared between the Database
/// facade, the shards' background threads, and any number of Await()ers.
class RecoveryHandle {
 public:
  using Outcome = RecoveryManager::Outcome;

  /// A handle for a restart that already finished (fresh opens).
  static std::shared_ptr<RecoveryHandle> Terminal(RecoveryMode mode,
                                                  Outcome outcome);

  /// A live handle awaiting `shards` completions.
  static std::shared_ptr<RecoveryHandle> Pending(RecoveryMode mode,
                                                 size_t shards);

  /// Blocks until every shard completed; returns the merged Outcome, or the
  /// first failure any shard reported.
  Result<Outcome> Await();

  bool done() const;
  bool failed() const;
  RecoveryMode mode() const { return mode_; }

  /// --- progress (live under kInstant) ---
  size_t shards_pending() const;
  /// Unresolved loser cluster groups across all shards.
  int64_t undo_backlog() const {
    return undo_backlog_.load(std::memory_order_relaxed);
  }
  /// Pages/buckets with pending on-demand redo across all shards.
  int64_t redo_pages_pending() const {
    return redo_pages_.load(std::memory_order_relaxed);
  }

  /// --- engine-side reporting ---
  void ShardDone(const Outcome& outcome);
  void ShardFailed(const Status& status);
  void AddUndoBacklog(int64_t delta) {
    undo_backlog_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::atomic<int64_t>* redo_pages_cell() { return &redo_pages_; }

 private:
  RecoveryHandle(RecoveryMode mode, size_t pending)
      : mode_(mode), pending_(pending) {}

  void MergeLocked(const Outcome& outcome);

  const RecoveryMode mode_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_;
  bool any_merged_ = false;
  Outcome merged_;
  Status status_ = Status::OK();
  std::atomic<int64_t> undo_backlog_{0};
  std::atomic<int64_t> redo_pages_{0};
};

}  // namespace ariesrh

#endif  // ARIESRH_RECOVERY_RECOVERY_MANAGER_H_
