#include "recovery/recovery_manager.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/parallel.h"
#include "recovery/redo.h"
#include "recovery/undo_conventional.h"
#include "recovery/undo_rh.h"
#include "wal/log_record.h"

namespace ariesrh {

namespace {

// Observes `ns` into the named per-pass latency histogram, if a metrics
// registry is attached.
void ObservePass(Stats* stats, const char* name, uint64_t ns) {
  if (obs::MetricsRegistry* registry = stats->registry()) {
    registry->GetHistogram(name)->Observe(ns);
  }
}

}  // namespace

RecoveryManager::RecoveryManager(const Options& options, SimulatedDisk* disk,
                                 LogManager* log, BufferPool* pool,
                                 Stats* stats, table::TableHeap* heap)
    : options_(options),
      disk_(disk),
      log_(log),
      pool_(pool),
      stats_(stats),
      heap_(heap) {}

Status RecoveryManager::TruncateTornTail(SimulatedDisk* disk) {
  while (disk->stable_end_lsn() >= kFirstLsn) {
    const Lsn last = disk->stable_end_lsn();
    Result<std::string> image = disk->ReadLogRecord(last);
    if (!image.ok()) return image.status();
    Result<LogRecord> rec = LogRecord::Deserialize(*image);
    if (rec.ok() && rec->lsn == last) return Status::OK();
    // Torn or misplaced record: drop it and keep probing backwards.
    ARIESRH_RETURN_IF_ERROR(disk->DropLastLogRecord());
  }
  return Status::OK();
}

std::string RecoveryManager::Outcome::ToString() const {
  std::ostringstream out;
  out << "recovery: " << winners << " winners, " << losers << " losers, "
      << threads_used << (threads_used == 1 ? " thread" : " threads");
  if (checkpoint_used != 0) {
    out << ", from checkpoint @" << checkpoint_used;
  }
  out << "\n  analysis: " << records_analyzed << " records in "
      << analysis_ns / 1000 << "us"
      << (merged_forward_pass ? " (merged with redo)" : "");
  out << "\n  redo:     " << records_redone << " applied";
  if (!merged_forward_pass) out << " in " << redo_ns / 1000 << "us";
  out << "\n  undo:     " << records_undone << " compensated in "
      << undo_ns / 1000 << "us (" << clusters_swept << " clusters, "
      << records_skipped << " records skipped)";
  if (in_doubt_committed + in_doubt_aborted > 0) {
    out << "\n  in-doubt: " << in_doubt_committed << " committed, "
        << in_doubt_aborted << " presumed-aborted (coordinator log)";
  }
  return out.str();
}

Result<Lsn> RecoveryManager::LocateCheckpoint(const Options& options,
                                              SimulatedDisk* disk,
                                              LogManager* log,
                                              CheckpointData* out) {
  // The history-rewriting baselines cannot start from a checkpoint: a
  // delegation *retroactively* edits records and chain heads that predate
  // the snapshot, so a checkpointed transaction table may be stale by the
  // time of the crash. (Yet another cost of physically rewriting history —
  // ARIES/RH has no such problem because the log is immutable.) They
  // recover from the log head instead.
  const bool can_use_checkpoint =
      options.delegation_mode == DelegationMode::kRH ||
      options.delegation_mode == DelegationMode::kDisabled;
  const Lsn ckpt_end_lsn = can_use_checkpoint ? disk->master_record() : 0;
  if (ckpt_end_lsn == 0 || ckpt_end_lsn > log->flushed_lsn()) {
    return static_cast<Lsn>(0);
  }
  ARIESRH_ASSIGN_OR_RETURN(LogRecord rec, log->Read(ckpt_end_lsn));
  if (rec.type != LogRecordType::kCkptEnd) {
    return Status::Corruption("master record does not point at CKPT_END");
  }
  ARIESRH_ASSIGN_OR_RETURN(*out,
                           CheckpointData::Deserialize(rec.ckpt_payload));
  return ckpt_end_lsn;
}

Result<RecoveryManager::Outcome> RecoveryManager::Recover(
    const coord::Resolution* resolution) {
  CheckpointData ckpt;
  Lsn ckpt_end_lsn = 0;
  ARIESRH_ASSIGN_OR_RETURN(ckpt_end_lsn,
                           LocateCheckpoint(options_, disk_, log_, &ckpt));
  const CheckpointData* ckpt_ptr = ckpt_end_lsn != 0 ? &ckpt : nullptr;

  const size_t threads = std::max<size_t>(1, options_.recovery_threads);
  Outcome outcome;
  outcome.checkpoint_used = ckpt_end_lsn;
  outcome.threads_used = static_cast<uint32_t>(threads);

  // Test-only crash injection, shared across workers.
  RecoveryFaultBudget redo_budget(options_.faults.crash_after_redo_records);
  RecoveryFaultBudget* redo_budget_ptr =
      options_.faults.crash_after_redo_records > 0 ? &redo_budget : nullptr;

  // Forward work: repeat history and rebuild the delegation state.
  ForwardPassResult fwd;
  if (threads > 1) {
    // Parallel layout: one serial analysis sweep collects the redo plan
    // (analysis is inherently sequential — scope transfers depend on log
    // order), then the plan replays page-partitioned on the worker pool.
    const uint64_t analysis_start = obs::MonotonicNanos();
    ARIESRH_ASSIGN_OR_RETURN(
        fwd, ForwardPass(options_.delegation_mode, log_, pool_, stats_,
                         ckpt_ptr, ckpt_end_lsn,
                         ForwardPassKind::kAnalysisCollectRedo,
                         /*redo_budget=*/nullptr, resolution, heap_));
    outcome.analysis_ns = obs::MonotonicNanos() - analysis_start;
    outcome.records_analyzed = fwd.records_scanned;
    ObservePass(stats_, "ariesrh_recovery_analysis_ns", outcome.analysis_ns);

    ++stats_->recovery_passes;
    obs::Emit(stats_->trace(), obs::TraceEventType::kRecoveryPassBegin,
              static_cast<uint64_t>(obs::RecoveryPassKind::kRedo),
              fwd.redo_plan.size(), threads);
    const uint64_t redo_start = obs::MonotonicNanos();
    uint64_t applied = 0;
    Status redo_status =
        PartitionedRedo(fwd.redo_plan, threads, pool_, stats_,
                        redo_budget_ptr, &applied, heap_);
    outcome.redo_ns = obs::MonotonicNanos() - redo_start;
    outcome.records_redone = applied;
    ObservePass(stats_, "ariesrh_recovery_redo_ns", outcome.redo_ns);
    obs::Emit(stats_->trace(), obs::TraceEventType::kRecoveryPassEnd,
              static_cast<uint64_t>(obs::RecoveryPassKind::kRedo),
              fwd.redo_plan.size(), applied);
    ARIESRH_RETURN_IF_ERROR(redo_status);
  } else if (options_.merged_forward_pass) {
    const uint64_t start = obs::MonotonicNanos();
    ARIESRH_ASSIGN_OR_RETURN(
        fwd, ForwardPass(options_.delegation_mode, log_, pool_, stats_,
                         ckpt_ptr, ckpt_end_lsn, ForwardPassKind::kMerged,
                         redo_budget_ptr, resolution, heap_));
    outcome.analysis_ns = obs::MonotonicNanos() - start;
    outcome.merged_forward_pass = true;
    outcome.records_analyzed = fwd.records_scanned;
    outcome.records_redone = fwd.records_redone;
    ObservePass(stats_, "ariesrh_recovery_analysis_ns", outcome.analysis_ns);
  } else {
    const uint64_t analysis_start = obs::MonotonicNanos();
    ARIESRH_ASSIGN_OR_RETURN(
        fwd,
        ForwardPass(options_.delegation_mode, log_, pool_, stats_, ckpt_ptr,
                    ckpt_end_lsn, ForwardPassKind::kAnalysisOnly,
                    /*redo_budget=*/nullptr, resolution, heap_));
    outcome.analysis_ns = obs::MonotonicNanos() - analysis_start;
    outcome.records_analyzed = fwd.records_scanned;
    ObservePass(stats_, "ariesrh_recovery_analysis_ns", outcome.analysis_ns);

    const uint64_t redo_start = obs::MonotonicNanos();
    ARIESRH_ASSIGN_OR_RETURN(
        ForwardPassResult redo,
        ForwardPass(options_.delegation_mode, log_, pool_, stats_, ckpt_ptr,
                    ckpt_end_lsn, ForwardPassKind::kRedoOnly, redo_budget_ptr,
                    /*resolution=*/nullptr, heap_));
    outcome.redo_ns = obs::MonotonicNanos() - redo_start;
    outcome.records_redone = redo.records_redone;
    ObservePass(stats_, "ariesrh_recovery_redo_ns", outcome.redo_ns);
  }

  // Resolve in-doubt (prepared) transactions before undo: a csn the
  // coordinator committed gets the COMMIT record its crash interrupted.
  const InDoubtVerdicts in_doubt =
      ResolveInDoubt(&fwd, resolution, [this](TxnId txn, TxnAnalysis& info) {
        info.last_lsn = log_->Append(LogRecord::MakeCommit(txn, info.last_lsn));
      });
  outcome.in_doubt_committed = in_doubt.committed;
  outcome.in_doubt_aborted = in_doubt.aborted;

  // Backward pass: undo the loser updates.
  ARIESRH_RETURN_IF_ERROR(UndoLosers(fwd, &outcome));

  // Every resolved transaction gets an END record so a crash during a later
  // run does not reconsider it.
  for (const auto& [txn, info] : fwd.txns) {
    if (info.committed) {
      ++outcome.winners;
      if (!info.ended) {
        log_->Append(LogRecord::MakeEnd(txn, info.last_lsn));
      }
    } else if (!info.ended) {
      ++outcome.losers;
    }
  }
  ARIESRH_RETURN_IF_ERROR(log_->FlushAll());

  outcome.next_txn_id = fwd.max_txn_id + 1;
  return outcome;
}

Status RecoveryManager::UndoLosers(const ForwardPassResult& fwd,
                                   Outcome* outcome) {
  ++stats_->recovery_passes;

  obs::Histogram* pass_ns = nullptr;
  if (obs::MetricsRegistry* registry = stats_->registry()) {
    pass_ns = registry->GetHistogram("ariesrh_recovery_pass_ns");
  }
  obs::ScopedLatencyTimer pass_timer(pass_ns);
  obs::Emit(stats_->trace(), obs::TraceEventType::kRecoveryPassBegin,
            static_cast<uint64_t>(obs::RecoveryPassKind::kUndo),
            kFirstLsn, fwd.scan_end);
  const uint64_t examined_before = stats_->recovery_backward_examined;
  const uint64_t undo_start = obs::MonotonicNanos();

  // Test-only: simulate a crash in the middle of the undo pass. The budget
  // is shared across workers when the undo runs parallel.
  RecoveryFaultBudget budget(options_.faults.crash_after_undo_steps);
  RecoveryFaultBudget* budget_ptr =
      options_.faults.crash_after_undo_steps > 0 ? &budget : nullptr;

  const size_t threads = std::max<size_t>(1, options_.recovery_threads);

  // CLRs written during undo chain onto each loser's backward chain.
  std::unordered_map<TxnId, Lsn> bc_heads;
  std::vector<TxnId> losers;
  for (const auto& [txn, info] : fwd.txns) {
    if (info.IsLoser()) {
      losers.push_back(txn);
      bc_heads[txn] = info.last_lsn;
    }
  }
  std::sort(losers.begin(), losers.end());
  // The pass counts its own work: this shard's Stats cells may aggregate
  // shards restarting concurrently.
  std::atomic<uint64_t> undone{0};
  std::atomic<uint64_t> skipped{0};
  const auto undo_update = [&](std::unordered_map<TxnId, Lsn>* heads) {
    return UndoUpdate(log_, pool_, stats_, heads, heap_, budget_ptr, &undone);
  };

  Status undo_status = Status::OK();
  if (options_.delegation_mode == DelegationMode::kRH) {
    // Undo the *loser updates* — via loser scope clusters (Figure 8).
    const std::vector<ScopeUndoTarget> targets = LoserScopeTargets(fwd);
    if (options_.undo_strategy == UndoStrategy::kFullScan) {
      // Ablation baseline: inherently a single sequential scan of every
      // record — parallelizing it would defeat its purpose, so it always
      // runs serial.
      outcome->clusters_swept = targets.empty() ? 0 : 1;
      undo_status = FullScanUndo(targets, fwd.compensated, fwd.scan_end, log_,
                                 stats_, undo_update(&bc_heads));
    } else {
      const std::vector<std::vector<ScopeUndoTarget>> groups =
          PartitionUndoClusters(targets);
      outcome->clusters_swept = groups.size();
      if (threads <= 1 || groups.size() <= 1) {
        undo_status =
            ScopeSweepUndo(targets, fwd.compensated, fwd.scan_end, log_,
                           stats_, undo_update(&bc_heads), &skipped);
      } else {
        // Parallel undo: one sweep per independent cluster group. Each
        // responsible transaction lives in exactly one group (the partition
        // merges on shared responsibility), so per-group chain-head maps
        // never conflict and merge back trivially.
        std::vector<std::unordered_map<TxnId, Lsn>> group_heads(
            groups.size());
        for (size_t g = 0; g < groups.size(); ++g) {
          for (const ScopeUndoTarget& target : groups[g]) {
            group_heads[g][target.responsible] =
                bc_heads.at(target.responsible);
          }
        }
        undo_status =
            RunOnWorkers(threads, groups.size(), [&](size_t g) -> Status {
              // Start each group's sweep at its own newest scope end; the
              // gap from the log end down to it is skipped regardless of
              // which worker sweeps it.
              Lsn group_from = kFirstLsn;
              for (const ScopeUndoTarget& target : groups[g]) {
                group_from = std::max(group_from, target.scope.last);
              }
              return ScopeSweepUndo(groups[g], fwd.compensated, group_from,
                                    log_, stats_, undo_update(&group_heads[g]),
                                    &skipped);
            });
        // Merge updated chain heads back (even on failure: the CLRs that
        // were written are durable work the END records must reflect).
        for (const auto& heads : group_heads) {
          for (const auto& [txn, head] : heads) bc_heads[txn] = head;
        }
      }
    }
  } else {
    // Conventional ARIES: follow loser backward chains. Correct for
    // kDisabled (no delegation) and for the eager / lazy-rewrite baselines
    // (history has been physically rewritten by now). The chain walk is a
    // single global max-LSN iteration, so it stays serial.
    std::unordered_map<TxnId, Lsn> loser_heads;
    for (TxnId txn : losers) {
      // In lazy-rewrite mode the forward pass's surgery may have moved the
      // chain heads; fwd.txns reflects that (delegate records touch both).
      loser_heads[txn] = fwd.txns.at(txn).last_lsn;
    }
    outcome->clusters_swept = loser_heads.empty() ? 0 : 1;
    undo_status =
        ChainUndo(loser_heads, log_, stats_, undo_update(&bc_heads));
  }

  outcome->undo_ns = obs::MonotonicNanos() - undo_start;
  outcome->records_undone = undone.load(std::memory_order_relaxed);
  outcome->records_skipped = skipped.load(std::memory_order_relaxed);
  ObservePass(stats_, "ariesrh_recovery_undo_ns", outcome->undo_ns);
  ARIESRH_RETURN_IF_ERROR(undo_status);

  // Rollback complete: write END records.
  for (TxnId txn : losers) {
    log_->Append(LogRecord::MakeEnd(txn, bc_heads[txn]));
  }
  obs::Emit(stats_->trace(), obs::TraceEventType::kRecoveryPassEnd,
            static_cast<uint64_t>(obs::RecoveryPassKind::kUndo),
            stats_->recovery_backward_examined - examined_before,
            outcome->records_undone);
  return Status::OK();
}

}  // namespace ariesrh
