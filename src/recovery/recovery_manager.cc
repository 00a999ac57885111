#include "recovery/recovery_manager.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <unordered_set>
#include <utility>

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
                                 Stats* stats, table::TableHeap* heap,
                                 obs::Gauge* backlog_gauge)
    : options_(options),
      instant_(options.recovery_mode == RecoveryMode::kInstant),
      threads_(std::max<size_t>(1, options.recovery_threads)),
      disk_(disk),
      log_(log),
      pool_(pool),
      stats_(stats),
      heap_(heap),
      backlog_gauge_(backlog_gauge) {}

RecoveryManager::~RecoveryManager() {
  Cancel(Status::Aborted("restart torn down"));
}

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

Status RecoveryManager::Start(const coord::Resolution* resolution,
                              std::shared_ptr<RecoveryHandle> handle,
                              TxnId* next_txn_id) {
  handle_ = std::move(handle);
  outcome_.threads_used = static_cast<uint32_t>(threads_);
  ARIESRH_RETURN_IF_ERROR(ForwardWork(resolution));

  // Resolve in-doubt (prepared) transactions before anything opens: a csn
  // the coordinator committed gets the COMMIT record its crash interrupted.
  const InDoubtVerdicts in_doubt =
      ResolveInDoubt(&fwd_, resolution, [this](TxnId txn, TxnAnalysis& info) {
        info.last_lsn = log_->Append(LogRecord::MakeCommit(txn, info.last_lsn));
      });
  outcome_.in_doubt_committed = in_doubt.committed;
  outcome_.in_doubt_aborted = in_doubt.aborted;

  BuildUndoGroups();

  // Transactions analysis alone fully resolves get END records up front:
  // winners, and losers with nothing to undo. Every other loser gets its END
  // when its undo group's sweep completes, so a crash during the back half
  // does not reconsider the resolved ones.
  std::unordered_set<TxnId> grouped;
  for (const auto& heads : group_heads_) {
    for (const auto& [txn, head] : heads) grouped.insert(txn);
  }
  for (const auto& [txn, info] : fwd_.txns) {
    if (info.committed) {
      ++outcome_.winners;
      if (!info.ended) log_->Append(LogRecord::MakeEnd(txn, info.last_lsn));
    } else if (!info.ended) {
      ++outcome_.losers;
      if (!grouped.contains(txn)) {
        log_->Append(LogRecord::MakeEnd(txn, info.last_lsn));
      }
    }
  }

  if (instant_) ArmLazyRedoAndGate();
  outcome_.next_txn_id = fwd_.max_txn_id + 1;
  *next_txn_id = outcome_.next_txn_id;

  // The front half's appends (in-doubt COMMITs, up-front ENDs) go stable
  // before the open, so a crash right after it re-resolves identically.
  return log_->FlushAll();
}

Status RecoveryManager::ForwardWork(const coord::Resolution* resolution) {
  CheckpointData ckpt;
  Lsn ckpt_end_lsn = 0;
  ARIESRH_ASSIGN_OR_RETURN(ckpt_end_lsn,
                           LocateCheckpoint(options_, disk_, log_, &ckpt));
  const CheckpointData* ckpt_ptr = ckpt_end_lsn != 0 ? &ckpt : nullptr;
  outcome_.checkpoint_used = ckpt_end_lsn;

  // Test-only crash injection, shared across redo workers.
  RecoveryFaultBudget redo_budget(options_.faults.crash_after_redo_records);
  RecoveryFaultBudget* redo_budget_ptr =
      options_.faults.crash_after_redo_records > 0 ? &redo_budget : nullptr;
  const auto forward_pass = [&](ForwardPassKind kind,
                                RecoveryFaultBudget* budget,
                                const coord::Resolution* verdicts) {
    return ForwardPass(options_.delegation_mode, log_, pool_, stats_,
                       ckpt_ptr, ckpt_end_lsn, kind, budget, verdicts, heap_);
  };

  // The analysis-bearing sweep rebuilds the transaction table and the scope
  // index; it is serial (scope transfers depend on log order). kFull at one
  // thread repeats history in the same sweep (or, as the three-pass
  // ablation, in a second one); otherwise the sweep collects the redo plan.
  ForwardPassKind kind = ForwardPassKind::kAnalysisCollectRedo;
  if (!instant_ && threads_ == 1) {
    kind = options_.merged_forward_pass ? ForwardPassKind::kMerged
                                        : ForwardPassKind::kAnalysisOnly;
  }
  const uint64_t analysis_start = obs::MonotonicNanos();
  ARIESRH_ASSIGN_OR_RETURN(
      fwd_, forward_pass(kind,
                         kind == ForwardPassKind::kMerged ? redo_budget_ptr
                                                          : nullptr,
                         resolution));
  outcome_.analysis_ns = obs::MonotonicNanos() - analysis_start;
  outcome_.records_analyzed = fwd_.records_scanned;
  ObservePass(stats_, "ariesrh_recovery_analysis_ns", outcome_.analysis_ns);

  const uint64_t redo_start = obs::MonotonicNanos();
  if (kind == ForwardPassKind::kMerged) {
    outcome_.merged_forward_pass = true;
    outcome_.records_redone = fwd_.records_redone;
    return Status::OK();
  }
  if (kind == ForwardPassKind::kAnalysisOnly) {
    ARIESRH_ASSIGN_OR_RETURN(
        ForwardPassResult redo,
        forward_pass(ForwardPassKind::kRedoOnly, redo_budget_ptr, nullptr));
    outcome_.records_redone = redo.records_redone;
  } else if (instant_) {
    return Status::OK();  // the plan feeds the on-demand redo index
  } else {
    // kFull with workers: the plan replays page-partitioned on the pool.
    ++stats_->recovery_passes;
    obs::Emit(stats_->trace(), obs::TraceEventType::kRecoveryPassBegin,
              static_cast<uint64_t>(obs::RecoveryPassKind::kRedo),
              fwd_.redo_plan.size(), threads_);
    uint64_t applied = 0;
    Status redo_status = PartitionedRedo(fwd_.redo_plan, threads_, pool_,
                                         stats_, redo_budget_ptr, &applied,
                                         heap_);
    obs::Emit(stats_->trace(), obs::TraceEventType::kRecoveryPassEnd,
              static_cast<uint64_t>(obs::RecoveryPassKind::kRedo),
              fwd_.redo_plan.size(), applied);
    fwd_.redo_plan = {};
    outcome_.records_redone = applied;
    ARIESRH_RETURN_IF_ERROR(redo_status);
  }
  outcome_.redo_ns = obs::MonotonicNanos() - redo_start;
  ObservePass(stats_, "ariesrh_recovery_redo_ns", outcome_.redo_ns);
  return Status::OK();
}

void RecoveryManager::BuildUndoGroups() {
  if (options_.delegation_mode != DelegationMode::kRH) {
    // Conventional ARIES: follow loser backward chains. Correct for
    // kDisabled (no delegation) and for the eager / lazy-rewrite baselines
    // (history has been physically rewritten by now; in lazy-rewrite mode
    // the forward pass's surgery moved the chain heads, which fwd_.txns
    // reflects). The walk is one global max-LSN iteration: one group.
    std::unordered_map<TxnId, Lsn> heads;
    for (const auto& [txn, info] : fwd_.txns) {
      if (info.IsLoser()) heads[txn] = info.last_lsn;
    }
    if (!heads.empty()) {
      group_targets_.emplace_back();
      group_heads_.push_back(std::move(heads));
    }
  } else {
    // Undo the *loser updates* — via loser scope clusters (Figure 8).
    std::vector<ScopeUndoTarget> targets = LoserScopeTargets(fwd_);
    if (targets.empty()) return;
    if (options_.undo_strategy == UndoStrategy::kFullScan) {
      // Ablation baseline: inherently one sequential scan of every record —
      // splitting it would defeat its purpose.
      group_targets_.push_back(std::move(targets));
    } else {
      group_targets_ = PartitionUndoClusters(targets);
    }
    // Each responsible transaction lives in exactly one group (the
    // partition merges on shared responsibility), so the groups' chain
    // heads never conflict.
    group_heads_.resize(group_targets_.size());
    for (size_t g = 0; g < group_targets_.size(); ++g) {
      for (const ScopeUndoTarget& target : group_targets_[g]) {
        group_heads_[g][target.responsible] =
            fwd_.txns.at(target.responsible).last_lsn;
      }
    }
  }
  outcome_.clusters_swept = group_targets_.size();
}

void RecoveryManager::ArmLazyRedoAndGate() {
  // The redo index feeds the pool's (and heap's) fetch path, the gate the
  // transaction entry points.
  ondemand_ = std::make_unique<OnDemandRedo>(
      std::move(fwd_.redo_plan), stats_,
      handle_ != nullptr ? handle_->redo_pages_cell() : nullptr);
  gate_.Arm(group_targets_);
  if (handle_ != nullptr) {
    handle_->AddUndoBacklog(static_cast<int64_t>(group_targets_.size()));
  }
  SetBacklogGauge();

  OnDemandRedo* ondemand = ondemand_.get();
  pool_->set_redo_resolve([ondemand](PageId id, Page* page) {
    return ondemand->DrainPage(id, page);
  });
  if (heap_ != nullptr) {
    heap_->set_redo_resolve([ondemand](size_t bucket) {
      return ondemand->TakeBucket(table::kHeapPageBase +
                                  static_cast<PageId>(bucket));
    });
  }
}

void RecoveryManager::Run(std::function<void()> on_complete) {
  on_complete_ = std::move(on_complete);
  if (instant_) {
    worker_ = std::thread([this] { Finish(BackHalf()); });
  } else {
    Finish(BackHalf());
  }
}

Status RecoveryManager::BackHalf() {
  Status status = UndoPass();
  if (status.ok() && ondemand_ != nullptr) status = DrainRemainingRedo();
  if (status.ok()) status = log_->FlushAll();
  // The restart's working set is not needed past this point.
  fwd_ = ForwardPassResult{};
  group_targets_ = {};
  group_heads_ = {};
  return status;
}

Status RecoveryManager::UndoPass() {
  ++stats_->recovery_passes;
  obs::Histogram* pass_ns = nullptr;
  if (obs::MetricsRegistry* registry = stats_->registry()) {
    pass_ns = registry->GetHistogram("ariesrh_recovery_pass_ns");
  }
  obs::ScopedLatencyTimer pass_timer(pass_ns);
  obs::Emit(stats_->trace(), obs::TraceEventType::kRecoveryPassBegin,
            static_cast<uint64_t>(obs::RecoveryPassKind::kUndo), kFirstLsn,
            fwd_.scan_end);
  const uint64_t undo_start = obs::MonotonicNanos();

  // Test-only: simulate a crash in the middle of the undo pass. The budget
  // is shared across workers.
  RecoveryFaultBudget budget(options_.faults.crash_after_undo_steps);
  RecoveryFaultBudget* budget_ptr =
      options_.faults.crash_after_undo_steps > 0 ? &budget : nullptr;
  // The pass counts its own work: this shard's Stats cells may aggregate
  // shards restarting concurrently.
  std::atomic<uint64_t> undone{0};
  PassTally tally;
  if (options_.delegation_mode == DelegationMode::kRH &&
      options_.undo_strategy == UndoStrategy::kScopeClusters) {
    // The group sweeps credit no gaps (one group's gaps can hold another
    // group's clusters); the pass credits them once, over all its scopes.
    std::vector<ScopeUndoTarget> targets;
    for (const std::vector<ScopeUndoTarget>& group : group_targets_) {
      targets.insert(targets.end(), group.begin(), group.end());
    }
    outcome_.records_skipped =
        CreditSkippedGaps(targets, fwd_.scan_end, stats_);
  }

  Status status =
      RunOnWorkers(threads_, group_targets_.size(), [&](size_t g) -> Status {
        if (cancel_.load(std::memory_order_acquire)) {
          return Status::Aborted("restart cancelled");
        }
        ARIESRH_RETURN_IF_ERROR(SweepGroup(
            g,
            UndoUpdate(log_, pool_, stats_, &group_heads_[g], heap_,
                       budget_ptr, &undone),
            &tally));
        // The group's losers are fully rolled back: END them and, under
        // kInstant, lift the gate for every object the group covered.
        for (const auto& [txn, head] : group_heads_[g]) {
          log_->Append(LogRecord::MakeEnd(txn, head));
        }
        if (instant_) {
          gate_.MarkResolved(g);
          if (handle_ != nullptr) handle_->AddUndoBacklog(-1);
          SetBacklogGauge();
        }
        return Status::OK();
      });

  outcome_.undo_ns = obs::MonotonicNanos() - undo_start;
  outcome_.records_undone = undone.load(std::memory_order_relaxed);
  ObservePass(stats_, "ariesrh_recovery_undo_ns", outcome_.undo_ns);
  obs::Emit(stats_->trace(), obs::TraceEventType::kRecoveryPassEnd,
            static_cast<uint64_t>(obs::RecoveryPassKind::kUndo),
            tally.examined.load(std::memory_order_relaxed),
            outcome_.records_undone);
  return status;
}

Status RecoveryManager::SweepGroup(size_t group, const CompensateFn& compensate,
                                   PassTally* tally) {
  if (options_.delegation_mode != DelegationMode::kRH) {
    // A copy: the CLRs advance the group's live chain heads.
    const std::unordered_map<TxnId, Lsn> heads = group_heads_[group];
    return ChainUndo(heads, log_, stats_, compensate, /*floor=*/0, tally);
  }
  if (options_.undo_strategy == UndoStrategy::kFullScan) {
    return FullScanUndo(group_targets_[group], fwd_.compensated,
                        fwd_.scan_end, log_, stats_, compensate, tally);
  }
  return ScopeSweepUndo(group_targets_[group], fwd_.compensated,
                        fwd_.scan_end, log_, stats_, compensate, tally);
}

Status RecoveryManager::DrainRemainingRedo() {
  const uint64_t drain_start = obs::MonotonicNanos();
  for (PageId id : ondemand_->PendingPlainPages()) {
    if (cancel_.load(std::memory_order_acquire)) {
      return Status::Aborted("restart cancelled");
    }
    // Fetching is enough: the pool's resolve hook drains the page and marks
    // it dirty with the drained suffix's first LSN.
    ARIESRH_RETURN_IF_ERROR(
        pool_->WithPage(id, [](Page*) { return kInvalidLsn; }));
  }
  if (heap_ != nullptr) {
    ARIESRH_RETURN_IF_ERROR(heap_->DrainPending());
  }
  outcome_.redo_ns = obs::MonotonicNanos() - drain_start;
  outcome_.records_redone = ondemand_->records_applied();
  return Status::OK();
}

void RecoveryManager::Finish(Status status) {
  std::function<void()> on_complete;
  {
    std::lock_guard<std::mutex> lock(mu_);
    status_ = status;
    on_complete = std::move(on_complete_);
    done_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  if (!status.ok()) {
    // Wake every blocked transaction with the failure; the shard stays
    // half-recovered until SimulateCrash() and another restart.
    gate_.Close(status);
    if (handle_ != nullptr) handle_->ShardFailed(status);
    return;
  }
  if (backlog_gauge_ != nullptr) backlog_gauge_->Set(0);
  if (on_complete) on_complete();
  if (handle_ != nullptr) handle_->ShardDone(outcome_);
}

Status RecoveryManager::WaitForObject(ObjectId ob) {
  if (done_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }
  return gate_.WaitForObject(ob);
}

Status RecoveryManager::WaitForAll() {
  Status gate_status = gate_.WaitForAll();
  if (!gate_status.ok()) return gate_status;
  if (done_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }
  return Status::OK();
}

Status RecoveryManager::Await() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_.load(std::memory_order_acquire); });
  return status_;
}

void RecoveryManager::Cancel(const Status& reason) {
  cancel_.store(true, std::memory_order_release);
  gate_.Close(reason);
  if (worker_.joinable()) worker_.join();
}

void RecoveryManager::SetBacklogGauge() {
  if (backlog_gauge_ != nullptr) {
    backlog_gauge_->Set(static_cast<int64_t>(gate_.unresolved_groups()));
  }
}

// ---------------------------------------------------------------------------
// RecoveryHandle
// ---------------------------------------------------------------------------

std::shared_ptr<RecoveryHandle> RecoveryHandle::Terminal(RecoveryMode mode,
                                                         Outcome outcome) {
  auto handle = std::shared_ptr<RecoveryHandle>(new RecoveryHandle(mode, 0));
  handle->merged_ = std::move(outcome);
  handle->any_merged_ = true;
  return handle;
}

std::shared_ptr<RecoveryHandle> RecoveryHandle::Pending(RecoveryMode mode,
                                                        size_t shards) {
  return std::shared_ptr<RecoveryHandle>(new RecoveryHandle(mode, shards));
}

Result<RecoveryHandle::Outcome> RecoveryHandle::Await() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return pending_ == 0; });
  if (!status_.ok()) return status_;
  return merged_;
}

bool RecoveryHandle::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_ == 0;
}

bool RecoveryHandle::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !status_.ok();
}

size_t RecoveryHandle::shards_pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

void RecoveryHandle::ShardDone(const Outcome& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  MergeLocked(outcome);
  if (pending_ > 0) --pending_;
  cv_.notify_all();
}

void RecoveryHandle::ShardFailed(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (status_.ok()) status_ = status;
  if (pending_ > 0) --pending_;
  cv_.notify_all();
}

void RecoveryHandle::MergeLocked(const Outcome& outcome) {
  if (!any_merged_) {
    merged_ = outcome;
    any_merged_ = true;
    return;
  }
  // Same shape as the sharded facade's historical merge: wall-clock times
  // and id-space maxima take the max (shards recover concurrently), counted
  // work sums.
  merged_.next_txn_id = std::max(merged_.next_txn_id, outcome.next_txn_id);
  merged_.winners += outcome.winners;
  merged_.losers += outcome.losers;
  merged_.checkpoint_used =
      std::max(merged_.checkpoint_used, outcome.checkpoint_used);
  merged_.threads_used = std::max(merged_.threads_used, outcome.threads_used);
  merged_.merged_forward_pass =
      merged_.merged_forward_pass || outcome.merged_forward_pass;
  merged_.analysis_ns = std::max(merged_.analysis_ns, outcome.analysis_ns);
  merged_.redo_ns = std::max(merged_.redo_ns, outcome.redo_ns);
  merged_.undo_ns = std::max(merged_.undo_ns, outcome.undo_ns);
  merged_.records_analyzed += outcome.records_analyzed;
  merged_.records_redone += outcome.records_redone;
  merged_.records_undone += outcome.records_undone;
  merged_.clusters_swept += outcome.clusters_swept;
  merged_.records_skipped += outcome.records_skipped;
  merged_.in_doubt_committed += outcome.in_doubt_committed;
  merged_.in_doubt_aborted += outcome.in_doubt_aborted;
}

}  // namespace ariesrh
