// The lazy machinery of instant restart (Options::recovery_mode = kInstant;
// docs/INSTANT_RESTART.md). The restart pipeline itself is RecoveryManager;
// under kInstant it arms these two before the engine opens and runs its back
// half in the background.
//
//   * Redo on demand: analysis collects the parsed redo plan
//     (ForwardPassKind::kAnalysisCollectRedo) and OnDemandRedo indexes it
//     per page. The buffer pool consults the index on every fetch and
//     replays that page's log suffix before anyone sees the frame; logical
//     table records are indexed per heap bucket and drained by the table
//     heap the same way. A page nobody touches is paid for only by the
//     back half's drain at the very end.
//
//   * The recovery gate: loser-scope cluster groups (PartitionUndoClusters)
//     are swept in the background while the engine serves new transactions.
//     The scope index is what makes this safe — RecoveryGate blocks exactly
//     the transactions whose footprints intersect a still-unresolved loser
//     cluster; everything else proceeds immediately. This is the RH-native
//     advantage: page-chain schemes need per-page recovery bits, RH already
//     knows every object a loser still covers.

#ifndef ARIESRH_RECOVERY_ONDEMAND_H_
#define ARIESRH_RECOVERY_ONDEMAND_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "recovery/redo.h"
#include "recovery/undo_rh.h"
#include "storage/page.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_record.h"

namespace ariesrh {

/// The per-page redo index of one shard's parsed redo plan. Thread-safe;
/// the no-pending fast path is one relaxed atomic load, so a fully-drained
/// index costs fetches nothing.
class OnDemandRedo {
 public:
  /// `plan` is the analysis sweep's redo plan in increasing LSN order.
  /// `remaining_external` (optional) is a progress cell (e.g. the
  /// RecoveryHandle's) decremented once per drained page/bucket.
  OnDemandRedo(std::vector<RedoItem> plan, Stats* stats,
               std::atomic<int64_t>* remaining_external = nullptr);

  /// Replays `id`'s pending plain-page records onto `page` (page-LSN
  /// checked, exactly what PartitionedRedo would have applied). Called by
  /// the buffer pool under its latch, right after the frame materializes.
  /// Returns the first LSN actually applied (the frame's rec_lsn), or
  /// kInvalidLsn when nothing was pending.
  Lsn DrainPage(PageId id, Page* page);

  /// Removes and returns a table bucket's pending logical records (in LSN
  /// order) for the table heap to replay under its own latch. `bucket_id`
  /// is RedoBucketOf's partition key (kHeapPageBase + bucket).
  std::vector<LogRecord> TakeBucket(PageId bucket_id);

  /// Plain (non-bucket) page ids still pending — the background drain
  /// fetches each to trigger DrainPage.
  std::vector<PageId> PendingPlainPages() const;

  size_t pages_remaining() const {
    return remaining_.load(std::memory_order_acquire);
  }
  uint64_t pages_drained() const {
    return pages_drained_.load(std::memory_order_relaxed);
  }
  uint64_t records_applied() const {
    return records_applied_.load(std::memory_order_relaxed);
  }

 private:
  Stats* stats_;
  std::atomic<int64_t>* remaining_external_;
  mutable std::mutex mu_;
  std::unordered_map<PageId, std::vector<LogRecord>> pending_;
  std::atomic<size_t> remaining_{0};
  std::atomic<uint64_t> pages_drained_{0};
  std::atomic<uint64_t> records_applied_{0};
};

/// Blocks foreground transactions whose object footprints intersect a
/// still-unresolved loser cluster group. Objects outside every loser scope
/// pass through on one relaxed atomic load.
class RecoveryGate {
 public:
  /// Indexes the cluster groups' objects. Call once, before any waiter.
  void Arm(const std::vector<std::vector<ScopeUndoTarget>>& groups);

  /// Blocks until every group covering `ob` is resolved. Returns the close
  /// status if the gate was closed (failed/cancelled restart) first.
  Status WaitForObject(ObjectId ob);

  /// Blocks until every group is resolved (scans, checkpoints).
  Status WaitForAll();

  /// Lifts the gate for one group's objects (its sweep completed).
  void MarkResolved(size_t group);

  /// Wakes every waiter with `status` (background pass failed or the engine
  /// is shutting down); unresolved objects stay blocked-with-error.
  void Close(Status status);

  size_t unresolved_groups() const {
    return unresolved_.load(std::memory_order_acquire);
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<ObjectId, std::vector<size_t>> by_object_;
  std::vector<char> resolved_;
  std::atomic<size_t> unresolved_{0};
  bool closed_ = false;
  Status close_status_ = Status::OK();
};

}  // namespace ariesrh

#endif  // ARIESRH_RECOVERY_ONDEMAND_H_
