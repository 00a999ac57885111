#include "recovery/ondemand.h"

#include <algorithm>

#include "table/table_heap.h"

namespace ariesrh {

// ---------------------------------------------------------------------------
// OnDemandRedo
// ---------------------------------------------------------------------------

OnDemandRedo::OnDemandRedo(std::vector<RedoItem> plan, Stats* stats,
                           std::atomic<int64_t>* remaining_external)
    : stats_(stats), remaining_external_(remaining_external) {
  for (RedoItem& item : plan) {
    pending_[item.page].push_back(std::move(item.rec));
  }
  remaining_.store(pending_.size(), std::memory_order_release);
  if (remaining_external_ != nullptr) {
    remaining_external_->fetch_add(static_cast<int64_t>(pending_.size()),
                                   std::memory_order_relaxed);
  }
}

Lsn OnDemandRedo::DrainPage(PageId id, Page* page) {
  if (remaining_.load(std::memory_order_acquire) == 0) return kInvalidLsn;
  std::vector<LogRecord> recs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(id);
    if (it == pending_.end()) return kInvalidLsn;
    recs = std::move(it->second);
    pending_.erase(it);
  }
  remaining_.fetch_sub(1, std::memory_order_release);
  if (remaining_external_ != nullptr) {
    remaining_external_->fetch_sub(1, std::memory_order_relaxed);
  }

  // Replay the page's log suffix, exactly what PartitionedRedo would have
  // applied: page-LSN checked, in the plan's (increasing-LSN) order. The
  // caller holds the pool latch, so the application is atomic with the
  // fetch; the first applied LSN is the frame's rec_lsn for the DPT.
  Lsn rec_lsn = kInvalidLsn;
  uint64_t applied = 0;
  for (const LogRecord& rec : recs) {
    if (page->page_lsn() >= rec.lsn) continue;
    const uint32_t slot = SlotOf(rec.object);
    if (rec.kind == UpdateKind::kSet) {
      page->Set(slot, rec.after);
    } else {
      page->Add(slot, rec.after);
    }
    page->set_page_lsn(std::max(page->page_lsn(), rec.lsn));
    if (rec_lsn == kInvalidLsn) rec_lsn = rec.lsn;
    ++applied;
  }

  pages_drained_.fetch_add(1, std::memory_order_relaxed);
  records_applied_.fetch_add(applied, std::memory_order_relaxed);
  ++stats_->ondemand_redo_pages;
  stats_->ondemand_redo_records += applied;
  stats_->recovery_redos += applied;
  return rec_lsn;
}

std::vector<LogRecord> OnDemandRedo::TakeBucket(PageId bucket_id) {
  if (remaining_.load(std::memory_order_acquire) == 0) return {};
  std::vector<LogRecord> recs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(bucket_id);
    if (it == pending_.end()) return {};
    recs = std::move(it->second);
    pending_.erase(it);
  }
  remaining_.fetch_sub(1, std::memory_order_release);
  if (remaining_external_ != nullptr) {
    remaining_external_->fetch_sub(1, std::memory_order_relaxed);
  }
  // State-based logical replay applies every record (idempotence is per-key
  // LSN order, not a page-LSN check), so the whole bucket counts as applied.
  pages_drained_.fetch_add(1, std::memory_order_relaxed);
  records_applied_.fetch_add(recs.size(), std::memory_order_relaxed);
  ++stats_->ondemand_redo_pages;
  stats_->ondemand_redo_records += recs.size();
  stats_->recovery_redos += recs.size();
  return recs;
}

std::vector<PageId> OnDemandRedo::PendingPlainPages() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PageId> ids;
  ids.reserve(pending_.size());
  for (const auto& [id, recs] : pending_) {
    if (id < table::kHeapPageBase) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// ---------------------------------------------------------------------------
// RecoveryGate
// ---------------------------------------------------------------------------

void RecoveryGate::Arm(
    const std::vector<std::vector<ScopeUndoTarget>>& groups) {
  std::lock_guard<std::mutex> lock(mu_);
  resolved_.assign(groups.size(), 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const ScopeUndoTarget& target : groups[g]) {
      std::vector<size_t>& covering = by_object_[target.object];
      if (covering.empty() || covering.back() != g) covering.push_back(g);
    }
  }
  unresolved_.store(groups.size(), std::memory_order_release);
}

Status RecoveryGate::WaitForObject(ObjectId ob) {
  if (unresolved_.load(std::memory_order_acquire) == 0) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  auto it = by_object_.find(ob);
  if (it == by_object_.end()) {
    return closed_ ? close_status_ : Status::OK();
  }
  const std::vector<size_t>& covering = it->second;
  auto lifted = [&] {
    for (size_t g : covering) {
      if (!resolved_[g]) return false;
    }
    return true;
  };
  cv_.wait(lock, [&] { return closed_ || lifted(); });
  if (lifted()) return Status::OK();
  return close_status_;
}

Status RecoveryGate::WaitForAll() {
  if (unresolved_.load(std::memory_order_acquire) == 0) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return closed_ || unresolved_.load(std::memory_order_acquire) == 0;
  });
  if (unresolved_.load(std::memory_order_acquire) == 0) return Status::OK();
  return close_status_;
}

void RecoveryGate::MarkResolved(size_t group) {
  std::lock_guard<std::mutex> lock(mu_);
  if (resolved_[group]) return;
  resolved_[group] = 1;
  unresolved_.fetch_sub(1, std::memory_order_release);
  cv_.notify_all();
}

void RecoveryGate::Close(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  closed_ = true;
  close_status_ = std::move(status);
  cv_.notify_all();
}

}  // namespace ariesrh
