#include "recovery/redo.h"

#include <algorithm>
#include <cassert>

namespace ariesrh {

Status ApplyRecordToPage(BufferPool* pool, const LogRecord& rec,
                         bool check_page_lsn, bool* applied,
                         table::TableHeap* heap) {
  if (applied != nullptr) *applied = false;
  if (IsTableWrite(rec.type) || rec.type == LogRecordType::kTableClr) {
    if (heap == nullptr) {
      return Status::IllegalState("table log record without a table heap");
    }
    // Logical replay is state-based: idempotence comes from replaying each
    // key's records in LSN order, not from a page-LSN check.
    ARIESRH_RETURN_IF_ERROR(heap->ApplyLogical(rec));
    if (applied != nullptr) *applied = true;
    return Status::OK();
  }
  assert(rec.type == LogRecordType::kUpdate ||
         rec.type == LogRecordType::kClr);
  const PageId page_id = PageOf(rec.object);
  return pool->WithPage(page_id, [&](Page* page) -> Lsn {
    if (check_page_lsn && page->page_lsn() >= rec.lsn) {
      return kInvalidLsn;  // the page already reflects this record
    }
    if (applied != nullptr) *applied = true;
    const uint32_t slot = SlotOf(rec.object);
    if (rec.kind == UpdateKind::kSet) {
      page->Set(slot, rec.after);
    } else {
      page->Add(slot, rec.after);
    }
    // CLRs from concurrent per-cluster undo sweeps can reach one page out of
    // LSN order (their slots differ, so the values commute); the page LSN
    // must still cover every applied record for the WAL rule on eviction.
    page->set_page_lsn(std::max(page->page_lsn(), rec.lsn));
    return rec.lsn;
  });
}

LogRecord MakeCompensation(const LogRecord& update, TxnId responsible,
                           Lsn prev) {
  if (IsTableWrite(update.type)) {
    return LogRecord::MakeTableClr(
        responsible, prev, update.object, update.key,
        /*remove=*/update.type == LogRecordType::kTableInsert,
        update.before_image, /*compensated=*/update.lsn,
        /*undo_next=*/update.prev_lsn);
  }
  assert(update.type == LogRecordType::kUpdate);
  const int64_t restore =
      update.kind == UpdateKind::kSet ? update.before : -update.after;
  return LogRecord::MakeClr(responsible, prev, update.object, update.kind,
                            /*restore_before=*/update.after,
                            /*restore_after=*/restore,
                            /*compensated=*/update.lsn,
                            /*undo_next=*/update.prev_lsn);
}

CompensateFn UndoUpdate(LogManager* log, BufferPool* pool, Stats* stats,
                        std::unordered_map<TxnId, Lsn>* bc_heads,
                        table::TableHeap* heap,
                        RecoveryFaultBudget* undo_budget,
                        std::atomic<uint64_t>* undone) {
  return [=](const LogRecord& update, TxnId responsible) -> Status {
    if (undo_budget != nullptr && !undo_budget->Spend()) {
      // Model the crash point: whatever undo work was logged becomes
      // durable up to here, then the system dies.
      ARIESRH_RETURN_IF_ERROR(log->FlushAll());
      return Status::IOError("injected crash during recovery undo");
    }
    auto head = bc_heads->find(responsible);
    LogRecord clr = MakeCompensation(
        update, responsible,
        head == bc_heads->end() ? kInvalidLsn : head->second);
    clr.lsn = log->Append(clr);
    (*bc_heads)[responsible] = clr.lsn;
    ARIESRH_RETURN_IF_ERROR(ApplyRecordToPage(
        pool, clr, /*check_page_lsn=*/false, /*applied=*/nullptr, heap));
    ++stats->recovery_undos;
    if (undone != nullptr) undone->fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  };
}

Status PartitionedRedo(const std::vector<RedoItem>& plan, size_t threads,
                       BufferPool* pool, Stats* stats,
                       RecoveryFaultBudget* redo_budget, uint64_t* applied,
                       table::TableHeap* heap) {
  if (applied != nullptr) *applied = 0;
  if (plan.empty()) return Status::OK();

  // Bucket by page, keeping the plan's (increasing-LSN) order inside each
  // bucket; one bucket is one work unit, so per-page order is preserved no
  // matter how workers interleave.
  std::unordered_map<PageId, std::vector<size_t>> by_page;
  for (size_t i = 0; i < plan.size(); ++i) {
    by_page[plan[i].page].push_back(i);
  }
  std::vector<std::vector<size_t>> buckets;
  buckets.reserve(by_page.size());
  for (auto& [page, items] : by_page) buckets.push_back(std::move(items));
  // Largest buckets first: the work queue then back-fills small buckets
  // behind the stragglers.
  std::sort(buckets.begin(), buckets.end(),
            [](const std::vector<size_t>& a, const std::vector<size_t>& b) {
              return a.size() > b.size();
            });

  std::atomic<uint64_t> total_applied{0};
  Status status =
      RunOnWorkers(threads, buckets.size(), [&](size_t b) -> Status {
        uint64_t bucket_applied = 0;
        for (size_t i : buckets[b]) {
          if (redo_budget != nullptr && !redo_budget->Spend()) {
            total_applied.fetch_add(bucket_applied,
                                    std::memory_order_relaxed);
            return Status::IOError("injected crash during recovery redo");
          }
          bool did = false;
          ARIESRH_RETURN_IF_ERROR(ApplyRecordToPage(
              pool, plan[i].rec, /*check_page_lsn=*/true, &did, heap));
          if (did) {
            ++stats->recovery_redos;
            ++bucket_applied;
          }
        }
        total_applied.fetch_add(bucket_applied, std::memory_order_relaxed);
        return Status::OK();
      });
  if (applied != nullptr) {
    *applied = total_applied.load(std::memory_order_relaxed);
  }
  return status;
}

}  // namespace ariesrh
