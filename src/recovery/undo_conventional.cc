#include "recovery/undo_conventional.h"

#include <queue>
#include <vector>

namespace ariesrh {

Status ChainUndo(const std::unordered_map<TxnId, Lsn>& loser_heads,
                 const LogManager* log, Stats* stats,
                 const CompensateFn& compensate, Lsn floor,
                 PassTally* tally) {
  // Outstanding (next LSN to undo, owner); always process the maximum LSN
  // next so log accesses are monotonically decreasing.
  using Entry = std::pair<Lsn, TxnId>;
  std::priority_queue<Entry> todo;
  for (const auto& [txn, head] : loser_heads) {
    if (head != kInvalidLsn && head > floor) todo.emplace(head, txn);
  }

  while (!todo.empty()) {
    auto [lsn, txn] = todo.top();
    todo.pop();
    ++stats->recovery_backward_examined;
    if (tally != nullptr) {
      tally->examined.fetch_add(1, std::memory_order_relaxed);
    }
    ARIESRH_ASSIGN_OR_RETURN(LogRecord rec, log->Read(lsn));

    Lsn next = kInvalidLsn;
    switch (rec.type) {
      case LogRecordType::kUpdate:
      case LogRecordType::kTableInsert:
      case LogRecordType::kTableUpdate:
      case LogRecordType::kTableDelete:
        ARIESRH_RETURN_IF_ERROR(compensate(rec, txn));
        next = rec.prev_lsn;
        break;
      case LogRecordType::kClr:
      case LogRecordType::kTableClr:
        // Everything between this CLR and its undo-next is already undone.
        next = rec.undo_next_lsn;
        break;
      case LogRecordType::kDelegate:
        next = (txn == rec.tor) ? rec.tor_bc : rec.tee_bc;
        break;
      default:
        // BEGIN normally ends the chain (prev == kInvalidLsn), but history
        // rewriting can splice older, moved records behind it — follow the
        // pointer rather than assuming.
        next = rec.prev_lsn;
        break;
    }
    if (next != kInvalidLsn && next > floor) todo.emplace(next, txn);
  }
  return Status::OK();
}

}  // namespace ariesrh
