// Read-only transactions leave no trace in the log. A transaction's BEGIN is
// appended lazily, with its first own record, so a reader's commit or abort
// appends nothing and forces nothing (presumed-abort R*'s read-only
// optimization). These tests pin that down at 1, 2 and 4 shards:
//
//   * readers append no shard record, force no log, and write nothing to the
//     coordinator log;
//   * a reader of an early-released writer reports commit only once that
//     writer's COMMIT is durable, and fails if the COMMIT is lost;
//   * a shard where a transaction only read votes read-only, so one writing
//     shard commits one-phase and several still run full 2PC;
//   * checkpoints leave BEGIN-less transactions out, so restart finds no
//     loser for them;
//   * a randomized oracle with crashes: acknowledged writes survive,
//     StateAt(tail) equals the restarted state, and no read returned a value
//     that the restart lost.

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/engine_shard.h"
#include "recovery/checkpoint.h"
#include "reenact/reenact.h"
#include "util/random.h"
#include "test_restart.h"

namespace ariesrh {
namespace {

Options ShardedOptions(size_t shards,
                       RecoveryMode mode = RecoveryMode::kFull) {
  Options options;
  options.num_shards = shards;
  options.recovery_mode = mode;
  return options;
}

ObjectId ObOnShard(const Database& db, size_t shard, ObjectId from = 1) {
  for (ObjectId ob = from;; ++ob) {
    if (db.ShardOf(ob) == shard) return ob;
  }
}

std::vector<Lsn> EndLsns(Database* db) {
  std::vector<Lsn> ends;
  for (size_t s = 0; s < db->num_shards(); ++s) {
    ends.push_back(db->shard(s)->log_manager()->end_lsn());
  }
  return ends;
}

size_t CoordRecords(Database* db) {
  return db->coordinator_log() == nullptr
             ? 0
             : db->coordinator_log()->stable_size();
}

/// Records every protocol point a commit passes.
std::vector<std::string> PointsOfCommit(Database* db, TxnId txn,
                                        Status* status) {
  std::vector<std::string> points;
  db->set_protocol_test_hook([&](const std::string& at) {
    points.push_back(at);
    return Status::OK();
  });
  *status = db->Commit(txn);
  db->set_protocol_test_hook(nullptr);
  return points;
}

/// The transactions the shard's last checkpoint recorded as active.
std::vector<TxnId> CheckpointedTxns(Database* db, size_t shard) {
  EngineShard* s = db->shard(shard);
  Result<LogRecord> end = s->log_manager()->Read(s->disk()->master_record());
  EXPECT_TRUE(end.ok()) << end.status().ToString();
  if (!end.ok()) return {};
  Result<CheckpointData> data = CheckpointData::Deserialize(end->ckpt_payload);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  std::vector<TxnId> ids;
  if (data.ok()) {
    for (const auto& snap : data->active_txns) ids.push_back(snap.id);
  }
  return ids;
}

class ReadOnlyCommitTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ReadOnlyCommitTest, ReadersAppendNothingAndForceNothing) {
  const size_t shards = GetParam();
  Database db(ShardedOptions(shards));
  std::vector<ObjectId> obs;
  for (size_t s = 0; s < shards; ++s) obs.push_back(ObOnShard(db, s, 10 * s));
  TxnId setup = *db.Begin();
  for (ObjectId ob : obs) ASSERT_TRUE(db.Set(setup, ob, 100 + ob).ok());
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(
        db.TablePut(setup, "key" + std::to_string(k), "v" + std::to_string(k))
            .ok());
  }
  ASSERT_TRUE(db.Commit(setup).ok());
  ASSERT_TRUE(db.Sync().ok());

  const std::vector<Lsn> ends = EndLsns(&db);
  const size_t coord_records = CoordRecords(&db);
  const Stats before = db.stats();

  TxnId reader = *db.Begin();
  for (ObjectId ob : obs) {
    Result<int64_t> value = db.Read(reader, ob);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(*value, 100 + static_cast<int64_t>(ob));
  }
  Result<std::optional<std::string>> got = db.TableGet(reader, "key3");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value_or(""), "v3");
  Result<std::vector<std::pair<std::string, std::string>>> rows =
      db.TableScan(reader, "", 0);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 8u);
  Status status;
  const std::vector<std::string> points = PointsOfCommit(&db, reader, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(points.empty()) << "a reader ran a commit protocol";
  EXPECT_FALSE(db.IsActive(reader));

  TxnId aborter = *db.Begin();
  ASSERT_TRUE(db.Read(aborter, obs.back()).ok());
  ASSERT_TRUE(db.TableGet(aborter, "key5").ok());
  ASSERT_TRUE(db.Abort(aborter).ok());
  EXPECT_FALSE(db.IsActive(aborter));

  const Stats delta = db.stats().Delta(before);
  EXPECT_EQ(EndLsns(&db), ends);
  EXPECT_EQ(delta.log_appends, 0u);
  EXPECT_EQ(delta.log_flushes, 0u);
  EXPECT_EQ(delta.txns_committed, shards);  // the scan enlisted every shard
  EXPECT_GE(delta.txns_aborted, 1u);
  ASSERT_TRUE(db.Sync().ok());
  EXPECT_EQ(CoordRecords(&db), coord_records);

  // The readers' locks are gone: a writer takes every object at once.
  TxnId writer = *db.Begin();
  for (ObjectId ob : obs) EXPECT_TRUE(db.Set(writer, ob, 1).ok());
  EXPECT_TRUE(db.TablePut(writer, "key3", "w").ok());
  ASSERT_TRUE(db.Commit(writer).ok());
}

TEST_P(ReadOnlyCommitTest, CheckpointWithBeginlessTxnOpenLeavesNoLoser) {
  const size_t shards = GetParam();
  Database db(ShardedOptions(shards));
  std::vector<ObjectId> obs;
  for (size_t s = 0; s < shards; ++s) obs.push_back(ObOnShard(db, s, 10 * s));
  TxnId setup = *db.Begin();
  for (ObjectId ob : obs) ASSERT_TRUE(db.Set(setup, ob, 5).ok());
  ASSERT_TRUE(db.Commit(setup).ok());

  TxnId reader = *db.Begin();
  for (ObjectId ob : obs) ASSERT_TRUE(db.Read(reader, ob).ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  for (size_t s = 0; s < shards; ++s) {
    EXPECT_TRUE(CheckpointedTxns(&db, s).empty()) << "shard " << s;
  }

  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(&db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->losers, 0u);
  for (ObjectId ob : obs) EXPECT_EQ(*db.ReadCommitted(ob), 5);
}

INSTANTIATE_TEST_SUITE_P(Shards, ReadOnlyCommitTest, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

TEST(ReadOnlyCheckpointTest, SnapshotCopiesOnlyLiveTransactions) {
  Database db;
  for (int i = 0; i < 50; ++i) {
    TxnId t = *db.Begin();
    ASSERT_TRUE(db.Add(t, 1 + i % 7, 1).ok());
    ASSERT_TRUE(i % 5 == 0 ? db.Abort(t).ok() : db.Commit(t).ok());
  }
  TxnId writer = *db.Begin();
  ASSERT_TRUE(db.Set(writer, 20, 1).ok());
  TxnId reader = *db.Begin();
  ASSERT_TRUE(db.Read(reader, 21).ok());

  const std::map<TxnId, Transaction> snapshot =
      db.txn_manager()->SnapshotTransactions();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_TRUE(snapshot.contains(writer));
  EXPECT_TRUE(snapshot.contains(reader));

  // The checkpoint records only the one that logged something.
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_EQ(CheckpointedTxns(&db, 0), std::vector<TxnId>{writer});
}

// --- Early lock release: a reader waits for what it read to be durable ---

// A window far longer than any test: a parked commit stays parked until the
// batch fills, the tail is discarded, or the flusher stops.
constexpr uint64_t kParkWindowUs = 5'000'000;

Options ElrOptions() {
  Options options;
  options.group_commit = true;
  options.group_commit_window_us = kParkWindowUs;
  options.group_commit_target_batch = 3;
  options.early_lock_release = true;
  return options;
}

/// Commits a setup transaction writing 100 to `ob` with `log`'s flusher
/// stopped (a direct force, so no parking window), then restarts the flusher
/// with the parking window and `target_batch`.
void CommitSetup(Database* db, LogManager* log, ObjectId ob,
                 uint64_t target_batch) {
  log->StopGroupCommit();
  TxnId setup = *db->Begin();
  ASSERT_TRUE(db->Set(setup, ob, 100).ok());
  ASSERT_TRUE(db->Commit(setup).ok());
  LogManager::GroupCommitConfig config;
  config.window_us = kParkWindowUs;
  config.target_batch = target_batch;
  log->StartGroupCommit(config);
}

void CommitSetup(Database* db) { CommitSetup(db, db->log_manager(), 1, 3); }

/// Reads `ob` until the parked writer's early lock release lets it through;
/// gives up after ~2 s so a regression fails rather than hangs.
Result<int64_t> ReadWithRetry(Database* db, TxnId txn, ObjectId ob = 1) {
  for (int i = 0; i < 400; ++i) {
    Result<int64_t> value = db->Read(txn, ob);
    if (!value.status().IsBusy()) return value;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Status::Busy("lock never released");
}

TEST(ReadOnlyElrTest, ReaderCommitReturnsOnlyOnceTheWriterCommitIsDurable) {
  Database db(ElrOptions());
  CommitSetup(&db);

  TxnId writer = *db.Begin();
  ASSERT_TRUE(db.Set(writer, 1, 7).ok());
  Status writer_status;
  std::thread writer_commit([&] { writer_status = db.Commit(writer); });

  TxnId reader = *db.Begin();
  Result<int64_t> seen = ReadWithRetry(&db, reader);
  ASSERT_TRUE(seen.ok()) << seen.status().ToString();
  EXPECT_EQ(*seen, 7);  // the early-released, not yet durable write
  const Lsn writer_commit_lsn = db.txn_manager()->Find(writer)->commit_lsn;
  ASSERT_NE(writer_commit_lsn, kInvalidLsn);
  const Lsn reader_end = db.log_manager()->end_lsn();

  std::atomic<bool> reader_done{false};
  Status reader_status;
  Lsn flushed_at_return = 0;
  std::thread reader_commit([&] {
    reader_status = db.Commit(reader);
    flushed_at_return = db.log_manager()->flushed_lsn();
    reader_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(reader_done.load()) << "reader acked a non-durable read";
  EXPECT_LT(db.log_manager()->flushed_lsn(), writer_commit_lsn);
  // The reader appended nothing while it waited.
  EXPECT_EQ(db.log_manager()->end_lsn(), reader_end);

  // A third committer fills the batch; one force acks all three.
  TxnId other = *db.Begin();
  ASSERT_TRUE(db.Set(other, 2, 1).ok());
  EXPECT_TRUE(db.Commit(other).ok());
  writer_commit.join();
  reader_commit.join();
  EXPECT_TRUE(writer_status.ok()) << writer_status.ToString();
  EXPECT_TRUE(reader_status.ok()) << reader_status.ToString();
  EXPECT_GE(flushed_at_return, writer_commit_lsn);
}

TEST(ReadOnlyElrTest, LostWriterCommitFailsTheReader) {
  Database db(ElrOptions());
  CommitSetup(&db);

  TxnId writer = *db.Begin();
  ASSERT_TRUE(db.Set(writer, 1, 7).ok());
  Status writer_status;
  std::thread writer_commit([&] { writer_status = db.Commit(writer); });

  TxnId reader = *db.Begin();
  Result<int64_t> seen = ReadWithRetry(&db, reader);
  ASSERT_TRUE(seen.ok()) << seen.status().ToString();
  EXPECT_EQ(*seen, 7);
  Status reader_status;
  std::thread reader_commit([&] { reader_status = db.Commit(reader); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The crash: the writer's COMMIT evaporates with the unforced tail.
  db.log_manager()->DiscardTail();
  writer_commit.join();
  reader_commit.join();
  EXPECT_FALSE(writer_status.ok());
  EXPECT_FALSE(reader_status.ok()) << "reader acked a read of a lost commit";
  EXPECT_FALSE(db.IsActive(reader));

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(&db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 100);
}

// --- Read-only 2PC votes ---

TEST(ReadOnlyVoteTest, OneWritingShardCommitsOnePhase) {
  Database db(ShardedOptions(2));
  const ObjectId read_ob = ObOnShard(db, 0);
  const ObjectId write_ob = ObOnShard(db, 1);
  TxnId setup = *db.Begin();
  ASSERT_TRUE(db.Set(setup, read_ob, 100).ok());
  ASSERT_TRUE(db.Set(setup, write_ob, 100).ok());
  ASSERT_TRUE(db.Commit(setup).ok());  // two writers: full 2PC
  ASSERT_TRUE(db.Sync().ok());
  const size_t coord_records = CoordRecords(&db);
  const Lsn shard0_end = db.shard(0)->log_manager()->end_lsn();

  TxnId t = *db.Begin();
  EXPECT_EQ(*db.Read(t, read_ob), 100);
  ASSERT_TRUE(db.Set(t, write_ob, 7).ok());
  Status status;
  const std::vector<std::string> points = PointsOfCommit(&db, t, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(points.empty()) << "one writer ran 2PC: " << points.front();
  EXPECT_EQ(db.shard(0)->log_manager()->end_lsn(), shard0_end);
  ASSERT_TRUE(db.Sync().ok());
  EXPECT_EQ(CoordRecords(&db), coord_records);

  // The one-phase commit's force was the commit point.
  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(&db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->losers, 0u);
  EXPECT_EQ(*db.ReadCommitted(read_ob), 100);
  EXPECT_EQ(*db.ReadCommitted(write_ob), 7);
}

TEST(ReadOnlyVoteTest, OnePhaseCommitLostBeforeItsForceRollsBack) {
  Options options = ShardedOptions(2);
  options.group_commit = true;
  options.group_commit_window_us = kParkWindowUs;
  options.group_commit_target_batch = 8;
  Database db(options);
  const ObjectId read_ob = ObOnShard(db, 0);
  const ObjectId write_ob = ObOnShard(db, 1);
  CommitSetup(&db, db.shard(1)->log_manager(), write_ob, 8);

  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Read(t, read_ob).ok());
  ASSERT_TRUE(db.Set(t, write_ob, 7).ok());
  Status status;
  std::thread committer([&] { status = db.Commit(t); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // The crash lands while the writing shard's COMMIT waits for its force.
  db.shard(1)->log_manager()->DiscardTail();
  committer.join();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(CoordRecords(&db), 0u);

  db.SimulateCrash();
  Result<RecoveryManager::Outcome> outcome = RestartAndAwait(&db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(*db.ReadCommitted(write_ob), 100);
  EXPECT_EQ(outcome->in_doubt_committed + outcome->in_doubt_aborted, 0u);
}

TEST(ReadOnlyVoteTest, SeveralWritingShardsStillRunTwoPhaseCommit) {
  Database db(ShardedOptions(4));
  const ObjectId read_ob = ObOnShard(db, 0);
  const ObjectId write1 = ObOnShard(db, 1);
  const ObjectId write2 = ObOnShard(db, 2);
  const Lsn shard0_end = db.shard(0)->log_manager()->end_lsn();

  TxnId t = *db.Begin();
  ASSERT_TRUE(db.Read(t, read_ob).ok());
  ASSERT_TRUE(db.Set(t, write1, 7).ok());
  ASSERT_TRUE(db.Set(t, write2, 8).ok());
  Status status;
  const std::vector<std::string> points = PointsOfCommit(&db, t, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // Every 2PC point of the two writers, none of the read-only shard's.
  const std::vector<std::string> expected = {
      "2pc:before-prepare:1", "2pc:before-prepare:2", "2pc:before-decision",
      "2pc:after-decision",   "2pc:before-finish:1",  "2pc:before-finish:2"};
  EXPECT_EQ(points, expected);
  EXPECT_EQ(db.shard(0)->log_manager()->end_lsn(), shard0_end);
  EXPECT_EQ(*db.ReadCommitted(write1), 7);
  EXPECT_EQ(*db.ReadCommitted(write2), 8);
}

TEST(ReadOnlyVoteTest, FailedReadOnlyVoteAbortsTheTransaction) {
  Options options = ShardedOptions(2);
  options.group_commit = true;
  options.group_commit_window_us = kParkWindowUs;
  options.group_commit_target_batch = 8;
  options.early_lock_release = true;
  Database db(options);
  const ObjectId read_ob = ObOnShard(db, 0);
  const ObjectId write_ob = ObOnShard(db, 1);
  LogManager* log0 = db.shard(0)->log_manager();
  CommitSetup(&db, log0, read_ob, 8);

  // An early-released writer on shard 0 parks in its force.
  TxnId writer = *db.Begin();
  ASSERT_TRUE(db.Set(writer, read_ob, 7).ok());
  Status writer_status;
  std::thread writer_commit([&] { writer_status = db.Commit(writer); });

  // t reads the writer's value on shard 0 and writes on shard 1.
  TxnId t = *db.Begin();
  Result<int64_t> seen = ReadWithRetry(&db, t, read_ob);
  ASSERT_TRUE(seen.ok()) << seen.status().ToString();
  EXPECT_EQ(*seen, 7);
  ASSERT_TRUE(db.Set(t, write_ob, 9).ok());
  Status status;
  std::thread committer([&] { status = db.Commit(t); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Shard 0 loses the writer's COMMIT: t's read-only vote there fails, and
  // t aborts on the writing shard, so a retry cannot commit it one-phase.
  log0->DiscardTail();
  writer_commit.join();
  committer.join();
  EXPECT_FALSE(writer_status.ok());
  EXPECT_FALSE(status.ok()) << "commit acked a read of a lost commit";
  EXPECT_FALSE(db.IsActive(t));
  EXPECT_EQ(db.shard(1)->txn_manager()->Find(t)->state.load(),
            TxnState::kAborted);
  EXPECT_FALSE(db.Commit(t).ok()) << "a retry acked a read of a lost commit";

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(&db).ok());
  EXPECT_EQ(*db.ReadCommitted(read_ob), 100);
  EXPECT_EQ(*db.ReadCommitted(write_ob), 0);
}

// --- Savepoints ---

TEST(ReadOnlySavepointTest, SavepointBeforeTheFirstWriteRollsBackEverything) {
  Database db;
  TxnId setup = *db.Begin();
  ASSERT_TRUE(db.Set(setup, 1, 10).ok());
  ASSERT_TRUE(db.Commit(setup).ok());

  TxnId t = *db.Begin();
  EXPECT_EQ(*db.Read(t, 1), 10);
  Result<Lsn> sp = db.Savepoint(t);
  ASSERT_TRUE(sp.ok()) << sp.status().ToString();
  // The token is the transaction's BEGIN, appended for it.
  Result<LogRecord> begin = db.log_manager()->Read(*sp);
  ASSERT_TRUE(begin.ok());
  EXPECT_EQ(begin->type, LogRecordType::kBegin);
  EXPECT_EQ(begin->txn_id, t);
  EXPECT_TRUE(db.RollbackTo(t, *sp).ok());  // nothing newer: a no-op

  ASSERT_TRUE(db.Set(t, 1, 11).ok());
  ASSERT_TRUE(db.Add(t, 2, 5).ok());
  ASSERT_TRUE(db.RollbackTo(t, *sp).ok());
  EXPECT_EQ(*db.Read(t, 1), 10);
  ASSERT_TRUE(db.Set(t, 3, 9).ok());
  ASSERT_TRUE(db.Commit(t).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 10);
  EXPECT_EQ(*db.ReadCommitted(2), 0);
  EXPECT_EQ(*db.ReadCommitted(3), 9);

  db.SimulateCrash();
  ASSERT_TRUE(RestartAndAwait(&db).ok());
  EXPECT_EQ(*db.ReadCommitted(1), 10);
  EXPECT_EQ(*db.ReadCommitted(2), 0);
  EXPECT_EQ(*db.ReadCommitted(3), 9);
}

// --- Randomized oracle ---

constexpr ObjectId kObjects = 16;
constexpr size_t kKeys = 6;

std::string KeyOf(uint64_t i) { return "k" + std::to_string(i % kKeys); }

/// One open transaction's acknowledged-if-committed effects, replayed
/// against the model when it commits.
struct OpenTxn {
  struct Write {
    ObjectId ob;
    int64_t value;
    bool is_set;  ///< Set overwrites; otherwise an Add of `value`
  };
  TxnId id = kInvalidTxn;
  std::vector<Write> writes;  ///< in issue order
  std::map<std::string, std::string> puts;
  bool read = false;  ///< made at least one successful read

  bool Wrote() const { return !writes.empty() || !puts.empty(); }
};

/// The committed state as acknowledged to the client.
struct Model {
  std::map<ObjectId, int64_t> objects;
  std::map<std::string, std::string> rows;

  int64_t ValueOf(ObjectId ob) const {
    auto it = objects.find(ob);
    return it == objects.end() ? 0 : it->second;
  }
  std::optional<std::string> RowOf(const std::string& key) const {
    auto it = rows.find(key);
    if (it == rows.end()) return std::nullopt;
    return it->second;
  }
};

class ReadOnlyOracleTest
    : public ::testing::TestWithParam<std::tuple<size_t, RecoveryMode>> {};

TEST_P(ReadOnlyOracleTest, AcknowledgedStateSurvivesCrashesAndMatchesStateAt) {
  const size_t shards = std::get<0>(GetParam());
  Options options = ShardedOptions(shards, std::get<1>(GetParam()));
  // The commit path the benchmark's single-shard engine runs.
  options.group_commit = true;
  options.group_commit_policy = GroupCommitPolicy::kAdaptive;
  options.early_lock_release = true;
  for (uint64_t seed : {3u, 77u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Database db(options);
    Random rng(seed + shards);
    Model model;
    std::vector<OpenTxn> open;
    uint64_t committed_readers = 0;

    auto check_durable_state = [&] {
      for (ObjectId ob = 1; ob <= kObjects; ++ob) {
        EXPECT_EQ(*db.ReadCommitted(ob), model.ValueOf(ob)) << "ob " << ob;
      }
      for (size_t k = 0; k < kKeys; ++k) {
        Result<std::optional<std::string>> row =
            db.TableGetCommitted(KeyOf(k));
        ASSERT_TRUE(row.ok()) << row.status().ToString();
        EXPECT_EQ(*row, model.RowOf(KeyOf(k))) << KeyOf(k);
      }
    };

    for (int step = 0; step < 400; ++step) {
      if (open.empty() || (open.size() < 4 && rng.Percent(30))) {
        OpenTxn txn;
        txn.id = *db.Begin();
        open.push_back(std::move(txn));
        continue;
      }
      const size_t pick = rng.Uniform(open.size());
      OpenTxn& txn = open[pick];
      const ObjectId ob = 1 + rng.Uniform(kObjects);
      const std::string key = KeyOf(rng.Next());
      switch (rng.Uniform(10)) {
        case 0: {
          const int64_t value = rng.UniformRange(1, 100);
          if (db.Set(txn.id, ob, value).ok()) {
            txn.writes.push_back({ob, value, true});
          }
          break;
        }
        case 1: {
          const int64_t delta = rng.UniformRange(1, 10);
          if (db.Add(txn.id, ob, delta).ok()) {
            txn.writes.push_back({ob, delta, false});
          }
          break;
        }
        case 2: {
          const std::string value = "v" + std::to_string(rng.Uniform(1000));
          if (db.TablePut(txn.id, key, value).ok()) txn.puts[key] = value;
          break;
        }
        case 3:
        case 4: {
          // Only a transaction that wrote nothing reads: its reads are then
          // all of committed state, which the model knows.
          if (txn.Wrote()) {
            break;
          }
          Result<int64_t> value = db.Read(txn.id, ob);
          if (value.ok()) {
            EXPECT_EQ(*value, model.ValueOf(ob)) << "read of ob " << ob;
            txn.read = true;
          }
          break;
        }
        case 5: {
          if (txn.Wrote()) {
            break;
          }
          Result<std::optional<std::string>> row = db.TableGet(txn.id, key);
          if (row.ok()) {
            EXPECT_EQ(*row, model.RowOf(key)) << "get of " << key;
            txn.read = true;
          }
          break;
        }
        case 6:
        case 7: {
          Status status = db.Commit(txn.id);
          ASSERT_TRUE(status.ok()) << status.ToString();
          for (const OpenTxn::Write& w : txn.writes) {
            int64_t& cell = model.objects[w.ob];
            cell = w.is_set ? w.value : cell + w.value;
          }
          for (const auto& [k, v] : txn.puts) model.rows[k] = v;
          if (txn.read) ++committed_readers;
          open.erase(open.begin() + pick);
          break;
        }
        case 8:
          ASSERT_TRUE(db.Abort(txn.id).ok());
          open.erase(open.begin() + pick);
          break;
        default:
          if (rng.Percent(25)) {
            if (rng.Percent(50)) {
              ASSERT_TRUE(db.Checkpoint().ok());
            }
            db.SimulateCrash();
            Result<RecoveryManager::Outcome> outcome = RestartAndAwait(&db);
            ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
            // Only the open transactions that wrote can be losers.
            uint64_t open_writers = 0;
            for (const OpenTxn& o : open) {
              if (o.Wrote()) {
                ++open_writers;
              }
            }
            EXPECT_LE(outcome->losers, open_writers * shards);
            open.clear();
            check_durable_state();
          }
          break;
      }
    }
    for (OpenTxn& txn : open) ASSERT_TRUE(db.Abort(txn.id).ok());
    EXPECT_GT(committed_readers, 0u);

    db.SimulateCrash();
    ASSERT_TRUE(RestartAndAwait(&db).ok());
    check_durable_state();
    Result<reenact::StateImage> restarted = reenact::CaptureCommittedState(&db);
    ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
    Result<reenact::Reenactor> reenactor = reenact::Reenactor::OpenLive(&db);
    ASSERT_TRUE(reenactor.ok()) << reenactor.status().ToString();
    Result<reenact::StateImage> reenacted = reenactor->StateAt();
    ASSERT_TRUE(reenacted.ok()) << reenacted.status().ToString();
    EXPECT_EQ(restarted->Serialize(), reenacted->Serialize());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ReadOnlyOracleTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(RecoveryMode::kFull,
                                         RecoveryMode::kInstant)),
    [](const auto& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == RecoveryMode::kFull ? "_full"
                                                             : "_instant");
    });

}  // namespace
}  // namespace ariesrh
