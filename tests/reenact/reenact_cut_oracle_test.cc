// Interior-cut reenactment oracle: StateAt(c) at cuts where transactions
// are still open, pinned byte-for-byte against a real restart of the same
// history crashed at c, under kRH and kDisabled at 1 and 4 shards.
//
// The tail-cut oracle (reenact_oracle_test.cc) never reaches reenactment's
// undo: at the tail of a restarted engine every loser is already ENDed.
// Here the crash-at-c image is built from one Database::SaveTo image:
//
//   * every shard log truncated to min(c, tail);
//   * stable pages dropped, so restart replays the prefix from scratch;
//   * the master record cleared, so no checkpoint anchors the replay;
//   * the ".coord" sidecar kept: restart consults the same coordinator
//     verdicts reenactment does.
//
// A kFull Database::Open of that image rolls back exactly the transactions
// open at c — including, under kRH, a delegated-in scope older than its
// owner's BEGIN — and CaptureCommittedState of the result is the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/database.h"
#include "reenact/reenact.h"
#include "storage/simulated_disk.h"
#include "util/random.h"

namespace ariesrh {
namespace {

using reenact::Reenactor;
using reenact::StateImage;

constexpr ObjectId kMaxObject = 24;
constexpr size_t kKeyPool = 6;
constexpr int kRounds = 150;
constexpr Lsn kCuts = 10;

/// The object the delegated-in scope covers; random ops never write it.
constexpr ObjectId kDelegated = kMaxObject + 1;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + ".ariesrh";
}

std::string KeyOf(uint64_t i) { return "key" + std::to_string(i % kKeyPool); }

/// One random operation against a random open transaction: writes, table
/// puts, delegation, partial rollback, commit and abort. Failures (lock
/// conflicts, delegation refused under kDisabled) are expected and ignored.
/// Nothing is ever drained, so transactions stay open across many cuts.
void RandomOp(Database* db, Random* rng, std::vector<TxnId>* open) {
  if (open->empty() || (open->size() < 4 && rng->Percent(35))) {
    Result<TxnId> t = db->Begin();
    if (t.ok()) open->push_back(*t);
    return;
  }
  const size_t pick = rng->Uniform(open->size());
  const TxnId t = (*open)[pick];
  switch (rng->Uniform(10)) {
    case 0:
    case 1:
      (void)db->Set(t, 1 + rng->Uniform(kMaxObject),
                    rng->UniformRange(1, 100));
      break;
    case 2:
    case 3:
      (void)db->Add(t, 1 + rng->Uniform(kMaxObject),
                    rng->UniformRange(1, 10));
      break;
    case 4:
      (void)db->TablePut(t, KeyOf(rng->Next()),
                         "v" + std::to_string(rng->Uniform(1000)));
      break;
    case 5: {
      const size_t other = rng->Uniform(open->size());
      if (other != pick) {
        (void)db->Delegate(t, (*open)[other], DelegationSpec::All());
      }
      break;
    }
    case 6: {  // write, then roll back to before it (a CLR in the history)
      Result<Lsn> savepoint = db->Savepoint(t);
      if (!savepoint.ok()) break;
      (void)db->Add(t, 1 + rng->Uniform(kMaxObject), 3);
      (void)db->RollbackTo(t, *savepoint);
      break;
    }
    case 7:
    case 8:
      (void)db->Commit(t);
      open->erase(open->begin() + pick);
      break;
    default:
      (void)db->Abort(t);
      open->erase(open->begin() + pick);
      break;
  }
}

/// Writes the image of a crash at `cut` (see the file comment) to `out`.
void WriteCrashImage(const std::string& image, size_t shards, Lsn cut,
                     const std::string& out) {
  for (size_t i = 0; i < shards; ++i) {
    Stats stats;
    Result<SimulatedDisk> disk =
        SimulatedDisk::LoadFrom(Database::ShardImagePath(image, i), &stats);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    disk->TruncateLog(std::min(cut, disk->stable_end_lsn()));
    disk->ClearPages();
    disk->SetMasterRecord(0);
    ASSERT_TRUE(disk->SaveTo(Database::ShardImagePath(out, i)).ok());
  }
  if (std::filesystem::exists(image + ".coord")) {
    std::filesystem::copy_file(
        image + ".coord", out + ".coord",
        std::filesystem::copy_options::overwrite_existing);
  }
}

void RemoveImage(const std::string& path, size_t shards) {
  for (size_t i = 0; i < shards; ++i) {
    std::remove(Database::ShardImagePath(path, i).c_str());
  }
  std::remove((path + ".coord").c_str());
}

void CheckInteriorCuts(DelegationMode mode, size_t shards, uint64_t seed) {
  const std::string tag = std::string(DelegationModeName(mode)) + "_" +
                          std::to_string(shards) + "_" +
                          std::to_string(seed);
  const std::string image = TempPath("cut_oracle_" + tag);
  const std::string crashed = TempPath("cut_oracle_crash_" + tag);
  Options options;
  options.delegation_mode = mode;
  options.num_shards = shards;

  // The probe cut: `late` answers for a write made before its BEGIN and is
  // still open there, so restart at the probe must roll that write back.
  Lsn probe = 0;
  size_t probe_shard = 0;
  bool delegated = false;
  {
    Database db(options);
    Random rng(seed);
    std::vector<TxnId> open;
    const TxnId early = *db.Begin();
    ASSERT_TRUE(db.Set(early, kDelegated, 7).ok());
    const TxnId late = *db.Begin();
    delegated =
        db.Delegate(early, late, DelegationSpec::Objects({kDelegated})).ok();
    if (delegated) {
      ASSERT_TRUE(db.Commit(early).ok());
      probe_shard = db.ShardOf(kDelegated);
      ASSERT_TRUE(db.Sync().ok());
      probe = db.shard(probe_shard)->log_manager()->flushed_lsn();
    } else {
      open = {early, late};  // kDisabled refuses delegation
    }
    for (int round = 0; round < kRounds; ++round) {
      RandomOp(&db, &rng, &open);
      if (delegated && round == kRounds / 2) {
        ASSERT_TRUE(db.Commit(late).ok());
      }
    }
    // Still-open transactions are losers at every cut from here on; aborts
    // are lazily durable, so make the whole history durable first.
    ASSERT_TRUE(db.Sync().ok());
    ASSERT_TRUE(db.SaveTo(image).ok());
  }
  EXPECT_EQ(delegated, mode == DelegationMode::kRH);

  Result<Reenactor> reenactor = Reenactor::OpenArchive(options, image);
  ASSERT_TRUE(reenactor.ok()) << reenactor.status().ToString();
  Lsn tail = 0;
  for (size_t i = 0; i < shards; ++i) {
    tail = std::max(tail, reenactor->tail_lsn(i));
  }
  std::set<Lsn> cuts;
  for (Lsn k = 1; k <= kCuts; ++k) {
    cuts.insert(std::max<Lsn>(1, tail * k / kCuts));
  }
  if (delegated) cuts.insert(probe);

  uint64_t losers = 0;
  uint64_t undone = 0;
  for (Lsn cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    WriteCrashImage(image, shards, cut, crashed);
    Options full = options;
    full.recovery_mode = RecoveryMode::kFull;
    Result<Database::OpenResult> restarted = Database::Open(full, crashed);
    ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
    Result<RecoveryManager::Outcome> outcome = restarted->recovery->Await();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    losers += outcome->losers;
    undone += outcome->records_undone;
    Result<StateImage> oracle =
        reenact::CaptureCommittedState(restarted->db.get());
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    Result<StateImage> reenacted = reenactor->StateAt(cut);
    ASSERT_TRUE(reenacted.ok()) << reenacted.status().ToString();
    EXPECT_EQ(oracle->Serialize(), reenacted->Serialize());
    if (delegated && cut == probe) {
      // `early` committed, but the write is `late`'s now and `late` is open.
      EXPECT_EQ(reenacted->ValueOf(kDelegated), 0);
    }
  }
  // The oracle must actually have exercised the undo path.
  EXPECT_GT(losers, 0u);
  EXPECT_GT(undone, 0u);
  RemoveImage(image, shards);
  RemoveImage(crashed, shards);
}

TEST(ReenactCutOracleTest, InteriorCutsMatchRestartAtTheCut) {
  for (DelegationMode mode : {DelegationMode::kRH, DelegationMode::kDisabled}) {
    for (size_t shards : {1u, 4u}) {
      for (uint64_t seed : {11u, 2024u}) {
        SCOPED_TRACE(std::string(DelegationModeName(mode)) +
                     " shards=" + std::to_string(shards) +
                     " seed=" + std::to_string(seed));
        CheckInteriorCuts(mode, shards, seed);
      }
    }
  }
}

}  // namespace
}  // namespace ariesrh
