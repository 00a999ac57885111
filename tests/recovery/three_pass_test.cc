// Classic three-pass recovery (separate analysis and redo) vs. the merged
// single forward pass the paper builds on (§3.3): identical end states,
// one extra log sweep.

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/oracle.h"
#include "util/random.h"
#include "test_restart.h"

namespace ariesrh {
namespace {

class ThreePassTest : public ::testing::TestWithParam<DelegationMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, ThreePassTest,
                         ::testing::Values(DelegationMode::kDisabled,
                                           DelegationMode::kRH,
                                           DelegationMode::kEager,
                                           DelegationMode::kLazyRewrite),
                         [](const auto& info) {
                           std::string name = DelegationModeName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Runs a delegation-heavy history under the given pass layout; returns the
// recovered values of the touched objects plus pass/record counts.
struct RunResult {
  std::map<ObjectId, int64_t> values;
  uint64_t passes = 0;
  uint64_t fwd_records = 0;
};

RunResult RunOnce(DelegationMode mode, bool merged) {
  Options options;
  options.delegation_mode = mode;
  options.merged_forward_pass = merged;
  Database db(options);
  TxnId t0 = *db.Begin();
  TxnId t1 = *db.Begin();
  (void)db.Add(t0, 1, 10);
  (void)db.Add(t0, 2, 20);
  (void)db.Delegate(t0, t1, DelegationSpec::Objects({1}));
  (void)db.Commit(t1);
  TxnId t2 = *db.Begin();
  (void)db.Add(t2, 3, 30);
  (void)db.Abort(t2);
  (void)db.log_manager()->FlushAll();

  db.SimulateCrash();
  const Stats before = db.stats();
  EXPECT_TRUE(RestartAndAwait(&db).ok());
  const Stats delta = db.stats().Delta(before);

  RunResult result;
  result.passes = delta.recovery_passes;
  result.fwd_records = delta.recovery_forward_records;
  for (ObjectId ob : {1, 2, 3}) {
    result.values[ob] = *db.ReadCommitted(ob);
  }
  return result;
}

TEST_P(ThreePassTest, SameStateOneExtraPass) {
  const RunResult merged = RunOnce(GetParam(), /*merged=*/true);
  const RunResult separate = RunOnce(GetParam(), /*merged=*/false);
  EXPECT_EQ(merged.values, separate.values);
  EXPECT_EQ(merged.passes, 2u);
  EXPECT_EQ(separate.passes, 3u);
  // The separate layout reads the log roughly twice in the forward
  // direction.
  EXPECT_GT(separate.fwd_records, merged.fwd_records);
}

TEST_P(ThreePassTest, ThreePassSurvivesRepeatedCrashes) {
  Options options;
  options.delegation_mode = GetParam();
  options.merged_forward_pass = false;
  Database db(options);
  TxnId w = *db.Begin();
  ASSERT_TRUE(db.Set(w, 1, 42).ok());
  ASSERT_TRUE(db.Commit(w).ok());
  TxnId l = *db.Begin();
  ASSERT_TRUE(db.Add(l, 2, 9).ok());
  ASSERT_TRUE(db.log_manager()->FlushAll().ok());
  for (int round = 0; round < 3; ++round) {
    db.SimulateCrash();
    ASSERT_TRUE(RestartAndAwait(&db).ok()) << "round " << round;
    EXPECT_EQ(*db.ReadCommitted(1), 42);
    EXPECT_EQ(*db.ReadCommitted(2), 0);
  }
}

TEST(ThreePassOracleTest, RandomHistoryMatchesUnderBothLayouts) {
  for (bool merged : {true, false}) {
    Options options;
    options.merged_forward_pass = merged;
    Database db(options);
    HistoryOracle oracle;
    Random rng(4242);
    std::vector<TxnId> active;
    for (int step = 0; step < 200; ++step) {
      const uint64_t dice = rng.Uniform(100);
      if (active.empty() || dice < 25) {
        TxnId t = *db.Begin();
        oracle.Begin(t);
        active.push_back(t);
      } else if (dice < 65) {
        TxnId t = active[rng.Uniform(active.size())];
        ObjectId ob = rng.Uniform(10);
        int64_t delta = rng.UniformRange(1, 9);
        if (db.Add(t, ob, delta).ok()) {
          oracle.Update(t, ob, UpdateKind::kAdd, delta);
        }
      } else if (dice < 78 && active.size() >= 2) {
        TxnId from = active[rng.Uniform(active.size())];
        TxnId to = active[rng.Uniform(active.size())];
        const Transaction* tx = db.txn_manager()->Find(from);
        if (from != to && tx != nullptr && !tx->ob_list.empty()) {
          std::vector<ObjectId> obs = {tx->ob_list.begin()->first};
          if (db.Delegate(from, to, DelegationSpec::Objects(obs)).ok()) {
            oracle.Delegate(from, to, obs);
          }
        }
      } else {
        size_t index = rng.Uniform(active.size());
        if (db.Commit(active[index]).ok()) {
          oracle.Commit(active[index]);
          active.erase(active.begin() + static_cast<ptrdiff_t>(index));
        }
      }
    }
    db.SimulateCrash();
    oracle.Crash();
    ASSERT_TRUE(RestartAndAwait(&db).ok());
    for (const auto& [ob, expected] : oracle.ExpectedValues()) {
      EXPECT_EQ(*db.ReadCommitted(ob), expected)
          << "object " << ob << " merged=" << merged;
    }
  }
}

}  // namespace
}  // namespace ariesrh
