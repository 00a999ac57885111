// perfbench: the repository benchmark program.
//
// Drives the engine from outside through its public surface (Database,
// RecoveryHandle, reenact::Reenactor) and reads the engine's own metrics
// registry (Database::metrics()) for every per-layer count, so the numbers
// here are the ones an operator sees. Each workload runs a forward phase
// (transactions) and then a restart phase (restart and StateAt on a fixed
// crash image), each for half of --seconds, so every run reports every
// metric. See perfbench/NOTES.md for why each workload exists and how the
// run is kept steady.
//
//   perfbench --workload <one_shard|four_shard> --seed <n> --seconds <s>
//             --trace <0|1>
//             [--work-dir <dir>] [--git-sha <sha>]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports every end-to-end metric; --trace 1
// alternates untraced and traced rounds, reports every per-layer metric,
// writes the span file and prints the tracing overhead.
// Any failed correctness check makes the exit code non-zero.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>

#include "core/checkpoint_daemon.h"
#include "core/database.h"
#include "obs/metrics.h"
#include "reenact/reenact.h"
#include "util/random.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace ariesrh;  // NOLINT: file-local convenience

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Fisher-Yates with the engine's seeded generator, so a workload's mix has
/// exact proportions and only the order depends on the seed.
template <typename T>
void Shuffle(std::vector<T>* v, Random* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pins the calling thread, and every thread it creates from now on, to one
/// CPU. Where the host refuses, the thread simply stays unpinned.
void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// "<prefix><a>.<b>", built without an operator+ chain on a literal (GCC 12
/// reports a false -Wrestrict on those at -O3).
std::string Tag(char prefix, uint64_t a, uint64_t b) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%c%llu.%llu", prefix,
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------------------
// Outcome bookkeeping: attempted / failed operations and correctness checks.

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t check_failures = 0;

  /// Counts one facade operation; false (and counted) when it failed.
  bool Op(const Status& status) {
    ++attempted;
    if (status.ok()) return true;
    ++failed;
    if (failed <= 5) {
      std::fprintf(stderr, "perfbench: operation failed: %s\n",
                   status.ToString().c_str());
    }
    return false;
  }

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    ++check_failures;
    if (check_failures <= 10) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
};

// ---------------------------------------------------------------------------
// Tracing: one span per facade call, recorded by the benchmark around the
// call (the engine itself is not instrumented here). Spans of one
// transaction share its id and point at the transaction's root span.

enum SpanName : uint8_t {
  kTxnUpdate,
  kTxnDelegatePair,
  kTxnScan,
  kTxnGet,
  kBegin,
  kWrite,
  kGet,
  kScan,
  kDelegate,
  kCommitUpdate,
  kCommitDelegate,
  kCommitScan,
  kCommitGet,
  kRestartFull,
  kRestartInstant,
  kStateAtQuery,
  kOpenFull,
  kOpenInstant,
  kFirstCommit,
  kAwait,
  kOpenArchive,
  kStateAt,
  kSpanNameCount,
};

const char* const kSpanNames[kSpanNameCount] = {
    "txn.update",      "txn.delegate_pair", "txn.scan",
    "txn.get",         "Begin",             "Write",
    "Get",             "Scan",              "Delegate",
    "Commit.update",   "Commit.delegate",   "Commit.scan",
    "Commit.get",      "restart.full",      "restart.instant",
    "reenact.stateat", "Open.full",         "Open.instant",
    "FirstCommit",     "Await",             "Reenactor::OpenArchive",
    "Reenactor::StateAt",
};

constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  SpanName name;
  uint32_t parent;
  TxnId txn;
  uint64_t start_ns;
  uint64_t end_ns;
};

class Tracer {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// Opens a root span (a transaction or a restart event); children record
  /// against it until EndRoot.
  void BeginRoot(SpanName name) {
    if (!on_) return;
    root_ = static_cast<uint32_t>(spans_.size());
    spans_.push_back(Span{name, kNoParent, kInvalidTxn, NowNs(), 0});
  }
  void EndRoot(TxnId txn) {
    if (!on_ || root_ == kNoParent) return;
    spans_[root_].txn = txn;
    spans_[root_].end_ns = NowNs();
    root_ = kNoParent;
  }

  /// Runs `fn` (one facade call) inside a child span of the current root.
  template <typename Fn>
  auto Call(SpanName name, TxnId txn, Fn&& fn) -> decltype(fn()) {
    if (!on_) return fn();
    const uint64_t start = NowNs();
    auto result = fn();
    spans_.push_back(Span{name, root_, txn, start, NowNs()});
    return result;
  }

  /// Folds the recorded spans into per-name duration and self-time
  /// samples (microseconds), keeps the first batch for the span file, and
  /// clears the buffer.
  void Harvest() {
    std::vector<uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < s.start_ns) continue;  // unterminated root
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      duration_us_[s.name].push_back(us);
      self_us_[s.name].push_back(us - static_cast<double>(child_ns[i]) / 1e3);
    }
    if (file_spans_.empty()) file_spans_ = spans_;
    spans_.clear();
  }

  const std::vector<double>& durations(SpanName name) const {
    return duration_us_[name];
  }
  const std::vector<double>& self_times(SpanName name) const {
    return self_us_[name];
  }

  /// Writes the kept spans as JSON lines.
  bool WriteFile(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    const uint64_t base = file_spans_.empty() ? 0 : file_spans_[0].start_ns;
    for (size_t i = 0; i < file_spans_.size(); ++i) {
      const Span& s = file_spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << kSpanNames[s.name]
          << "\",\"parent\":"
          << (s.parent == kNoParent ? std::string("null")
                                    : std::to_string(s.parent))
          << ",\"txn\":" << s.txn << ",\"start_ns\":" << s.start_ns - base
          << ",\"end_ns\":" << s.end_ns - base << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool on_ = false;
  uint32_t root_ = kNoParent;
  std::vector<Span> spans_;
  std::vector<Span> file_spans_;
  std::vector<double> duration_us_[kSpanNameCount];
  std::vector<double> self_us_[kSpanNameCount];
};

// ---------------------------------------------------------------------------
// Registry readers. Every count comes from the engine's own registry cells;
// per-shard cells ("ariesrh_<field>_shard<i>") are summed explicitly.

uint64_t CounterValue(Database* db, const std::string& name) {
  const obs::Counter* c = db->metrics()->FindCounter(name);
  return c == nullptr ? 0 : c->Value();
}

/// Sum of a Stats field over the shards' own cells (the plain cell on a
/// single-shard engine, which has no per-shard labels).
uint64_t ShardSum(Database* db, const std::string& field) {
  if (db->num_shards() == 1) return CounterValue(db, "ariesrh_" + field);
  uint64_t sum = 0;
  for (size_t i = 0; i < db->num_shards(); ++i) {
    sum += CounterValue(db, "ariesrh_" + field + "_shard" + std::to_string(i));
  }
  return sum;
}

using HistSnap = obs::Histogram::Snapshot;

HistSnap HistogramOf(Database* db, const std::string& name) {
  const obs::Histogram* h = db->metrics()->FindHistogram(name);
  return h == nullptr ? HistSnap{} : h->GetSnapshot();
}

/// a += (after - before), bucket by bucket.
void AccumulateDelta(HistSnap* acc, const HistSnap& after,
                     const HistSnap& before) {
  if (after.bounds.empty()) return;
  if (acc->bounds.empty()) {
    acc->bounds = after.bounds;
    acc->counts.assign(after.counts.size(), 0);
  }
  acc->count += after.count - before.count;
  acc->sum += after.sum - before.sum;
  for (size_t i = 0; i < after.counts.size(); ++i) {
    const uint64_t base = i < before.counts.size() ? before.counts[i] : 0;
    acc->counts[i] += after.counts[i] - base;
  }
}

/// The registry cells the forward workloads read, captured at the edges of
/// the timed phase.
const char* const kForwardCounters[] = {
    "log_flushes",       "log_appends",        "log_bytes_appended",
    "lock_acquires",     "lock_conflicts",     "lock_transfers",
    "delegations",       "scopes_transferred", "bp_hits",
    "bp_misses",         "page_reads",         "page_writes",
    "checkpoints_taken", "table_ops",
    "table_puts",        "table_relocations",  "txns_begun",
};
const char* const kForwardHistograms[] = {
    "ariesrh_group_commit_batch", "ariesrh_log_flush_ns",
    "ariesrh_commit_latency_ns",  "ariesrh_txn_commit_ns",
    "ariesrh_checkpoint_ns",      "ariesrh_table_scan_len",
};

struct RegistrySnap {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistSnap> histograms;
};

RegistrySnap SnapRegistry(Database* db) {
  RegistrySnap snap;
  for (const char* field : kForwardCounters) {
    snap.counters[field] = ShardSum(db, field);
  }
  snap.counters["coord_forces"] = CounterValue(db, "ariesrh_coord_forces");
  snap.counters["coord_commits"] = CounterValue(db, "ariesrh_coord_commits");
  for (const char* name : kForwardHistograms) {
    snap.histograms[name] = HistogramOf(db, name);
  }
  return snap;
}

/// Registry deltas summed over the rounds a figure is taken from.
struct RegistryTotals {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistSnap> histograms;

  void Add(const RegistrySnap& after, const RegistrySnap& before) {
    for (const auto& [name, value] : after.counters) {
      counters[name] += value - before.counters.at(name);
    }
    for (const auto& [name, snap] : after.histograms) {
      AccumulateDelta(&histograms[name], snap, before.histograms.at(name));
    }
  }
  const HistSnap& hist(const char* name) const { return histograms.at(name); }
};

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed before the JSON line

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  std::string git_sha = "unknown";
};

// ---------------------------------------------------------------------------
// Forward phases (one_shard, four_shard): a fixed, seeded sequence of
// transaction units replayed by one client on a freshly set-up database in
// every round, until the run's time is spent. Every round does identical
// work, so registry counts repeat exactly; timings are medians over rounds.

enum class UnitKind : uint8_t { kUpdate, kDelegatePair, kScan, kGet };

/// Latency samples (µs) and counts of one round's timed phase.
struct RoundSamples {
  double elapsed_s = 0;
  uint64_t committed = 0;
  uint64_t txns_begun = 0;
  std::vector<double> txn_us;  ///< every facade txn, Begin -> durable ack
  std::vector<double> kind_us[4];  ///< indexed by UnitKind, unit end to end
};

struct ForwardResult {
  std::vector<RoundSamples> rounds;  ///< measured rounds (warm-up dropped)
  std::vector<bool> traced;          ///< parallel to rounds
  std::vector<double> setup_s;       ///< every round's set-up, warm-up too
  RegistryTotals registry;           ///< summed over the measured rounds
  uint64_t measured_txns = 0;
  uint64_t measured_committed = 0;
};

/// The end-to-end figures of a set of rounds.
std::map<std::string, double> ForwardEndToEnd(
    const std::vector<const RoundSamples*>& rounds) {
  std::vector<double> tps, p99s, all, kinds[4];
  for (const RoundSamples* r : rounds) {
    tps.push_back(static_cast<double>(r->committed) / r->elapsed_s);
    p99s.push_back(Quantile(r->txn_us, 0.99));
    all.insert(all.end(), r->txn_us.begin(), r->txn_us.end());
    for (int k = 0; k < 4; ++k) {
      kinds[k].insert(kinds[k].end(), r->kind_us[k].begin(),
                      r->kind_us[k].end());
    }
  }
  std::map<std::string, double> out;
  out["commit_tps"] = Median(tps);
  out["txn_p50_us"] = Quantile(all, 0.50);
  // The tail is taken per round (about 90 txns beyond it) and the median
  // over rounds reported: a host stall that slows a few rounds then moves
  // it less than it moves a pooled p99.
  out["txn_p99_us"] = Median(p99s);
  out["update_txn_p50_us"] = Quantile(kinds[0], 0.5);
  out["delegate_txn_p50_us"] = Quantile(kinds[1], 0.5);
  out["scan_txn_p50_us"] = Quantile(kinds[2], 0.5);
  out["get_txn_p50_us"] = Quantile(kinds[3], 0.5);
  return out;
}

const char* UnitOf(const std::string& metric) {
  return metric == "commit_tps" ? "1/s" : "us";
}

/// Round loop shared by the forward phases. Workload::Setup builds a fresh
/// database, Timed replays the unit sequence, Verify checks it. Rounds
/// repeat until `seconds` are spent.
template <typename Workload>
ForwardResult RunForwardRounds(const Args& args, double seconds, Workload* w,
                               Tracer* tracer, Tally* tally) {
  ForwardResult res;
  const uint64_t run_start = NowNs();
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  // Round 0 warms the process up (allocator, page cache, first-touch) and
  // is dropped. The traced run alternates untraced and traced rounds so the
  // tracing overhead is measured under the same host conditions.
  const size_t min_measured = args.trace ? 4 : 3;
  // Each round runs the client and every engine thread it starts on one
  // CPU, rotating over the CPUs round by round. On a VM a wakeup across
  // vCPUs costs from tens of microseconds to milliseconds depending on host
  // load, which would otherwise swamp the commit handoff; rotating spreads
  // the vCPUs' differing speeds evenly over each run (NOTES.md).
  const std::vector<int> cpus = AllowedCpus();
  for (size_t round = 0;; ++round) {
    if (round > min_measured && NowNs() - run_start >= budget_ns) break;
    const bool traced = args.trace && round > 0 && round % 2 == 0;
    if (!cpus.empty()) PinToCpu(cpus[round % cpus.size()]);
    const uint64_t s0 = NowNs();
    std::unique_ptr<Database> db = w->Setup(tally);
    const double setup_s = static_cast<double>(NowNs() - s0) / 1e9;
    res.setup_s.push_back(setup_s);
    if (db == nullptr) {
      tally->Check(false, args.workload + ": set-up failed");
      break;
    }

    const RegistrySnap before = SnapRegistry(db.get());
    tracer->set_on(traced);
    RoundSamples samples = w->Timed(db.get(), tracer, tally);
    tracer->set_on(false);
    const RegistrySnap after = SnapRegistry(db.get());
    if (traced) tracer->Harvest();
    w->Verify(db.get(), tally);
    db.reset();
    if (round == 0) continue;
    res.registry.Add(after, before);
    res.measured_txns += samples.txns_begun;
    res.measured_committed += samples.committed;
    res.rounds.push_back(std::move(samples));
    res.traced.push_back(traced);
  }
  return res;
}

/// Mean of a registry histogram's delta in `scale` units. The registry's
/// quantiles are interpolated inside buckets 2-2.5x wide, so a p50 that
/// stays in one bucket reads the same on every run and hides a change; the
/// mean comes from the exact sum.
double HistMean(const RegistryTotals& reg, const char* name, double scale) {
  return reg.hist(name).Mean() / scale;
}

void ReportForward(const Args& args, const ForwardResult& res,
                   const Tracer& tracer, Report* report) {
  std::vector<const RoundSamples*> plain, traced;
  for (size_t i = 0; i < res.rounds.size(); ++i) {
    (res.traced[i] ? traced : plain).push_back(&res.rounds[i]);
  }
  const std::map<std::string, double> e2e = ForwardEndToEnd(plain);
  std::vector<double> round_tps;
  for (const RoundSamples* r : plain) {
    round_tps.push_back(static_cast<double>(r->committed) / r->elapsed_s);
  }
  report->notes.push_back(
      "forward rounds measured: " + std::to_string(res.rounds.size()) +
      " (+1 warm-up), txns per round: " +
      std::to_string(res.rounds.empty() ? 0 : res.rounds[0].txns_begun) +
      ", untraced round commit_tps min/p25/p75/max: " +
      Num(Quantile(round_tps, 0)) + " / " + Num(Quantile(round_tps, 0.25)) +
      " / " + Num(Quantile(round_tps, 0.75)) + " / " +
      Num(Quantile(round_tps, 1)));
  if (!args.trace) {
    for (const auto& [name, value] : e2e) {
      report->Add(name, value, UnitOf(name));
    }
    return;
  }

  // Tracing overhead: traced rounds' end-to-end figures minus untraced.
  const std::map<std::string, double> e2e_traced = ForwardEndToEnd(traced);
  for (const auto& [name, value] : e2e) {
    const double t = e2e_traced.at(name);
    report->notes.push_back("tracing overhead " + name + ": " +
                            Num(t - value) + " " + UnitOf(name) + " (" +
                            Num(value == 0 ? 0 : 100.0 * (t - value) / value) +
                            "%)");
  }

  // Every per-layer metric is reported on every workload; a layer the
  // workload does not reach (the coordinator on one shard, group commit on
  // four) reads 0.
  const RegistryTotals& reg = res.registry;
  auto c = [&](const char* name) { return reg.counters.at(name); };
  const uint64_t txns = res.measured_txns;
  const uint64_t committed = res.measured_committed;
  auto span_p50 = [&](SpanName n) { return Median(tracer.durations(n)); };

  report->Add("core.begin_us", span_p50(kBegin), "us");
  report->Add("core.write_us", span_p50(kWrite), "us");
  report->Add("core.get_us", span_p50(kGet), "us");
  report->Add("core.scan_us", span_p50(kScan), "us");
  report->Add("core.delegate_us", span_p50(kDelegate), "us");
  report->Add("core.commit_update_us", span_p50(kCommitUpdate), "us");
  report->Add("core.commit_scan_us", span_p50(kCommitScan), "us");
  report->Add("core.commit_get_us", span_p50(kCommitGet), "us");

  report->Add("wal.forces_per_txn", Ratio(c("log_flushes"), committed),
              "count");
  report->Add("wal.group_batch_mean",
              reg.hist("ariesrh_group_commit_batch").Mean(), "count");
  report->Add("wal.flush_mean_us",
              HistMean(reg, "ariesrh_log_flush_ns", 1e3), "us");
  report->Add("wal.commit_wait_mean_us",
              HistMean(reg, "ariesrh_commit_latency_ns", 1e3), "us");
  report->Add("wal.bytes_per_txn", Ratio(c("log_bytes_appended"), committed),
              "B");
  report->Add("wal.appends_per_txn", Ratio(c("log_appends"), committed),
              "count");

  report->Add("lock.acquires_per_txn", Ratio(c("lock_acquires"), txns),
              "count");
  report->Add("lock.conflicts_per_txn", Ratio(c("lock_conflicts"), txns),
              "count");
  report->Add("lock.transfers_per_delegation",
              Ratio(c("lock_transfers"), c("delegations")), "count");
  report->Add("txn.commit_mean_us",
              HistMean(reg, "ariesrh_txn_commit_ns", 1e3), "us");
  report->Add("txn.scopes_per_delegation",
              Ratio(c("scopes_transferred"), c("delegations")), "count");

  const uint64_t accesses = c("bp_hits") + c("bp_misses");
  report->Add("storage.bp_hit_ratio", Ratio(c("bp_hits"), accesses), "ratio");
  report->Add("storage.page_reads_per_txn", Ratio(c("page_reads"), txns),
              "count");
  report->Add("storage.page_writes_per_txn", Ratio(c("page_writes"), txns),
              "count");

  report->Add("checkpoint.count",
              Ratio(c("checkpoints_taken"), res.rounds.size()), "count");
  report->Add("checkpoint.mean_ms",
              HistMean(reg, "ariesrh_checkpoint_ns", 1e6), "ms");

  report->Add("coord.forces_per_txn", Ratio(c("coord_forces"), txns), "count");
  report->Add("coord.commits_per_txn", Ratio(c("coord_commits"), txns),
              "count");
  // Shard enlistments per facade txn (1 on one shard).
  report->Add("coord.enlistments_per_txn", Ratio(c("txns_begun"), txns),
              "count");
  report->Add("table.scan_len_mean",
              reg.hist("ariesrh_table_scan_len").Mean(), "count");
  report->Add("table.ops_per_txn", Ratio(c("table_ops"), txns), "count");
  report->Add("table.relocations_per_put",
              Ratio(c("table_relocations"), c("table_puts")), "count");
}

/// Commits the one txn of a single-txn unit, records the unit's latency
/// (from `t0`) under its kind, and closes the root span. True when the
/// commit was acknowledged.
bool CommitUnit(Database* db, TxnId txn, SpanName span, UnitKind kind,
                uint64_t t0, Tracer* tr, Tally* tally, RoundSamples* rs) {
  const bool ok =
      tally->Op(tr->Call(span, txn, [&] { return db->Commit(txn); }));
  if (ok) {
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    rs->txn_us.push_back(us);
    rs->kind_us[static_cast<int>(kind)].push_back(us);
    ++rs->committed;
  }
  tr->EndRoot(txn);
  return ok;
}

// --- one_shard forward phase ----------------------------------------------

class ObjCommit {
 public:
  static constexpr ObjectId kObjects = 65536;  // 1,024 pages of 64 cells
  static constexpr size_t kPoolPages = 256;
  static constexpr size_t kUnits = 8192;  // per round; see NOTES.md
  static constexpr size_t kEighth = kUnits / 8;
  /// A scan reads this many consecutive objects.
  static constexpr ObjectId kScanLen = 16;

  struct Unit {
    UnitKind kind;
    ObjectId obs[4];
    int64_t deltas[4];
  };

  explicit ObjCommit(uint64_t seed) {
    Random rng(seed);
    // 5/8 updates, 1/8 delegating pairs, 1/8 gets, 1/8 scans.
    std::vector<UnitKind> kinds(kUnits, UnitKind::kUpdate);
    std::fill_n(kinds.begin(), kEighth, UnitKind::kDelegatePair);
    std::fill_n(kinds.begin() + kEighth, kEighth, UnitKind::kGet);
    std::fill_n(kinds.begin() + 2 * kEighth, kEighth, UnitKind::kScan);
    Shuffle(&kinds, &rng);
    units_.reserve(kUnits);
    for (size_t i = 0; i < kUnits; ++i) {
      Unit u{};
      u.kind = kinds[i];
      for (int k = 0; k < 4; ++k) {
        bool fresh = false;
        while (!fresh) {  // four distinct objects per unit
          u.obs[k] = rng.Uniform(kObjects);
          fresh = std::find(u.obs, u.obs + k, u.obs[k]) == u.obs + k;
        }
        u.deltas[k] = static_cast<int64_t>(rng.Uniform(100)) + 1;
      }
      if (u.kind == UnitKind::kScan) u.obs[0] %= kObjects - kScanLen + 1;
      units_.push_back(u);
    }
  }

  static Options MakeOptions() {
    Options o;
    o.buffer_pool_pages = kPoolPages;
    o.group_commit = true;
    o.group_commit_policy = GroupCommitPolicy::kAdaptive;
    o.early_lock_release = true;
    // auto_archive stays off: archiving races the flusher on the simulated
    // disk's log (NOTES.md, "Engine defects found").
    o.checkpoint_interval_records = 8192;
    return o;
  }

  static int64_t Initial(ObjectId ob) { return static_cast<int64_t>(ob % 997) + 1; }

  /// A fresh engine with every object written once (so the data set is
  /// 4x the buffer pool from the first timed transaction), then one daemon
  /// checkpoint so the record-growth trigger starts from a fixed position.
  std::unique_ptr<Database> Setup(Tally* tally) {
    auto db = std::make_unique<Database>(MakeOptions());
    for (ObjectId page = 0; page < kObjects / kObjectsPerPage; ++page) {
      Result<TxnId> txn = db->Begin();
      if (!tally->Op(txn.status())) return nullptr;
      for (uint32_t s = 0; s < kObjectsPerPage; ++s) {
        const ObjectId ob = page * kObjectsPerPage + s;
        if (!tally->Op(db->Set(*txn, ob, Initial(ob)))) return nullptr;
      }
      if (!tally->Op(db->Commit(*txn))) return nullptr;
    }
    if (!tally->Op(db->checkpoint_daemon()->RunOnce())) return nullptr;
    expected_.assign(kObjects, 0);
    for (ObjectId ob = 0; ob < kObjects; ++ob) expected_[ob] = Initial(ob);
    return db;
  }

  RoundSamples Timed(Database* db, Tracer* tr, Tally* tally) {
    RoundSamples rs;
    rs.txn_us.reserve(kUnits * 2);
    const uint64_t t0 = NowNs();
    for (const Unit& u : units_) {
      switch (u.kind) {
        case UnitKind::kUpdate:
          RunUpdate(db, u, tr, tally, &rs);
          break;
        case UnitKind::kDelegatePair:
          RunPair(db, u, tr, tally, &rs);
          break;
        case UnitKind::kGet:
          RunRead(db, u, 1, kTxnGet, kGet, kCommitGet, tr, tally, &rs);
          break;
        case UnitKind::kScan:
          RunRead(db, u, kScanLen, kTxnScan, kScan, kCommitScan, tr, tally,
                  &rs);
          break;
      }
    }
    rs.elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
    tally->Check(read_errors_ == 0,
                 "one_shard: " + std::to_string(read_errors_) +
                     " reads returned a value other than the last "
                     "acknowledged one");
    read_errors_ = 0;
    return rs;
  }

  void Verify(Database* db, Tally* tally) {
    uint64_t bad = 0;
    for (ObjectId ob = 0; ob < kObjects; ++ob) {
      Result<int64_t> v = db->ReadCommitted(ob);
      if (!v.ok() || *v != expected_[ob]) ++bad;
    }
    tally->Check(bad == 0, "one_shard: " + std::to_string(bad) +
                               " objects differ from their acknowledged Adds");
  }

 private:
  /// A read-only txn: `len` consecutive objects from u.obs[0] (a get reads
  /// one, a scan kScanLen), each checked against the acknowledged value.
  void RunRead(Database* db, const Unit& u, ObjectId len, SpanName root,
               SpanName call, SpanName commit, Tracer* tr, Tally* tally,
               RoundSamples* rs) {
    tr->BeginRoot(root);
    const uint64_t t0 = NowNs();
    Result<TxnId> txn = tr->Call(kBegin, kInvalidTxn, [&] { return db->Begin(); });
    ++rs->txns_begun;
    if (!tally->Op(txn.status())) return tr->EndRoot(kInvalidTxn);
    const bool ok = tr->Call(call, *txn, [&] {
      for (ObjectId ob = u.obs[0]; ob < u.obs[0] + len; ++ob) {
        Result<int64_t> v = db->Read(*txn, ob);
        if (!tally->Op(v.status())) return false;
        if (*v != expected_[ob]) ++read_errors_;
      }
      return true;
    });
    if (!ok) {
      tally->Op(db->Abort(*txn));
      return tr->EndRoot(*txn);
    }
    CommitUnit(db, *txn, commit,
               len == 1 ? UnitKind::kGet : UnitKind::kScan, t0, tr, tally, rs);
  }

  void RunUpdate(Database* db, const Unit& u, Tracer* tr, Tally* tally,
                 RoundSamples* rs) {
    tr->BeginRoot(kTxnUpdate);
    const uint64_t t0 = NowNs();
    Result<TxnId> txn = tr->Call(kBegin, kInvalidTxn, [&] { return db->Begin(); });
    ++rs->txns_begun;
    if (!tally->Op(txn.status())) return tr->EndRoot(kInvalidTxn);
    bool ok = true;
    for (int k = 0; k < 4 && ok; ++k) {
      ok = tally->Op(tr->Call(kWrite, *txn, [&] {
        return db->Add(*txn, u.obs[k], u.deltas[k]);
      }));
    }
    if (!ok) {
      tally->Op(db->Abort(*txn));
      return tr->EndRoot(*txn);
    }
    if (CommitUnit(db, *txn, kCommitUpdate, UnitKind::kUpdate, t0, tr, tally,
                   rs)) {
      for (int k = 0; k < 4; ++k) expected_[u.obs[k]] += u.deltas[k];
    }
  }

  /// The split pair: A adds twice, delegates everything to a fresh B, adds
  /// twice more on its own account; both commit.
  void RunPair(Database* db, const Unit& u, Tracer* tr, Tally* tally,
               RoundSamples* rs) {
    tr->BeginRoot(kTxnDelegatePair);
    const uint64_t t0 = NowNs();
    Result<TxnId> a = tr->Call(kBegin, kInvalidTxn, [&] { return db->Begin(); });
    ++rs->txns_begun;
    if (!tally->Op(a.status())) return tr->EndRoot(kInvalidTxn);
    bool ok = true;
    for (int k = 0; k < 2 && ok; ++k) {
      ok = tally->Op(tr->Call(kWrite, *a, [&] {
        return db->Add(*a, u.obs[k], u.deltas[k]);
      }));
    }
    const uint64_t tb = NowNs();
    Result<TxnId> b = tr->Call(kBegin, kInvalidTxn, [&] { return db->Begin(); });
    ++rs->txns_begun;
    ok = tally->Op(b.status()) && ok;
    ok = ok && tally->Op(tr->Call(kDelegate, *a, [&] {
           return db->Delegate(*a, *b, DelegationSpec::All());
         }));
    for (int k = 2; k < 4 && ok; ++k) {
      ok = tally->Op(tr->Call(kWrite, *a, [&] {
        return db->Add(*a, u.obs[k], u.deltas[k]);
      }));
    }
    if (!ok) {
      tally->Op(db->Abort(*a));
      if (b.ok()) tally->Op(db->Abort(*b));
      return tr->EndRoot(*a);
    }
    bool both = true;
    if (tally->Op(tr->Call(kCommitDelegate, *a,
                           [&] { return db->Commit(*a); }))) {
      rs->txn_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      ++rs->committed;
      for (int k = 2; k < 4; ++k) expected_[u.obs[k]] += u.deltas[k];
    } else {
      both = false;
    }
    if (tally->Op(tr->Call(kCommitDelegate, *b,
                           [&] { return db->Commit(*b); }))) {
      const uint64_t end = NowNs();
      rs->txn_us.push_back(static_cast<double>(end - tb) / 1e3);
      ++rs->committed;
      for (int k = 0; k < 2; ++k) expected_[u.obs[k]] += u.deltas[k];
      if (both) {
        rs->kind_us[static_cast<int>(UnitKind::kDelegatePair)].push_back(
            static_cast<double>(end - t0) / 1e3);
      }
    }
    tr->EndRoot(*a);
  }

  std::vector<Unit> units_;
  std::vector<int64_t> expected_;
  uint64_t read_errors_ = 0;
};

// --- four_shard forward phase ----------------------------------------------

/// YCSB's Zipfian generator (Gray et al.), over [0, n).
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(i, theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }
  uint64_t Next(Random* rng) const {
    const double u = static_cast<double>(rng->Next() >> 11) * 0x1.0p-53;
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const uint64_t v = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(v, n_ - 1);
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

class Ycsb {
 public:
  static constexpr size_t kShards = 4;
  static constexpr uint32_t kRecords = 20000;
  static constexpr size_t kValueBytes = 100;
  static constexpr size_t kUnits = 10000;  // per round; see NOTES.md
  static constexpr uint32_t kLoadBatch = 100;
  /// The client takes a checkpoint of every shard after each this many
  /// units, so the count per round is fixed (a daemon's would depend on
  /// when it wakes).
  static constexpr size_t kCheckpointEvery = 2500;

  struct Unit {
    UnitKind kind;
    uint32_t keys[2];  // scan/get use keys[0]
    uint32_t scan_len;
  };

  explicit Ycsb(uint64_t seed) {
    Random rng(seed);
    // Scrambled Zipf: rank -> key through a seeded permutation, so hot keys
    // are spread over the key space (and the shards) as in YCSB.
    std::vector<uint32_t> perm(kRecords);
    for (uint32_t i = 0; i < kRecords; ++i) perm[i] = i;
    for (uint32_t i = kRecords - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.Uniform(i + 1)]);
    }
    const Zipf zipf(kRecords, 0.99);
    // 30% scans, 30% gets, 35% 2-key puts, 5% transfers; scan lengths cycle
    // through 1..16.
    std::vector<std::pair<UnitKind, uint32_t>> mix;
    for (size_t i = 0; i < kUnits; ++i) {
      const size_t pct = i * 100 / kUnits;
      const UnitKind kind = pct < 30   ? UnitKind::kScan
                            : pct < 60 ? UnitKind::kGet
                            : pct < 95 ? UnitKind::kUpdate
                                       : UnitKind::kDelegatePair;
      mix.emplace_back(kind, static_cast<uint32_t>(i % 16) + 1);
    }
    Shuffle(&mix, &rng);
    uint64_t puts = 0;
    for (size_t i = 0; i < kUnits; ++i) {
      Unit u{};
      u.kind = mix[i].first;
      u.keys[0] = perm[zipf.Next(&rng)];
      do {
        u.keys[1] = perm[zipf.Next(&rng)];
      } while (u.keys[1] == u.keys[0]);
      u.scan_len = mix[i].second;
      if (u.kind == UnitKind::kUpdate || u.kind == UnitKind::kDelegatePair) {
        puts += 2;
      }
      units_.push_back(u);
    }
    keys_.reserve(kRecords);
    for (uint32_t i = 0; i < kRecords; ++i) keys_.push_back(KeyOf(i));
    // Every put writes a distinct value, so "last acknowledged put" is
    // checkable; values are generated here, outside the timed phase.
    put_values_.reserve(puts);
    for (uint64_t p = 0; p < puts; ++p) {
      put_values_.push_back(ValueOf(Tag('p', seed, p)));
    }
  }

  static std::string KeyOf(uint32_t i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "user%06u", i);
    return buf;
  }
  static std::string ValueOf(const std::string& tag) {
    std::string v = tag + ":";
    while (v.size() < kValueBytes) v.push_back(static_cast<char>('a' + v.size() % 26));
    v.resize(kValueBytes);
    return v;
  }

  static Options MakeOptions() {
    Options o;
    o.num_shards = kShards;
    return o;
  }

  std::unique_ptr<Database> Setup(Tally* tally) {
    auto db = std::make_unique<Database>(MakeOptions());
    expected_.assign(kRecords, std::string());
    for (uint32_t base = 0; base < kRecords; base += kLoadBatch) {
      Result<TxnId> txn = db->Begin();
      if (!tally->Op(txn.status())) return nullptr;
      for (uint32_t i = base; i < std::min(base + kLoadBatch, kRecords); ++i) {
        expected_[i] = ValueOf(Tag('l', i, 0));
        if (!tally->Op(db->TablePut(*txn, keys_[i], expected_[i]))) {
          return nullptr;
        }
      }
      if (!tally->Op(db->Commit(*txn))) return nullptr;
    }
    return db;
  }

  RoundSamples Timed(Database* db, Tracer* tr, Tally* tally) {
    RoundSamples rs;
    rs.txn_us.reserve(kUnits * 2);
    size_t put_index = 0;
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < units_.size(); ++i) {
      const Unit& u = units_[i];
      if (i > 0 && i % kCheckpointEvery == 0) tally->Op(db->Checkpoint());
      switch (u.kind) {
        case UnitKind::kScan:
          RunScan(db, u, tr, tally, &rs);
          break;
        case UnitKind::kGet:
          RunGet(db, u, tr, tally, &rs);
          break;
        case UnitKind::kUpdate:
          RunPut(db, u, &put_index, tr, tally, &rs);
          break;
        case UnitKind::kDelegatePair:
          RunTransfer(db, u, &put_index, tr, tally, &rs);
          break;
      }
    }
    rs.elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
    tally->Check(scan_errors_ == 0,
                 "four_shard: " + std::to_string(scan_errors_) +
                     " scans out of order, over the limit, or wrong");
    tally->Check(get_errors_ == 0, "four_shard: " +
                                       std::to_string(get_errors_) +
                                       " gets returned a stale value");
    scan_errors_ = get_errors_ = 0;
    return rs;
  }

  void Verify(Database* db, Tally* tally) {
    uint64_t bad = 0;
    for (uint32_t i = 0; i < kRecords; ++i) {
      Result<std::optional<std::string>> v = db->TableGetCommitted(keys_[i]);
      if (!v.ok() || !v->has_value() || **v != expected_[i]) ++bad;
    }
    tally->Check(bad == 0, "four_shard: " + std::to_string(bad) +
                               " keys differ from their last acknowledged put");
  }

 private:
  void RunScan(Database* db, const Unit& u, Tracer* tr, Tally* tally,
               RoundSamples* rs) {
    tr->BeginRoot(kTxnScan);
    const uint64_t t0 = NowNs();
    Result<TxnId> txn = tr->Call(kBegin, kInvalidTxn, [&] { return db->Begin(); });
    ++rs->txns_begun;
    if (!tally->Op(txn.status())) return tr->EndRoot(kInvalidTxn);
    auto rows = tr->Call(kScan, *txn, [&] {
      return db->TableScan(*txn, keys_[u.keys[0]], u.scan_len);
    });
    if (!tally->Op(rows.status())) {
      tally->Op(db->Abort(*txn));
      return tr->EndRoot(*txn);
    }
    // Keys are dense and sorted, so the answer is fully determined: the
    // next min(limit, remaining) keys in order, with their current values.
    const size_t want =
        std::min<size_t>(u.scan_len, kRecords - u.keys[0]);
    bool good = rows->size() == want;
    for (size_t j = 0; good && j < rows->size(); ++j) {
      const uint32_t idx = u.keys[0] + static_cast<uint32_t>(j);
      good = (*rows)[j].first == keys_[idx] && (*rows)[j].second == expected_[idx];
    }
    if (!good) ++scan_errors_;
    CommitUnit(db, *txn, kCommitScan, UnitKind::kScan, t0, tr, tally, rs);
  }

  void RunGet(Database* db, const Unit& u, Tracer* tr, Tally* tally,
              RoundSamples* rs) {
    tr->BeginRoot(kTxnGet);
    const uint64_t t0 = NowNs();
    Result<TxnId> txn = tr->Call(kBegin, kInvalidTxn, [&] { return db->Begin(); });
    ++rs->txns_begun;
    if (!tally->Op(txn.status())) return tr->EndRoot(kInvalidTxn);
    auto value = tr->Call(kGet, *txn, [&] {
      return db->TableGet(*txn, keys_[u.keys[0]]);
    });
    if (!tally->Op(value.status())) {
      tally->Op(db->Abort(*txn));
      return tr->EndRoot(*txn);
    }
    if (!value->has_value() || **value != expected_[u.keys[0]]) ++get_errors_;
    CommitUnit(db, *txn, kCommitGet, UnitKind::kGet, t0, tr, tally, rs);
  }

  bool PutTwo(Database* db, TxnId txn, const Unit& u, size_t* put_index,
              Tracer* tr, Tally* tally) {
    for (int k = 0; k < 2; ++k) {
      const std::string& value = put_values_[*put_index + k];
      if (!tally->Op(tr->Call(kWrite, txn, [&] {
            return db->TablePut(txn, keys_[u.keys[k]], value);
          }))) {
        return false;
      }
    }
    return true;
  }

  void Apply(const Unit& u, size_t put_index) {
    for (int k = 0; k < 2; ++k) expected_[u.keys[k]] = put_values_[put_index + k];
  }

  void RunPut(Database* db, const Unit& u, size_t* put_index, Tracer* tr,
              Tally* tally, RoundSamples* rs) {
    const size_t first_put = *put_index;
    *put_index += 2;
    tr->BeginRoot(kTxnUpdate);
    const uint64_t t0 = NowNs();
    Result<TxnId> txn = tr->Call(kBegin, kInvalidTxn, [&] { return db->Begin(); });
    ++rs->txns_begun;
    if (!tally->Op(txn.status())) return tr->EndRoot(kInvalidTxn);
    size_t cursor = first_put;
    if (!PutTwo(db, *txn, u, &cursor, tr, tally)) {
      tally->Op(db->Abort(*txn));
      return tr->EndRoot(*txn);
    }
    if (CommitUnit(db, *txn, kCommitUpdate, UnitKind::kUpdate, t0, tr, tally,
                   rs)) {
      Apply(u, first_put);
    }
  }

  /// Two puts by A, Delegate(All) to a fresh B (a cross-shard transfer when
  /// the keys' shards differ from where B enlists), then both commit.
  void RunTransfer(Database* db, const Unit& u, size_t* put_index, Tracer* tr,
                   Tally* tally, RoundSamples* rs) {
    const size_t first_put = *put_index;
    *put_index += 2;
    tr->BeginRoot(kTxnDelegatePair);
    const uint64_t t0 = NowNs();
    Result<TxnId> a = tr->Call(kBegin, kInvalidTxn, [&] { return db->Begin(); });
    ++rs->txns_begun;
    if (!tally->Op(a.status())) return tr->EndRoot(kInvalidTxn);
    size_t cursor = first_put;
    bool ok = PutTwo(db, *a, u, &cursor, tr, tally);
    const uint64_t tb = NowNs();
    Result<TxnId> b = tr->Call(kBegin, kInvalidTxn, [&] { return db->Begin(); });
    ++rs->txns_begun;
    ok = tally->Op(b.status()) && ok;
    ok = ok && tally->Op(tr->Call(kDelegate, *a, [&] {
           return db->Delegate(*a, *b, DelegationSpec::All());
         }));
    if (!ok) {
      tally->Op(db->Abort(*a));
      if (b.ok()) tally->Op(db->Abort(*b));
      return tr->EndRoot(*a);
    }
    bool both = true;
    if (tally->Op(tr->Call(kCommitDelegate, *a,
                           [&] { return db->Commit(*a); }))) {
      rs->txn_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      ++rs->committed;
    } else {
      both = false;
    }
    if (tally->Op(tr->Call(kCommitDelegate, *b,
                           [&] { return db->Commit(*b); }))) {
      const uint64_t end = NowNs();
      rs->txn_us.push_back(static_cast<double>(end - tb) / 1e3);
      ++rs->committed;
      Apply(u, first_put);  // B answers for both puts
      if (both) {
        rs->kind_us[static_cast<int>(UnitKind::kDelegatePair)].push_back(
            static_cast<double>(end - t0) / 1e3);
      }
    }
    tr->EndRoot(*a);
  }

  std::vector<Unit> units_;
  std::vector<std::string> keys_;
  std::vector<std::string> put_values_;
  std::vector<std::string> expected_;
  uint64_t scan_errors_ = 0;
  uint64_t get_errors_ = 0;
};

// ---------------------------------------------------------------------------
// Restart phases (one_shard, four_shard): a fixed crash image is built
// in set-up and saved; every repetition opens it three ways (kFull,
// kInstant + first commit + drain, reenactment archive + StateAt(tail))
// and checks each result against the winners-only state the set-up
// computed.

class Restart {
 public:
  static constexpr int kTxns = 800;
  static constexpr ObjectId kObjects = 4096;
  static constexpr int kLoserPct = 10;
  static constexpr int kDelegationPct = 25;
  static constexpr size_t kPoolPages = 256;
  /// The image is rebuilt (identically: same seed) every kRebuildEvery
  /// repetitions, so set-up is timed many times across the run.
  static constexpr int kRebuildEvery = 4;
  static constexpr int kWarmupReps = 3;
  static constexpr int kMinReps = 30;
  /// Never written by the history: the first-commit probe's target.
  static constexpr ObjectId kUntouched = 1u << 20;

  Restart(size_t shards, uint64_t seed, std::string image_path)
      : shards_(shards), seed_(seed), path_(std::move(image_path)) {}

  Options MakeOptions(RecoveryMode mode) const {
    Options o;
    o.num_shards = shards_;
    o.buffer_pool_pages = kPoolPages;
    o.recovery_mode = mode;
    return o;
  }

  /// Builds the history, saves its crash image, and derives the
  /// winners-only state (delegation moves responsibility, so a delegator's
  /// updates live or die with the delegatee).
  bool Setup(Tally* tally) {
    Database db(MakeOptions(RecoveryMode::kFull));
    Random rng(seed_);
    struct Op {
      ObjectId ob;      // kInvalidObject for a table put
      int64_t delta;
      std::string key;  // table puts
      std::string value;
    };
    std::map<TxnId, std::vector<Op>> answers;  // responsible txn -> ops
    std::vector<TxnId> committed;
    // Exactly kLoserPct% of the txns stay active and kDelegationPct%
    // delegate; the seed picks which.
    std::vector<char> loser(kTxns, 0), delegates(kTxns, 0);
    std::fill_n(loser.begin(), kTxns * kLoserPct / 100, 1);
    std::fill_n(delegates.begin(), kTxns * kDelegationPct / 100, 1);
    Shuffle(&loser, &rng);
    Shuffle(&delegates, &rng);
    TxnId previous = kInvalidTxn;
    const int adds = shards_ == 1 ? 10 : 6;
    const int puts = shards_ == 1 ? 0 : 4;
    for (int i = 0; i < kTxns; ++i) {
      Result<TxnId> txn = db.Begin();
      if (!tally->Op(txn.status())) return false;
      std::vector<Op>& mine = answers[*txn];
      for (int u = 0; u < adds; ++u) {
        const ObjectId ob = rng.Uniform(kObjects);
        const int64_t delta = static_cast<int64_t>(rng.Uniform(100)) + 1;
        if (!tally->Op(db.Add(*txn, ob, delta))) return false;
        mine.push_back(Op{ob, delta, {}, {}});
      }
      for (int p = 0; p < puts; ++p) {
        std::string key = Tag('h', i, p);
        std::string value = Tag('v', seed_, i * puts + p);
        if (!tally->Op(db.TablePut(*txn, key, value))) return false;
        mine.push_back(Op{kInvalidObject, 0, std::move(key), std::move(value)});
      }
      if (previous != kInvalidTxn && delegates[i]) {
        // Delegate everything to the last transaction left active (a loser
        // at the crash), so these updates are undone despite the commit.
        if (!tally->Op(db.Delegate(*txn, previous, DelegationSpec::All()))) {
          return false;
        }
        std::vector<Op>& theirs = answers[previous];
        std::vector<Op>& moved = answers[*txn];
        theirs.insert(theirs.end(), moved.begin(), moved.end());
        moved.clear();
      }
      if (!loser[i]) {
        if (!tally->Op(db.Commit(*txn))) return false;
        committed.push_back(*txn);
      } else {
        previous = *txn;
      }
    }
    if (!tally->Op(db.Sync())) return false;
    if (!tally->Op(db.SaveTo(path_))) return false;

    expected_ = reenact::StateImage{};
    keys_.clear();
    for (const auto& [txn, ops] : answers) {
      for (const Op& op : ops) {
        if (op.ob == kInvalidObject) keys_.push_back(op.key);
      }
    }
    for (TxnId txn : committed) {
      for (const Op& op : answers[txn]) {
        if (op.ob != kInvalidObject) {
          expected_.objects[op.ob] += op.delta;
        } else {
          expected_.records[op.key] = op.value;
        }
      }
    }
    // A zero cell is canonically absent in a StateImage.
    for (auto it = expected_.objects.begin(); it != expected_.objects.end();) {
      it = it->second == 0 ? expected_.objects.erase(it) : std::next(it);
    }
    return true;
  }

  /// Every object and key of the opened database equals the winners-only
  /// state (plus `extra` on the probe object).
  void VerifyDb(Database* db, int64_t extra, const char* what, Tally* tally) {
    uint64_t bad = 0;
    for (ObjectId ob = 0; ob < kObjects; ++ob) {
      Result<int64_t> v = db->ReadCommitted(ob);
      if (!v.ok() || *v != expected_.ValueOf(ob)) ++bad;
    }
    Result<int64_t> probe = db->ReadCommitted(kUntouched);
    if (!probe.ok() || *probe != extra) ++bad;
    for (const std::string& key : keys_) {
      Result<std::optional<std::string>> v = db->TableGetCommitted(key);
      if (!v.ok() || *v != expected_.RecordOf(key)) ++bad;
    }
    tally->Check(bad == 0, std::string(what) + ": " + std::to_string(bad) +
                               " objects/keys differ from the winners-only "
                               "state");
  }

  struct Rep {
    double full_ms = 0, instant_open_ms = 0, ttfc_ms = 0, drain_ms = 0;
    double archive_open_ms = 0, stateat_query_ms = 0, stateat_ms = 0;
    // Registry cells of the opened engines (per-shard sums).
    double analysis_ms = 0, undo_ms = 0, ttfc_engine_ms = 0;
    uint64_t records_analyzed = 0, records_undone = 0;
    uint64_t backward_examined = 0, backward_skipped = 0;
    uint64_t ondemand_pages = 0, ondemand_records = 0;
    uint64_t outcome_undone = 0;  ///< merged Outcome, for the defect note
    bool traced = false;
  };

  static double HistSumMs(Database* db, const char* name) {
    return static_cast<double>(HistogramOf(db, name).sum) / 1e6;
  }

  Rep RunRep(Tracer* tr, Tally* tally) {
    Rep rep;
    rep.traced = tr->on();
    // kFull: the open returns with every pass done.
    {
      tr->BeginRoot(kRestartFull);
      const uint64_t t0 = NowNs();
      auto opened = tr->Call(kOpenFull, kInvalidTxn, [&] {
        return Database::Open(MakeOptions(RecoveryMode::kFull), path_);
      });
      rep.full_ms = static_cast<double>(NowNs() - t0) / 1e6;
      tr->EndRoot(kInvalidTxn);
      if (tally->Op(opened.status())) {
        Database* db = opened->db.get();
        rep.analysis_ms = HistSumMs(db, "ariesrh_recovery_analysis_ns");
        rep.undo_ms = HistSumMs(db, "ariesrh_recovery_undo_ns");
        rep.records_analyzed = ShardSum(db, "recovery_forward_records");
        rep.records_undone = ShardSum(db, "recovery_undos");
        rep.backward_examined = ShardSum(db, "recovery_backward_examined");
        rep.backward_skipped = ShardSum(db, "recovery_backward_skipped");
        Result<RecoveryManager::Outcome> outcome = opened->recovery->Await();
        if (outcome.ok()) rep.outcome_undone = outcome->records_undone;
        VerifyDb(db, 0, "restart kFull", tally);
      }
    }
    // kInstant: open after analysis, commit on an untouched object, drain.
    {
      tr->BeginRoot(kRestartInstant);
      const uint64_t t0 = NowNs();
      auto opened = tr->Call(kOpenInstant, kInvalidTxn, [&] {
        return Database::Open(MakeOptions(RecoveryMode::kInstant), path_);
      });
      rep.instant_open_ms = static_cast<double>(NowNs() - t0) / 1e6;
      if (tally->Op(opened.status())) {
        Database* db = opened->db.get();
        TxnId probe = kInvalidTxn;
        const Status first = tr->Call(kFirstCommit, kInvalidTxn, [&] {
          Result<TxnId> txn = db->Begin();
          if (!txn.ok()) return txn.status();
          probe = *txn;
          Status s = db->Add(probe, kUntouched, 1);
          return s.ok() ? db->Commit(probe) : s;
        });
        rep.ttfc_ms = static_cast<double>(NowNs() - t0) / 1e6;
        const bool committed = tally->Op(first);
        auto drained = tr->Call(kAwait, probe,
                                [&] { return opened->recovery->Await(); });
        rep.drain_ms = static_cast<double>(NowNs() - t0) / 1e6;
        tr->EndRoot(probe);
        if (tally->Op(drained.status())) {
          rep.ondemand_pages = ShardSum(db, "ondemand_redo_pages");
          rep.ondemand_records = ShardSum(db, "ondemand_redo_records");
          rep.ttfc_engine_ms =
              HistSumMs(db, "ariesrh_time_to_first_commit_ns");
          VerifyDb(db, committed ? 1 : 0, "restart kInstant", tally);
        }
      } else {
        tr->EndRoot(kInvalidTxn);
      }
    }
    // Reenactment: StateAt(tail) over the same image.
    {
      tr->BeginRoot(kStateAtQuery);
      const uint64_t t0 = NowNs();
      auto reenactor = tr->Call(kOpenArchive, kInvalidTxn, [&] {
        return reenact::Reenactor::OpenArchive(
            MakeOptions(RecoveryMode::kFull), path_);
      });
      const uint64_t t1 = NowNs();
      rep.archive_open_ms = static_cast<double>(t1 - t0) / 1e6;
      if (tally->Op(reenactor.status())) {
        auto image = tr->Call(kStateAt, kInvalidTxn,
                              [&] { return reenactor->StateAt(kInvalidLsn); });
        const uint64_t t2 = NowNs();
        rep.stateat_query_ms = static_cast<double>(t2 - t1) / 1e6;
        rep.stateat_ms = static_cast<double>(t2 - t0) / 1e6;
        tr->EndRoot(kInvalidTxn);
        if (tally->Op(image.status())) {
          tally->Check(*image == expected_,
                       "reenact: StateAt(tail) differs from the winners-only "
                       "state");
        }
      } else {
        tr->EndRoot(kInvalidTxn);
      }
    }
    return rep;
  }

  void RemoveImage() const {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".coord", ec);
    for (size_t i = 1; i < shards_; ++i) {
      std::filesystem::remove(Database::ShardImagePath(path_, i), ec);
    }
  }

 private:
  size_t shards_;
  uint64_t seed_;
  std::string path_;
  reenact::StateImage expected_;
  std::vector<std::string> keys_;
};

/// Runs the restart phase for `seconds` and reports its metrics; returns
/// the median time to build the crash image.
double RunRestart(const Args& args, double seconds, size_t shards,
                  Tracer* tracer, Tally* tally, Report* report) {
  Restart w(shards, args.seed,
            args.work_dir + "/image-" + args.workload + "-" +
                std::to_string(args.seed) + ".ariesrh");
  std::vector<double> setup_s;
  // Like the forward rounds, each repetition runs on one CPU (the restart
  // threads included), rotating over the CPUs.
  const std::vector<int> cpus = AllowedCpus();
  const uint64_t run_start = NowNs();
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  std::vector<Restart::Rep> reps;
  for (int i = 0;; ++i) {
    const int measured = i - Restart::kWarmupReps;
    if (measured >= Restart::kMinReps * (args.trace ? 2 : 1) &&
        NowNs() - run_start >= budget_ns) {
      break;
    }
    if (!cpus.empty()) PinToCpu(cpus[i % cpus.size()]);
    if (i % Restart::kRebuildEvery == 0) {
      const uint64_t s0 = NowNs();
      const bool ok = w.Setup(tally);
      setup_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);
      if (!ok) {
        tally->Check(false, "restart: crash image set-up failed");
        break;
      }
    }
    tracer->set_on(args.trace && measured >= 0 && i % 2 == 1);
    Restart::Rep rep = w.RunRep(tracer, tally);
    if (tracer->on()) tracer->Harvest();
    tracer->set_on(false);
    if (measured >= 0) reps.push_back(rep);
  }
  w.RemoveImage();

  auto med = [&](auto field, bool traced) {
    std::vector<double> v;
    for (const Restart::Rep& r : reps) {
      if (r.traced == traced) v.push_back(static_cast<double>(r.*field));
    }
    return Median(v);
  };
  using R = Restart::Rep;
  const std::pair<const char*, double R::*> e2e[] = {
      {"restart_full_ms", &R::full_ms},
      {"restart_ttfc_ms", &R::ttfc_ms},
      {"restart_drain_ms", &R::drain_ms},
      {"stateat_ms", &R::stateat_ms},
  };
  report->notes.push_back("restart repetitions measured: " +
                          std::to_string(reps.size()) + " (+" +
                          std::to_string(Restart::kWarmupReps) + " warm-up)");
  report->notes.push_back(
      "Outcome.records_undone (merged, median): " +
      Num(med(&R::outcome_undone, false)) +
      " vs registry per-shard cells: " + Num(med(&R::records_undone, false)));
  if (!args.trace) {
    for (const auto& [name, field] : e2e) report->Add(name, med(field, false), "ms");
    return Median(setup_s);
  }
  for (const auto& [name, field] : e2e) {
    const double plain = med(field, false);
    const double traced = med(field, true);
    report->notes.push_back("tracing overhead " + std::string(name) + ": " +
                            Num(traced - plain) + " ms (" +
                            Num(plain == 0 ? 0 : 100.0 * (traced - plain) / plain) +
                            "%)");
  }
  auto span_ms = [&](SpanName n) { return Median(tracer->durations(n)) / 1e3; };
  report->Add("core.open_full_ms", span_ms(kOpenFull), "ms");
  report->Add("core.open_instant_ms", span_ms(kOpenInstant), "ms");
  report->Add("core.first_commit_ms", span_ms(kFirstCommit), "ms");
  report->Add("core.await_ms", span_ms(kAwait), "ms");
  report->Add("recovery.analysis_ms", med(&R::analysis_ms, true), "ms");
  report->Add("recovery.undo_ms", med(&R::undo_ms, true), "ms");
  report->Add("recovery.records_analyzed", med(&R::records_analyzed, true),
              "count");
  report->Add("recovery.records_undone", med(&R::records_undone, true),
              "count");
  report->Add("recovery.backward_examined", med(&R::backward_examined, true),
              "count");
  report->Add("recovery.backward_skipped", med(&R::backward_skipped, true),
              "count");
  report->Add("recovery.ondemand_redo_pages", med(&R::ondemand_pages, true),
              "count");
  report->Add("recovery.ondemand_redo_records",
              med(&R::ondemand_records, true), "count");
  report->Add("recovery.ttfc_engine_ms", med(&R::ttfc_engine_ms, true), "ms");
  report->Add("reenact.open_ms", span_ms(kOpenArchive), "ms");
  report->Add("reenact.query_ms", span_ms(kStateAt), "ms");
  return Median(setup_s);
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <one_shard|four_shard> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--work-dir <dir>] [--git-sha <sha>]\n");
    return 2;
  }
  if (args.workload != "one_shard" && args.workload != "four_shard") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);

  Tally tally;
  Tracer tracer;
  Report report;
  std::string sizes;
  // The forward phase and the restart phase each get half of the run.
  const double phase_s = args.seconds / 2;
  double forward_setup_s = 0;
  size_t shards = 1;
  if (args.workload == "one_shard") {
    ObjCommit w(args.seed);
    sizes = "forward: 1 shard, 1 client, group commit (adaptive) + ELR, "
            "checkpoint daemon every 8192 records; 65536 objects on 1024 "
            "pages, 256-page pool; " +
            std::to_string(ObjCommit::kUnits) + " units/round (5/8 4-Add, 1/8 "
            "delegating pair, 1/8 get, 1/8 scan of 16)";
    ForwardResult res = RunForwardRounds(args, phase_s, &w, &tracer, &tally);
    ReportForward(args, res, tracer, &report);
    forward_setup_s = Median(res.setup_s);
  } else {
    Ycsb w(args.seed);
    sizes = "forward: 4 shards, 1 client, inline force; 20000 x 100 B "
            "records, Zipf 0.99; " + std::to_string(Ycsb::kUnits) +
            " units/round (30% scan 1-16, 30% get, 35% 2-put, 5% transfer), "
            "a checkpoint every " + std::to_string(Ycsb::kCheckpointEvery) +
            " units";
    ForwardResult res = RunForwardRounds(args, phase_s, &w, &tracer, &tally);
    ReportForward(args, res, tracer, &report);
    forward_setup_s = Median(res.setup_s);
    shards = Ycsb::kShards;
  }
  sizes += "; restart: " + std::to_string(shards) +
           " shard(s), crash image of 800 txns over 4096 objects, " +
           (shards == 1 ? "10 Adds" : "6 Adds + 4 puts") +
           " each, 25% delegating to an active txn, 10% left active; "
           "256-page pool per shard";
  const double restart_setup_s =
      RunRestart(args, phase_s, shards, &tracer, &tally, &report);
  // The workload's set-up: one forward database plus one crash image.
  report.notes.push_back("setup_s: forward " + Num(forward_setup_s) +
                         " s + crash image " + Num(restart_setup_s) + " s");
  if (!args.trace) {
    report.Add("setup_s", forward_setup_s + restart_setup_s, "s");
  }

  std::printf("# provenance: nproc=%u build_type=%s git_sha=%s seed=%llu "
              "seconds=%s trace=%d\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              args.git_sha.c_str(), static_cast<unsigned long long>(args.seed),
              Num(args.seconds).c_str(), args.trace ? 1 : 0);
  std::printf("# workload %s: %s\n", args.workload.c_str(), sizes.c_str());
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  if (args.trace) {
    const std::string span_path = args.work_dir + "/spans-" + args.workload +
                                  "-" + std::to_string(args.seed) + ".jsonl";
    tally.Check(tracer.WriteFile(span_path), "cannot write " + span_path);
    std::printf("# span file: %s\n# span self time (p50 us, samples):\n",
                span_path.c_str());
    for (int n = 0; n < kSpanNameCount; ++n) {
      const auto& self = tracer.self_times(static_cast<SpanName>(n));
      if (self.empty()) continue;
      std::printf("#   %-24s %10s  n=%zu\n", kSpanNames[n],
                  Num(Median(self)).c_str(), self.size());
    }
  }
  for (const Metric& m : report.metrics) {
    std::printf("# %-34s %s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }

  const bool correct = tally.check_failures == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            Num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
