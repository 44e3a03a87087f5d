// Tests for the crash-tolerant sweep sharding layer (cgc::sweep):
// deterministic partitioning, flock leases + stale-state quarantine,
// the shared single-writer trace cache, the shard ledger's one
// DataError/TransientError taxonomy (one table row per class) and its
// resume policy, the report merge's digest checks, and the supervisor's
// exit-code triage. The end-to-end kill-and-resume invariant (SIGKILL
// workers at random, resume, merge, diff against a single-process run)
// lives in tests/sweep_shard_cli_test.py; these tests pin the contracts
// it relies on.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "store/writer.hpp"
#include "sweep/cache.hpp"
#include "sweep/lease.hpp"
#include "sweep/ledger.hpp"
#include "sweep/merge.hpp"
#include "sweep/partition.hpp"
#include "sweep/report_io.hpp"
#include "sweep/supervisor.hpp"
#include "trace/trace_set.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace cgc::sweep {
namespace {

namespace fs = std::filesystem;

class SweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cgc_sweep_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static void write_file(const std::string& p, const std::string& content) {
    fs::create_directories(fs::path(p).parent_path());
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << content;
  }

  static std::string read_file(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  fs::path dir_;
};

// ---- partitioning ---------------------------------------------------------

TEST_F(SweepTest, ParseShardSpecAcceptsValidRejectsInvalid) {
  const ShardSpec spec = parse_shard_spec("3/8");
  EXPECT_EQ(spec.index, 3);
  EXPECT_EQ(spec.total, 8);
  EXPECT_TRUE(spec.sharded());
  EXPECT_EQ(spec.str(), "3/8");
  const ShardSpec whole = parse_shard_spec("0/1");
  EXPECT_FALSE(whole.sharded());

  EXPECT_THROW(parse_shard_spec("8/8"), util::FatalError);
  EXPECT_THROW(parse_shard_spec("-1/4"), util::FatalError);
  EXPECT_THROW(parse_shard_spec("2"), util::FatalError);
  EXPECT_THROW(parse_shard_spec("a/b"), util::FatalError);
  EXPECT_THROW(parse_shard_spec("1/0"), util::FatalError);
  EXPECT_THROW(parse_shard_spec("1/4x"), util::FatalError);
}

TEST_F(SweepTest, StableCaseHashMatchesItsDocumentedConstruction) {
  // The hash is the sharding contract: reports stamped under one
  // construction cannot be merged under another. Pin FNV-1a +
  // splitmix64 by recomputing it independently here.
  const auto reference = [](std::string_view s) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h += 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
  };
  for (const char* id : {"tab01_workloads", "fig02_priorities", "a", ""}) {
    EXPECT_EQ(stable_case_hash(id), reference(id)) << id;
  }
  EXPECT_NE(stable_case_hash("fig02"), stable_case_hash("fig03"));
}

TEST_F(SweepTest, EveryCaseOwnedByExactlyOneShardAndAllShardsUsed) {
  std::vector<std::string> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back("case_" + std::to_string(i));
  }
  const int total = 8;
  std::vector<int> per_shard(total, 0);
  for (const std::string& id : ids) {
    const int owner = shard_of(id, total);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, total);
    ++per_shard[owner];
    int owners = 0;
    for (int i = 0; i < total; ++i) {
      owners += owns(ShardSpec{i, total}, id) ? 1 : 0;
    }
    EXPECT_EQ(owners, 1) << id;
  }
  // splitmix diffusion: 100 sequential ids must reach all 8 shards.
  for (int i = 0; i < total; ++i) {
    EXPECT_GT(per_shard[i], 0) << "shard " << i << " got no cases";
  }
}

// ---- leases ---------------------------------------------------------------

TEST_F(SweepTest, LeaseExcludesSecondHolderAndReleasesCleanly) {
  const std::string lease_path = path("worker.lease");
  std::optional<Lease> held = Lease::try_acquire(lease_path);
  ASSERT_TRUE(held.has_value());

  // flock treats a second open of the same file as a competing holder,
  // even within one process — good enough to stand in for a second
  // worker here.
  EXPECT_FALSE(Lease::try_acquire(lease_path).has_value());

  const LeaseInfo probe = read_lease(lease_path);
  EXPECT_TRUE(probe.exists);
  EXPECT_TRUE(probe.held);
  EXPECT_EQ(probe.pid, static_cast<std::int64_t>(::getpid()));

  held->release();
  EXPECT_FALSE(fs::exists(lease_path));
  EXPECT_TRUE(Lease::try_acquire(lease_path).has_value());
}

TEST_F(SweepTest, RefreshAdvancesProgressStamp) {
  const std::string lease_path = path("worker.lease");
  std::optional<Lease> held = Lease::try_acquire(lease_path);
  ASSERT_TRUE(held.has_value());
  ASSERT_TRUE(held->refresh(42));
  const LeaseInfo probe = read_lease(lease_path);
  EXPECT_EQ(probe.progress, 42u);
  EXPECT_GT(probe.mono_ns, 0u);
}

TEST_F(SweepTest, DeadHolderLeaseReadsAsFree) {
  // A lease file with no live flock holder — what a SIGKILLed worker
  // leaves behind.
  write_file(path("worker.lease"), "pid 12345\nprogress 7\nmono_ns 99\n");
  const LeaseInfo probe = read_lease(path("worker.lease"));
  EXPECT_TRUE(probe.exists);
  EXPECT_FALSE(probe.held);
  EXPECT_EQ(probe.pid, 12345);
  EXPECT_EQ(probe.progress, 7u);
}

TEST_F(SweepTest, QuarantineMovesStaleStateAndSparesRecordedOutputs) {
  write_file(path("worker.lease"), "pid 12345\nprogress 7\nmono_ns 99\n");
  write_file(path("report.json.tmp"), "torn");
  write_file(path("cache.cgcs.tmp.123"), "staging litter");
  write_file(path("torn.dat"), "unstamped output");
  write_file(path("sub/torn2.dat"), "unstamped output in subdir");
  write_file(path("keep.dat"), "recorded output");
  write_file(path("sub/keep2.dat"), "recorded output in subdir");
  write_file(path("worker.log"), "log");
  write_file(path("report.json"), "not parsed here");

  const QuarantineReport report =
      quarantine_stale(dir_.string(), {"keep.dat", "sub/keep2.dat"});

  EXPECT_TRUE(report.stale_lease);
  const std::set<std::string> moved(report.moved.begin(), report.moved.end());
  const std::set<std::string> want = {"worker.lease", "report.json.tmp",
                                      "cache.cgcs.tmp.123", "torn.dat",
                                      "sub/torn2.dat"};
  EXPECT_EQ(moved, want);
  EXPECT_TRUE(fs::exists(path("keep.dat")));
  EXPECT_TRUE(fs::exists(path("sub/keep2.dat")));
  EXPECT_TRUE(fs::exists(path("worker.log")));
  EXPECT_TRUE(fs::exists(path("report.json")));
  EXPECT_FALSE(fs::exists(path("torn.dat")));
  // Subdir leftovers land flattened under quarantine/.
  EXPECT_TRUE(fs::exists(path("quarantine/sub_torn2.dat.quarantined")));

  // Idempotent: a second sweep finds nothing left to move.
  const QuarantineReport again =
      quarantine_stale(dir_.string(), {"keep.dat", "sub/keep2.dat"});
  EXPECT_TRUE(again.moved.empty());
}

TEST_F(SweepTest, QuarantineLeavesLiveLeaseAlone) {
  std::optional<Lease> held = Lease::try_acquire(path("worker.lease"));
  ASSERT_TRUE(held.has_value());
  const QuarantineReport report = quarantine_stale(dir_.string(), {});
  EXPECT_FALSE(report.stale_lease);
  EXPECT_TRUE(fs::exists(path("worker.lease")));
}

// ---- shared trace cache ---------------------------------------------------

trace::TraceSet tiny_trace(int job_id) {
  trace::TraceSet trace("sweep-test");
  trace::Job job;
  job.job_id = job_id;
  job.submit_time = 100;
  job.end_time = 500;
  trace.add_job(job);
  trace.set_duration(3600);
  trace.finalize();
  return trace;
}

TEST_F(SweepTest, CacheBuildsOncePublishesAndReloads) {
  const std::string base = path("cache/entry");
  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    return tiny_trace(7);
  };

  CacheResult first = load_or_build_cgcs(base, build);
  EXPECT_TRUE(first.built);
  EXPECT_EQ(builds, 1);
  EXPECT_TRUE(fs::exists(base + ".cgcs"));
  EXPECT_FALSE(fs::exists(base + ".cgcs.lock"));  // released after publish
  ASSERT_EQ(first.trace.jobs().size(), 1u);
  EXPECT_EQ(first.trace.jobs()[0].job_id, 7);

  CacheResult second = load_or_build_cgcs(base, build);
  EXPECT_FALSE(second.built);
  EXPECT_EQ(builds, 1);
  ASSERT_EQ(second.trace.jobs().size(), 1u);
  EXPECT_EQ(second.trace.jobs()[0].job_id, 7);
}

TEST_F(SweepTest, CacheDiscardsUnreadableEntryAndRebuilds) {
  const std::string base = path("cache/entry");
  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    return tiny_trace(7);
  };
  load_or_build_cgcs(base, build);
  write_file(base + ".cgcs", "garbage, not a store file");

  const CacheResult rebuilt = load_or_build_cgcs(base, build);
  EXPECT_TRUE(rebuilt.built);
  EXPECT_EQ(builds, 2);
  ASSERT_EQ(rebuilt.trace.jobs().size(), 1u);
}

TEST_F(SweepTest, CacheWaitMustBeANonNegativeWholeNumber) {
  const std::string base = path("cache/entry");
  // Another builder holds the lock, so the caller can only wait.
  fs::create_directories(path("cache"));
  std::optional<Lease> builder = Lease::try_acquire(base + ".cgcs.lock");
  ASSERT_TRUE(builder.has_value());
  const auto never_built = []() -> trace::TraceSet {
    ADD_FAILURE() << "built under another builder's lock";
    return tiny_trace(1);
  };
  for (const char* bad : {"abc", "-1", "5s", "1.5"}) {
    ::setenv("CGC_CACHE_WAIT", bad, 1);
    EXPECT_THROW(load_or_build_cgcs(base, never_built), util::FatalError)
        << "CGC_CACHE_WAIT=" << bad;
  }
  // Zero is a valid wait: give up at once, retryably.
  ::setenv("CGC_CACHE_WAIT", "0", 1);
  EXPECT_THROW(load_or_build_cgcs(base, never_built), util::TransientError);
  ::unsetenv("CGC_CACHE_WAIT");
}

TEST_F(SweepTest, HugeCacheWaitWaitsInsteadOfTimingOut) {
  const std::string base = path("cache/entry");
  fs::create_directories(path("cache"));
  std::optional<Lease> builder = Lease::try_acquire(base + ".cgcs.lock");
  ASSERT_TRUE(builder.has_value());
  // The largest value a long holds: seconds * 1e9 overflows 64 bits, so
  // a wrapped deadline would already have passed.
  ::setenv("CGC_CACHE_WAIT", "9223372036854775807", 1);
  // The other builder gives up without publishing; the waiter takes over.
  std::thread quitter([&builder] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    builder.reset();
  });
  CacheResult r;
  EXPECT_NO_THROW(r = load_or_build_cgcs(base, [] { return tiny_trace(1); }));
  quitter.join();
  ::unsetenv("CGC_CACHE_WAIT");
  EXPECT_TRUE(r.waited);
  EXPECT_TRUE(r.built);
}

TEST_F(SweepTest, ConfigHashDistinguishesConfigs) {
  EXPECT_NE(config_hash("google_workload v1 rate=0.25 horizon=100"),
            config_hash("google_workload v1 rate=0.5 horizon=100"));
  const std::string hex = config_hash_hex("x");
  EXPECT_EQ(hex.size(), 16u);
}

TEST_F(SweepTest, VerifyCacheFlagsLitterStaleLocksAndDamage) {
  const std::string cache = path("cache");
  load_or_build_cgcs(cache + "/good", [] { return tiny_trace(1); });
  // A dead builder's leftovers: orphaned staging file + free lock.
  write_file(cache + "/crashed.cgcs.tmp.999", "half-written");
  write_file(cache + "/crashed.cgcs.lock",
             "pid 999\nprogress 0\nmono_ns 1\n");
  // An unreadable entry.
  write_file(cache + "/broken.cgcs", "garbage");

  const CacheAudit audit = verify_cache(cache);
  EXPECT_EQ(audit.entries, 2u);        // good + broken
  EXPECT_EQ(audit.entries_clean, 1u);  // good only
  EXPECT_EQ(audit.stale_locks, 1u);
  EXPECT_EQ(audit.tmp_litter, 1u);
  EXPECT_FALSE(audit.clean());
  bool saw_fatal = false;
  for (const store::AuditIssue& issue : audit.issues) {
    saw_fatal |= issue.fatal;
  }
  EXPECT_TRUE(saw_fatal);  // the unreadable entry

  // A live builder's lock is not an issue unless asked for.
  std::optional<Lease> live = Lease::try_acquire(cache + "/live.cgcs.lock");
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(verify_cache(cache).issues.size(), audit.issues.size());
  EXPECT_GT(verify_cache(cache, /*flag_live_locks=*/true).issues.size(),
            audit.issues.size());
}

TEST_F(SweepTest, VerifyCacheIsCleanOnHealthyDir) {
  const std::string cache = path("cache");
  load_or_build_cgcs(cache + "/good", [] { return tiny_trace(1); });
  const CacheAudit audit = verify_cache(cache);
  EXPECT_TRUE(audit.clean());
  EXPECT_EQ(audit.entries, 1u);
  EXPECT_EQ(audit.entries_clean, 1u);
}

// ---- merge ----------------------------------------------------------------

CaseMeta meta_of(const std::string& id) {
  return {id, "figure", "Title " + id};
}

/// Writes `<id>.dat` into `dir` and returns the matching ok record.
CaseRecord make_ok_case(const std::string& dir, const std::string& id,
                        const std::string& content) {
  const std::string file = id + ".dat";
  {
    fs::create_directories(dir);
    std::ofstream out(dir + "/" + file, std::ios::binary);
    out << content;
  }
  CaseRecord r;
  r.id = id;
  r.kind = "figure";
  r.title = "Title " + id;
  r.ok = true;
  r.seconds = 1.25;  // volatile — must not survive canonicalization
  r.attempts = 3;
  CaseOutput o;
  o.file = file;
  EXPECT_TRUE(file_crc32(dir + "/" + file, &o.crc, &o.size));
  r.outputs.push_back(o);
  return r;
}

class MergeTest : public SweepTest {
 protected:
  /// The case universe: 8 ids, partitioned 2-way by the stable hash.
  std::vector<CaseMeta> universe() const {
    std::vector<CaseMeta> expected;
    for (int i = 0; i < 8; ++i) {
      expected.push_back(meta_of("case_" + std::to_string(i)));
    }
    return expected;
  }

  /// Builds shard dirs s0/s1 of a 2-way split plus a single-process
  /// dir holding every case, all with identical .dat content per case.
  void build_partitioned_dirs() {
    SweepReport s0, s1, single;
    s0.shard_index = 0;
    s0.shard_total = 2;
    s0.complete = true;
    s1.shard_index = 1;
    s1.shard_total = 2;
    s1.complete = true;
    single.complete = true;
    single.threads = 8;       // volatile fields the canonical form drops
    single.total_seconds = 9.5;
    for (const CaseMeta& meta : universe()) {
      const std::string content = "series for " + meta.id + "\n1 2\n3 4\n";
      single.cases.push_back(
          make_ok_case(path("single"), meta.id, content));
      if (shard_of(meta.id, 2) == 0) {
        s0.cases.push_back(make_ok_case(path("s0"), meta.id, content));
      } else {
        s1.cases.push_back(make_ok_case(path("s1"), meta.id, content));
      }
    }
    ASSERT_FALSE(s0.cases.empty());
    ASSERT_FALSE(s1.cases.empty());
    write_report(s0, path("s0/report.json"));
    write_report(s1, path("s1/report.json"));
    write_report(single, path("single/report.json"));
  }
};

TEST_F(MergeTest, ShardMergeIsByteIdenticalToSingleProcessMerge) {
  build_partitioned_dirs();

  MergeOptions options;
  options.expected = universe();
  options.out_dir = path("merged_shards");
  const MergeResult sharded =
      merge_shards({path("s0"), path("s1")}, options);
  EXPECT_EQ(sharded.cases_ok, 8u);
  EXPECT_EQ(sharded.cases_failed, 0u);
  EXPECT_EQ(sharded.cases_missing, 0u);
  EXPECT_EQ(sharded.files_copied, 8u);
  EXPECT_TRUE(sharded.report.merged);
  EXPECT_TRUE(sharded.report.complete);

  options.out_dir = path("merged_single");
  const MergeResult plain = merge_shards({path("single")}, options);

  // The headline invariant, in miniature: same bytes either way.
  EXPECT_EQ(read_file(path("merged_shards/report.json")),
            read_file(path("merged_single/report.json")));
  for (const CaseMeta& meta : universe()) {
    EXPECT_EQ(read_file(path("merged_shards/" + meta.id + ".dat")),
              read_file(path("merged_single/" + meta.id + ".dat")))
        << meta.id;
  }
  // Cases come back in universe order, not hash or directory order.
  ASSERT_EQ(sharded.report.cases.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(sharded.report.cases[i].id, universe()[i].id);
    EXPECT_EQ(sharded.report.cases[i].attempts, 1);
    EXPECT_DOUBLE_EQ(sharded.report.cases[i].seconds, 0.0);
  }
}

TEST_F(MergeTest, DigestDisagreementIsConflict) {
  SweepReport a;
  a.complete = true;
  CaseRecord r = make_ok_case(path("a"), "case_x", "original bytes\n");
  r.outputs[0].crc ^= 0xffffffffu;  // recorded digest no longer matches
  a.cases.push_back(r);
  write_report(a, path("a/report.json"));

  MergeOptions options;
  options.expected = {meta_of("case_x")};
  options.out_dir = path("out");
  try {
    merge_shards({path("a")}, options);
    FAIL() << "digest mismatch not detected";
  } catch (const util::DataError& e) {
    EXPECT_NE(std::string(e.what()).find("digest disagreement"),
              std::string::npos);
    EXPECT_EQ(error::merge_exit_code(e), util::kExitConflict);
  }
}

TEST_F(MergeTest, UncoveredCaseNamesItsShardUnderTheStampedSplit) {
  // Four stamped shard dirs of a 4-way split over 16 cases; the merge
  // gets three. Drop a shard whose first case would be misattributed by
  // a 3-way reading of the split (the number of dirs passed).
  std::vector<CaseMeta> expected;
  for (int i = 0; i < 16; ++i) {
    expected.push_back(meta_of("case_" + std::to_string(i)));
  }
  std::vector<SweepReport> shards(4);
  for (int j = 0; j < 4; ++j) {
    shards[j].shard_index = j;
    shards[j].shard_total = 4;
    shards[j].complete = true;
  }
  for (const CaseMeta& meta : expected) {
    const int j = shard_of(meta.id, 4);
    shards[j].cases.push_back(make_ok_case(path("s" + std::to_string(j)),
                                           meta.id, meta.id + "\n"));
  }
  int dropped = -1;
  std::string first;
  for (int j = 0; j < 4 && dropped < 0; ++j) {
    if (!shards[j].cases.empty() &&
        shard_of(shards[j].cases[0].id, 3) != j) {
      dropped = j;
      first = shards[j].cases[0].id;
    }
  }
  ASSERT_GE(dropped, 0);
  std::vector<std::string> dirs;
  for (int j = 0; j < 4; ++j) {
    const std::string dir = path("s" + std::to_string(j));
    write_report(shards[j], dir + "/report.json");
    if (j != dropped) {
      dirs.push_back(dir);
    }
  }

  MergeOptions options;
  options.expected = expected;
  options.out_dir = path("out");
  try {
    merge_shards(dirs, options);
    FAIL() << "uncovered case not detected";
  } catch (const util::TransientError& e) {
    const std::string want = "case " + first + " (shard " +
                             std::to_string(dropped) + " of a 4-way split)";
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what() << "\nwant: " << want;
    EXPECT_EQ(error::merge_exit_code(e), util::kExitFailure);
  }

  // Under allow_partial the dropped shard's cases become failed records.
  options.allow_partial = true;
  const MergeResult partial = merge_shards(dirs, options);
  EXPECT_EQ(partial.cases_missing, shards[dropped].cases.size());
  EXPECT_EQ(partial.cases_ok + partial.cases_missing, expected.size());
  for (const CaseRecord& r : partial.report.cases) {
    EXPECT_EQ(r.ok, shard_of(r.id, 4) != dropped) << r.id;
  }
}

TEST_F(MergeTest, MergingAMergeIsRejected) {
  build_partitioned_dirs();
  MergeOptions options;
  options.expected = universe();
  options.out_dir = path("out");
  merge_shards({path("s0"), path("s1")}, options);

  MergeOptions again = options;
  again.out_dir = path("out2");
  EXPECT_THROW(merge_shards({path("out")}, again), util::DataError);
}

// ---- ledger ---------------------------------------------------------------

/// First id "<prefix>_<k>" that shard `index` of `total` owns.
std::string owned_id(const std::string& prefix, int index, int total) {
  for (int k = 0;; ++k) {
    const std::string id = prefix + "_" + std::to_string(k);
    if (shard_of(id, total) == index) {
      return id;
    }
  }
}

/// A readable, complete input: shard `index` of 2 holding `ids`.
LedgerInput shard_input(const std::string& path, int index,
                        std::vector<std::string> ids) {
  LedgerInput input;
  input.path = path;
  input.status = util::ReadStatus::kOk;
  input.stamp.experiment = "exp";
  input.stamp.shard = {index, 2};
  input.stamp.complete = true;
  input.ids = std::move(ids);
  return input;
}

TEST(LedgerTest, MergeTaxonomyHasOneOutcomePerClass) {
  const std::string a = owned_id("item", 0, 2);
  const std::string b = owned_id("item", 1, 2);
  const std::vector<LedgerInput> base = {shard_input("s0", 0, {a}),
                                         shard_input("s1", 1, {b})};
  enum class Want { kOk, kTransient, kData };
  struct Row {
    const char* name;
    std::function<void(std::vector<LedgerInput>*, MergePolicy*)> edit;
    Want want;
    std::string says;  ///< expected message fragment ("" for kOk)
  };
  const auto none = [](std::vector<LedgerInput>*, MergePolicy*) {};
  const std::vector<Row> rows = {
      {"clean split", none, Want::kOk, ""},
      {"foreign experiment",
       [](auto* in, auto*) { (*in)[1].stamp.experiment = "other"; },
       Want::kData, "s1 is stamped for other, not exp"},
      {"already-merged input",
       [](auto* in, auto*) { (*in)[0].stamp.merged = true; },
       Want::kData, "s0 is the output of a merge"},
      {"item its stamp does not own",
       [&](auto* in, auto*) { (*in)[0].ids = {a, b}; }, Want::kData,
       "partition mismatch: s0 (stamp 0/2) holds item " + b},
      {"unknown id",
       [](auto* in, auto*) {
         (*in)[0].ids.push_back(owned_id("stray", 0, 2));
       },
       Want::kData, "s0 holds unknown item"},
      {"known id outside the universe is skipped",
       [](auto* in, auto* policy) {
         const std::string kept = owned_id("kept", 0, 2);
         (*in)[0].ids.push_back(kept);
         policy->known = {kept};
       },
       Want::kOk, ""},
      {"one id in two inputs",
       [](auto* in, auto*) {
         in->push_back((*in)[1]);
         in->back().path = "s1-copy";
       },
       Want::kData, "item " + b + " claimed by both s1 and s1-copy"},
      {"torn input",
       [](auto* in, auto*) {
         (*in)[1].status = util::ReadStatus::kCorrupt;
       },
       Want::kTransient, "torn checkpoint s1 — resumable"},
      {"impossible shard stamp reads as torn",
       [](auto* in, auto*) { (*in)[1].stamp.shard = {2, 2}; },
       Want::kTransient, "torn checkpoint s1"},
      {"missing input",
       [](auto* in, auto*) {
         (*in)[1].status = util::ReadStatus::kMissing;
       },
       Want::kTransient, "no checkpoint s1 — resumable"},
      {"incomplete input",
       [](auto* in, auto*) { (*in)[1].stamp.complete = false; },
       Want::kTransient, "incomplete shard (complete: false) s1"},
      {"uncovered id", [](auto* in, auto*) { in->pop_back(); },
       Want::kTransient, "item " + b + " (shard 1 of a 2-way split)"},
      {"no inputs", [](auto* in, auto*) { in->clear(); }, Want::kTransient,
       "no item checkpoints to merge"},
      {"torn input under allow_partial",
       [](auto* in, auto* policy) {
         (*in)[1].status = util::ReadStatus::kCorrupt;
         policy->allow_partial = true;
       },
       Want::kOk, ""},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    std::vector<LedgerInput> inputs = base;
    MergePolicy policy;
    policy.universe = {a, b};
    row.edit(&inputs, &policy);
    Want got = Want::kOk;
    std::string what;
    Claims claims;
    try {
      claims = claim(inputs, policy);
    } catch (const util::DataError& e) {
      got = Want::kData;
      what = e.what();
      EXPECT_EQ(error::merge_exit_code(e), util::kExitConflict);
    } catch (const util::TransientError& e) {
      got = Want::kTransient;
      what = e.what();
      EXPECT_EQ(error::merge_exit_code(e), util::kExitFailure);
    }
    EXPECT_EQ(static_cast<int>(got), static_cast<int>(row.want)) << what;
    EXPECT_NE(what.find(row.says), std::string::npos)
        << what << "\nwant: " << row.says;
    if (got == Want::kOk) {
      ASSERT_EQ(claims.items.size(), 2u);
      EXPECT_EQ(claims.items[0].input, 0u);
      EXPECT_EQ(claims.items[0].index, 0u);
      const bool partial = policy.allow_partial;
      EXPECT_EQ(claims.items[1].input, partial ? Claim::kNone : 1u);
      EXPECT_EQ(claims.notes.size(), partial ? 1u : 0u);
      EXPECT_EQ(claims.usable, (std::vector<bool>{true, !partial}));
    }
  }
}

TEST_F(SweepTest, LedgerResumeReusesOwnMovesTornAsideRefusesForeign) {
  const std::string p = path("ckpt");
  LedgerInput found = shard_input(p, 1, {});
  const Stamp own = found.stamp;
  EXPECT_TRUE(resume(found, own));
  found.stamp.experiment = "other";
  EXPECT_THROW(resume(found, own), util::DataError);
  found.stamp = own;
  found.stamp.shard = {0, 2};
  EXPECT_THROW(resume(found, own), util::DataError);
  found.status = util::ReadStatus::kMissing;
  EXPECT_FALSE(resume(found, own));

  write_file(p, "torn bytes");
  found.status = util::ReadStatus::kCorrupt;
  EXPECT_FALSE(resume(found, own));
  EXPECT_FALSE(fs::exists(p));
  EXPECT_EQ(read_file(p + ".corrupt"), "torn bytes");
}

// ---- supervisor -----------------------------------------------------------

SupervisorConfig fast_supervisor(const std::string& out_root) {
  SupervisorConfig config;
  config.num_shards = 1;
  config.out_root = out_root;
  config.make_args = [](int) { return std::vector<std::string>{}; };
  config.retry_budget = 2;
  config.backoff_ms = 1;
  config.backoff_cap_ms = 2;
  config.poll_ms = 5;
  return config;
}

TEST_F(SweepTest, SupervisorCompletesWorkerThatFinishes) {
  SupervisorConfig config = fast_supervisor(dir_.string());
  config.exe = "/bin/true";
  // The worker's checkpoint already says "complete" — /bin/true stands
  // in for a worker whose final flush landed.
  const std::string sdir = shard_dir(config.out_root, 0, 1);
  fs::create_directories(sdir);
  SweepReport done;
  done.complete = true;
  write_report(done, sdir + "/report.json");

  const SupervisorResult result = run_supervisor(config);
  ASSERT_EQ(result.shards.size(), 1u);
  EXPECT_EQ(result.shards[0].outcome, ShardOutcome::kComplete);
  EXPECT_EQ(result.shards[0].spawns, 1);
  EXPECT_EQ(result.respawns, 0);
  EXPECT_TRUE(result.all_complete());
}

TEST_F(SweepTest, SupervisorExhaustsUnlaunchableWorkerWithoutRetry) {
  SupervisorConfig config = fast_supervisor(dir_.string());
  config.exe = "/nonexistent/worker/binary";
  const SupervisorResult result = run_supervisor(config);
  ASSERT_EQ(result.shards.size(), 1u);
  EXPECT_EQ(result.shards[0].outcome, ShardOutcome::kExhausted);
  EXPECT_EQ(result.shards[0].spawns, 1);  // exec failure: no retry
  EXPECT_EQ(result.shards[0].last_exit, 127);
  EXPECT_FALSE(result.all_complete());
}

TEST_F(SweepTest, SupervisorRespawnsCrashingWorkerUntilBudgetExhausted) {
  SupervisorConfig config = fast_supervisor(dir_.string());
  config.exe = "/bin/false";  // exits 1 without ever writing a report
  const SupervisorResult result = run_supervisor(config);
  ASSERT_EQ(result.shards.size(), 1u);
  EXPECT_EQ(result.shards[0].outcome, ShardOutcome::kExhausted);
  EXPECT_EQ(result.shards[0].spawns, 3);  // initial + 2 budgeted respawns
  EXPECT_EQ(result.respawns, 2);
  EXPECT_EQ(result.shards[0].last_exit, 1);
}

}  // namespace
}  // namespace cgc::sweep
