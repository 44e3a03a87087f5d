// cgc_report: the whole reproduction sweep in one process — or
// sharded across many.
//
// Runs every registered bench case (all paper figures/tables plus the
// ablations and extensions) over the shared in-memory trace cache —
// each standard trace is built exactly once per process — with up to
// CGC_THREADS cases at once, while the kernels inside each pipeline fan
// out across the cgc::exec pool. Each case's stdout block and report
// record come out whole and in registry order, as a serial sweep's do.
// `--only <id>` runs one case: this is the one way to run a paper
// figure or table. Emits the .dat series plus a machine-readable
// $CGC_BENCH_OUT/report.json.
//
// The sweep is built to survive a bad night: report.json is rewritten
// atomically after every case (a SIGKILL at any point leaves a valid
// checkpoint), cases that throw cgc::util::TransientError are retried
// with capped exponential backoff, a wall-clock watchdog bounds each
// case, and `--resume` skips cases whose recorded .dat outputs still
// hash-match, re-running only the unfinished ones — after quarantining
// anything a killed worker left half-done (stale lease, staging litter,
// .dat files the report never stamped).
//
// Scale-out (cgc::sweep): `--shard i/N` runs the deterministic subset
// of cases shard i owns (stable hash of the case id — see
// src/sweep/partition.hpp) while holding a worker lease and heartbeat
// in the checkpoint dir; `--merge dir...` fuses shard dirs into the
// single-process-identical artifact, verifying every recorded CRC;
// `--spawn N` forks N shard workers, respawns the ones that crash or
// hang (capped backoff, bounded budget), then merges, degrading
// exhausted shards to failed cases instead of sinking the sweep.
//
// Flags, environment knobs and exit codes: `cgc_report --help`.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "registry.hpp"
#include "sweep/lease.hpp"
#include "sweep/ledger.hpp"
#include "sweep/merge.hpp"
#include "sweep/partition.hpp"
#include "sweep/report_io.hpp"
#include "sweep/supervisor.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace {

/// Cumulative process CPU time (user + system), seconds. 0.0 where
/// getrusage is unavailable.
double process_cpu_seconds() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    const auto to_s = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return to_s(usage.ru_utime) + to_s(usage.ru_stime);
  }
#endif
  return 0.0;
}

/// Peak resident set of this process in KB (ru_maxrss is KB on Linux,
/// bytes on macOS). 0 where unavailable.
std::uint64_t peak_rss_kb() {
#if defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
  }
#elif defined(__unix__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<std::uint64_t>(usage.ru_maxrss);
  }
#endif
  return 0;
}

using cgc::bench::BenchCase;
using cgc::sweep::CaseOutput;
using cgc::sweep::CaseRecord;
using cgc::sweep::ShardSpec;
using cgc::sweep::SweepReport;
using cgc::util::env_long;

/// Case ids from the (repeatable, comma-separated) --only values.
std::vector<std::string> split_ids(const std::vector<std::string>& values) {
  std::vector<std::string> ids;
  for (const std::string& csv : values) {
    std::stringstream ss(csv);
    std::string id;
    while (std::getline(ss, id, ',')) {
      if (!id.empty()) {
        ids.push_back(id);
      }
    }
  }
  return ids;
}

/// Prints `message` and the usage text to stderr; returns the usage
/// exit code.
int usage_error(const cgc::util::Args& args, const std::string& message) {
  std::fprintf(stderr, "cgc_report: %s\n%s", message.c_str(),
               args.usage().c_str());
  return cgc::util::kExitUsage;
}

/// Respawn generation under a supervisor (0 for a first life / plain
/// run). Kill-injection keys include it so a deterministic spec does
/// not re-fire identically on every respawn and loop forever.
std::uint64_t sweep_generation() {
  return static_cast<std::uint64_t>(
      std::max(0L, env_long("CGC_SWEEP_GENERATION", 0)));
}

/// Fault site `sweep.worker_kill`: die the way the supervisor must
/// survive — SIGKILL, no cleanup, no flush. Keyed by (generation,
/// case index, phase): phase 0 fires before the case body, phase 1 in
/// the quarantine window after outputs are written but before the
/// report stamp lands.
void maybe_kill_worker(std::size_t case_index, int phase) {
  if (!cgc::fault::armed()) {
    return;
  }
  const std::uint64_t key = (sweep_generation() << 16) |
                            (static_cast<std::uint64_t>(case_index) << 1) |
                            static_cast<std::uint64_t>(phase);
  if (cgc::fault::inject("sweep.worker_kill", key)) {
    std::raise(SIGKILL);
  }
}

/// The files a case wrote, each once and sorted by name, hashed for
/// its report record.
std::vector<CaseOutput> hash_outputs(std::vector<std::string> files,
                                     const std::string& dir) {
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  std::vector<CaseOutput> outputs;
  for (std::string& file : files) {
    CaseOutput o;
    o.file = std::move(file);
    if (cgc::sweep::file_crc32(dir + "/" + o.file, &o.crc, &o.size)) {
      outputs.push_back(std::move(o));
    }
  }
  return outputs;
}

/// True when every output recorded for a previous run of this case
/// still exists with matching content.
bool outputs_match(const CaseRecord& record, const std::string& dir) {
  for (const CaseOutput& o : record.outputs) {
    std::uint32_t crc = 0;
    std::uint64_t size = 0;
    if (!cgc::sweep::file_crc32(dir + "/" + o.file, &crc, &size) ||
        crc != o.crc || size != o.size) {
      return false;
    }
  }
  return true;
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One case of the sweep. The scheduler (Sweep::run) fills the first
/// fields; the pool task running the case writes the rest until its
/// future is ready, after which only the scheduler touches them.
struct Slot {
  const BenchCase* c = nullptr;
  bool resumed = false;  ///< satisfied by --resume: runs no task
  std::future<void> task;
  bool ran = false;  ///< false: skipped, the sweep had stopped
  bool out_of_memory = false;
  CaseRecord record;
  cgc::bench::CaseLog log;
};

struct Sweep {
  std::vector<Slot> slots;  ///< registry order
  SweepReport report;
  std::string report_path;
  std::string out_dir;
  long retry_max = 3;
  long backoff_ms = 100;
  long timeout_sec = 0;
  std::optional<cgc::sweep::Lease> lease;  ///< held for the whole sweep
  std::uint64_t heartbeat_progress = 0;
  Clock::time_point sweep_start;
  /// Set when a case runs out of memory: cases not yet started skip.
  std::atomic<bool> stop{false};

  /// A case's current attempt, for the watchdog; guarded by `mutex`.
  struct Progress {
    int attempt = 0;  ///< 0 = not started
    Clock::time_point started;
    Clock::time_point attempt_start;
  };
  cgc::util::Mutex mutex;
  std::vector<Progress> progress CGC_GUARDED_BY(mutex);

  Sweep() = default;
  Sweep(const Sweep&) = delete;
  Sweep& operator=(const Sweep&) = delete;

  /// A sweep left by an exception skips the cases not yet started and
  /// waits for the running ones: their tasks use this object.
  ~Sweep() {
    stop = true;
    for (Slot& s : slots) {
      if (s.task.valid()) {
        s.task.wait();
      }
    }
  }

  void flush(bool complete, double total_seconds) {
    const cgc::bench::IoHealth health = cgc::bench::io_health();
    report.chunks_quarantined = health.chunks_quarantined;
    report.rows_lost = health.rows_lost;
    report.values_defaulted = health.values_defaulted;
    report.parse_lines_bad = health.parse_lines_bad;
    report.complete = complete;
    report.total_seconds = total_seconds;
    cgc::sweep::write_report(report, report_path);
  }

  /// Advances the lease heartbeat. False = lease lost; the worker must
  /// stop writing and exit (a new worker may own the dir already).
  bool beat() {
    if (!lease.has_value()) {
      return true;
    }
    return lease->refresh(++heartbeat_progress);
  }

  [[noreturn]] void die_checkpointed(const char* why) {
    // Case tasks may be stuck and cannot be joined; running
    // destructors under them would race. The checkpoint is on disk —
    // leave via _Exit and let --resume/the supervisor pick up from
    // here. _Exit skips atexit, so flush observability output first.
    std::fprintf(stderr, "cgc_report: %s\n", why);
    cgc::obs::export_now();
    std::_Exit(cgc::util::kExitFailure);
  }

  /// One attempt loop of case `index`, as a task on the exec pool:
  /// retries transient errors with capped exponential backoff and fills
  /// the slot's record and log. Returns true when the case ran out of
  /// memory, which ends the sweep instead of being retried.
  bool run_case(std::size_t index) {
    Slot& slot = slots[index];
    const BenchCase* c = slot.c;
    CaseRecord& r = slot.record;
    r.id = c->id;
    r.kind = cgc::bench::kind_name(c->kind);
    r.title = c->title;
    const cgc::bench::CaseScope scope(&slot.log);
    const auto start = Clock::now();
    const double cpu_before = process_cpu_seconds();
    bool out_of_memory = false;
    long backoff = backoff_ms;
    for (int attempt = 1; attempt <= retry_max; ++attempt) {
      r.attempts = attempt;
      {
        cgc::util::MutexLock lock(mutex);
        progress[index].attempt = attempt;
        progress[index].attempt_start = Clock::now();
        if (attempt == 1) {
          progress[index].started = progress[index].attempt_start;
        }
      }
      try {
        if (cgc::fault::armed()) {
          // Keyed by (case, attempt) so every=/once= triggers can
          // target a specific attempt deterministically.
          cgc::fault::maybe_throw(
              "report.case",
              (static_cast<std::uint64_t>(index) << 8) |
                  static_cast<std::uint64_t>(attempt),
              cgc::fault::ErrorKind::kTransient);
          if (cgc::fault::inject("report.case_stall", index)) {
            // Sleep past any watchdog budget to exercise it.
            std::this_thread::sleep_for(std::chrono::seconds(
                timeout_sec > 0 ? timeout_sec * 2 : 3600));
          }
        }
        cgc::obs::Span span("case:" + c->id);
        cgc::bench::print_header(c->id, c->title);
        c->fn();
        r.ok = true;
        break;
      } catch (const std::bad_alloc&) {
        // The machine, not the case: a retry would fail the same way.
        out_of_memory = true;
        r.error = "out of memory (std::bad_alloc)";
        std::fprintf(stderr, "%s failed: %s\n", c->id.c_str(),
                     r.error.c_str());
        break;
      } catch (const cgc::util::TransientError& e) {
        r.error = e.what();
        if (attempt == retry_max) {
          std::fprintf(stderr, "%s failed (transient, %d attempts): %s\n",
                       c->id.c_str(), attempt, e.what());
          break;
        }
        std::fprintf(stderr, "%s attempt %d: %s; retrying in %ld ms\n",
                     c->id.c_str(), attempt, e.what(), backoff);
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        backoff = std::min<long>(backoff * 2, 2000);
      } catch (const std::exception& e) {
        // Data/fatal errors do not retry: the input will not improve.
        r.error = e.what();
        std::fprintf(stderr, "%s failed: %s\n", c->id.c_str(), e.what());
        break;
      } catch (...) {
        r.error = "unknown exception";
        std::fprintf(stderr, "%s failed: %s\n", c->id.c_str(),
                     r.error.c_str());
        break;
      }
    }
    r.seconds = seconds_since(start);
    r.perf.wall_s = r.seconds;
    r.perf.cpu_s = process_cpu_seconds() - cpu_before;
    r.perf.max_rss_kb = peak_rss_kb();
    if (r.ok) {
      r.error.clear();
      r.outputs = hash_outputs(std::move(slot.log.files), out_dir);
    }
    return out_of_memory;
  }

  /// Queues case `index` as a task on the exec pool. Cases share the
  /// pool's workers with the kernels they fan out, so at most CGC_THREADS
  /// cases run at once and they start in registry order (the queue is
  /// FIFO); no thread beyond the pool's allocates (each allocating
  /// thread costs a malloc arena, and the arenas' free space counts in
  /// peak RSS).
  void submit(std::size_t index) {
    Slot& slot = slots[index];
    slot.task = cgc::util::ThreadPool::shared().submit([this, &slot, index] {
      if (stop) {
        return;
      }
      maybe_kill_worker(index, 0);
      slot.ran = true;
      try {
        slot.out_of_memory = run_case(index);
      } catch (const std::bad_alloc&) {  // run_case's own bookkeeping
        slot.out_of_memory = true;
      }
      if (slot.out_of_memory) {
        stop = true;
      }
    });
  }

  /// Prints case `index`'s stdout block and checkpoints its record.
  void stamp(std::size_t index) {
    Slot& slot = slots[index];
    std::printf("\n[%zu/%zu] %s\n", index + 1, slots.size(),
                slot.c->id.c_str());
    if (slot.resumed) {
      std::printf("resumed: outputs verified, skipping\n");
      report.cases.push_back(std::move(slot.record));
      return;
    }
    std::fputs(slot.log.stdout_block.c_str(), stdout);
    // The quarantine window: outputs are on disk, the report stamp is
    // not. A kill here is exactly what --resume's stale-checkpoint
    // quarantine exists for.
    maybe_kill_worker(index, 1);
    report.cases.push_back(std::move(slot.record));
    flush(false, seconds_since(sweep_start));
  }

  /// Checkpoints a watchdog failure for a started, unfinished case that
  /// has outrun CGC_CASE_TIMEOUT, and exits: its task cannot be stopped.
  void run_watchdog(std::size_t first) {
    if (timeout_sec <= 0) {
      return;
    }
    std::optional<std::size_t> stuck;
    Progress p;
    {
      cgc::util::MutexLock lock(mutex);
      for (std::size_t i = first; i < slots.size() && !stuck; ++i) {
        if (progress[i].attempt > 0 &&
            Clock::now() - progress[i].attempt_start >=
                std::chrono::seconds(timeout_sec) &&
            slots[i].task.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
          stuck = i;
          p = progress[i];
        }
      }
    }
    if (!stuck.has_value()) {
      return;
    }
    CaseRecord r;
    r.id = slots[*stuck].c->id;
    r.kind = cgc::bench::kind_name(slots[*stuck].c->kind);
    r.title = slots[*stuck].c->title;
    r.attempts = p.attempt;
    r.seconds = seconds_since(p.started);
    r.error = "watchdog: exceeded CGC_CASE_TIMEOUT=" +
              std::to_string(timeout_sec) + "s";
    std::fprintf(stderr, "%s: %s\n", r.id.c_str(), r.error.c_str());
    report.cases.push_back(std::move(r));
    flush(false, seconds_since(sweep_start));
    die_checkpointed("case watchdog tripped");
  }

  /// Runs the sweep: every case is queued up front, and the records are
  /// stamped in registry order as the finished prefix grows, so
  /// report.json is always a checkpoint --resume understands. While it
  /// waits for the next case in order, the scheduler beats the lease
  /// heartbeat and runs the watchdog every half second. Out of memory in
  /// a case skips the cases not yet started, stamps the ones that ran,
  /// and throws FatalError naming the case.
  void run() {
    const std::size_t n = slots.size();
    {
      cgc::util::MutexLock lock(mutex);
      progress.assign(n, Progress{});
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!slots[i].resumed) {
        submit(i);
      }
    }
    std::optional<std::size_t> out_of_memory;
    for (std::size_t i = 0; i < n; ++i) {
      Slot& slot = slots[i];
      if (!slot.resumed) {
        while (slot.task.wait_for(std::chrono::milliseconds(500)) ==
               std::future_status::timeout) {
          if (!beat()) {
            flush(false, seconds_since(sweep_start));
            die_checkpointed("worker lease lost mid-case; stopping");
          }
          run_watchdog(i);
        }
        slot.task.get();
        if (!slot.ran) {
          break;
        }
        if (slot.out_of_memory && !out_of_memory.has_value()) {
          out_of_memory = i;
        }
      }
      stamp(i);
      if (!beat()) {
        die_checkpointed("worker lease lost; stopping before next case");
      }
    }
    if (out_of_memory.has_value()) {
      throw cgc::util::FatalError(slots[*out_of_memory].c->id +
                                  ": out of memory (std::bad_alloc)");
    }
  }
};

/// The cases to merge in sweep order, as merge metadata.
std::vector<cgc::sweep::CaseMeta> case_universe(
    const std::vector<const BenchCase*>& cases) {
  std::vector<cgc::sweep::CaseMeta> expected;
  expected.reserve(cases.size());
  for (const BenchCase* c : cases) {
    expected.push_back({c->id, cgc::bench::kind_name(c->kind), c->title});
  }
  return expected;
}

int run_merge(const std::vector<std::string>& dirs, bool partial,
              const std::vector<const BenchCase*>& cases) {
  try {
    cgc::sweep::MergeOptions options;
    options.expected = case_universe(cases);
    // A shard resumed over a narrower --only set keeps its other cases'
    // records; a merge skips those instead of calling them foreign.
    for (const BenchCase* c : cgc::bench::sorted_cases()) {
      options.known.push_back(c->id);
    }
    options.out_dir = cgc::bench::out_dir();
    options.allow_partial = partial;
    const cgc::sweep::MergeResult result =
        cgc::sweep::merge_shards(dirs, options);
    std::printf("merged %zu shard dir(s) into %s\n", dirs.size(),
                options.out_dir.c_str());
    std::printf("  cases: %zu ok, %zu failed, %zu missing; %zu files\n",
                result.cases_ok, result.cases_failed, result.cases_missing,
                result.files_copied);
    for (const std::string& note : result.notes) {
      std::printf("  note: %s\n", note.c_str());
    }
    const bool clean = result.cases_failed == 0 &&
                       result.cases_missing == 0 &&
                       !result.report.degraded();
    return clean ? cgc::util::kExitOk : cgc::util::kExitFailure;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "merge error: %s\n", e.what());
    return cgc::error::merge_exit_code(e);
  }
}

/// Path of this executable, for respawning shard workers.
std::string self_exe(const char* argv0) {
#if defined(__linux__)
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
#endif
  return argv0;
}

int run_spawn(int num_shards, const std::vector<std::string>& only,
              const char* argv0,
              const std::vector<const BenchCase*>& cases) {
  try {
    cgc::sweep::SupervisorConfig config;
    config.exe = self_exe(argv0);
    config.num_shards = num_shards;
    config.out_root = cgc::bench::out_dir();
    config.retry_budget =
        static_cast<int>(std::max(0L, env_long("CGC_SWEEP_RETRY", 5)));
    config.heartbeat_timeout_sec = static_cast<double>(
        std::max(0L, env_long("CGC_SWEEP_HEARTBEAT", 120)));
    config.make_args = [num_shards, only](int index) {
      std::vector<std::string> args = {
          "--shard", std::to_string(index) + "/" +
                         std::to_string(num_shards),
          "--resume"};
      for (const std::string& id : only) {
        args.push_back("--only");
        args.push_back(id);
      }
      return args;
    };
    std::printf("cgc_report: supervising %d shard worker(s) under %s\n",
                num_shards, config.out_root.c_str());
    const cgc::sweep::SupervisorResult sup =
        cgc::sweep::run_supervisor(config);
    // Side file for CI/operators: respawn counts prove the kill matrix
    // actually killed something. Not part of the merged artifact.
    {
      std::ostringstream side;
      side << "{\"shards\": " << sup.shards.size()
           << ", \"respawns\": " << sup.respawns << ", \"workers\": [";
      for (std::size_t i = 0; i < sup.shards.size(); ++i) {
        const cgc::sweep::ShardStatus& s = sup.shards[i];
        side << (i == 0 ? "" : ", ") << "{\"index\": " << s.index
             << ", \"spawns\": " << s.spawns << ", \"kills\": " << s.kills
             << ", \"last_exit\": " << s.last_exit << ", \"complete\": "
             << (s.outcome == cgc::sweep::ShardOutcome::kComplete ? "true"
                                                                  : "false")
             << "}";
      }
      side << "]}\n";
      cgc::util::write_file_atomic(config.out_root + "/supervisor.json",
                                   side.str());
    }
    std::vector<std::string> dirs;
    for (const cgc::sweep::ShardStatus& s : sup.shards) {
      dirs.push_back(s.dir);
      std::printf("  shard %d: %s after %d spawn(s)%s\n", s.index,
                  s.outcome == cgc::sweep::ShardOutcome::kComplete
                      ? "complete"
                      : "EXHAUSTED",
                  s.spawns,
                  s.kills > 0 ? " (incl. hang kills)" : "");
    }
    if (sup.respawns > 0) {
      std::printf("  %d respawn(s) total\n", sup.respawns);
    }
    // Exhausted shards degrade at merge (allow_partial) instead of
    // failing the whole sweep — their cases become failed records.
    const int merge_exit = run_merge(dirs, /*partial=*/true, cases);
    if (merge_exit != cgc::util::kExitOk) {
      return merge_exit;
    }
    return sup.all_complete() ? cgc::util::kExitOk
                              : cgc::util::kExitFailure;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spawn error: %s\n", e.what());
    return cgc::error::merge_exit_code(e);
  }
}

int run(int argc, char** argv) {
  std::vector<const BenchCase*> cases = cgc::bench::sorted_cases();

  cgc::util::Args args("cgc_report",
                       "run the paper's figure/table cases: all of them, a "
                       "subset, or sharded across processes");
  args.set_positional_help("[DIR...]", "shard dirs to fuse (with --merge)");
  args.add_bool("list", "print the case ids and exit");
  args.add_list("only", "run only these case ids (comma-separated)");
  args.add_bool("all", "run every case (overrides --only)");
  args.add_bool("resume", "skip cases already satisfied on disk");
  args.add_string("shard", "", "run only the cases shard i of N owns (i/N)");
  args.add_bool("merge", "fuse the shard DIRs into $CGC_BENCH_OUT");
  args.add_bool("partial",
                "with --merge: degrade unfinished shards to failed cases");
  args.add_int("spawn", 0, "supervise an N-shard sweep end to end");
  args.add_usage_note(
      "Environment: CGC_BENCH_FAST, CGC_BENCH_CACHE, CGC_BENCH_OUT and\n"
      "CGC_THREADS (see bench/common.hpp; CGC_THREADS also bounds how many\n"
      "cases run at once, and 1 runs them one by one), plus:\n"
      "  CGC_RETRY_MAX=N         attempts per case on transient errors (3)\n"
      "  CGC_RETRY_BACKOFF_MS=N  first backoff, doubling, capped at 2000 "
      "(100)\n"
      "  CGC_CASE_TIMEOUT=N      per-case wall-clock budget in seconds\n"
      "                          (0 = no watchdog, the default)\n"
      "  CGC_SWEEP_RETRY=N       respawns per shard under --spawn (5)\n"
      "  CGC_SWEEP_HEARTBEAT=N   seconds of heartbeat silence before a\n"
      "                          worker is declared hung and killed (120)\n"
      "  CGC_CACHE_WAIT=N        seconds to wait on another shard's cache\n"
      "                          builder lock (600)\n"
      "  CGC_FAULT_SPEC=...      fault injection (src/fault/fault.hpp);\n"
      "                          sweep sites: sweep.worker_kill,\n"
      "                          sweep.lease_steal, sweep.torn_merge_input");
  args.add_usage_note(
      "Exit codes: 0 all cases ok and no data loss; 1 a case failed, timed\n"
      "out, a degraded load lost data (see report.json), or a merge input\n"
      "is merely unfinished (resumable); 2 usage — or, for --merge/--spawn,\n"
      "a conflict between shards (overlap, digest disagreement), or a\n"
      "--resume report of another scale or shard; 3 fatal environment\n"
      "error.");
  switch (args.parse(argc, argv)) {
    case cgc::util::ParseStatus::kHelp:
      return cgc::util::kExitOk;
    case cgc::util::ParseStatus::kError:
      return cgc::util::kExitUsage;
    case cgc::util::ParseStatus::kOk:
      break;
  }
  if (args.get_bool("list")) {
    for (const BenchCase* c : cases) {
      std::printf("%-20s %-10s %s\n", c->id.c_str(),
                  cgc::bench::kind_name(c->kind), c->title.c_str());
    }
    return cgc::util::kExitOk;
  }

  // Every value is checked before any work starts: a bad one is a usage
  // error naming it, never a silently different sweep.
  const bool resume = args.get_bool("resume");
  const bool merge_mode = args.get_bool("merge");
  const bool partial = args.get_bool("partial");
  const bool spawn_mode = args.provided("spawn");
  const std::int64_t spawn_shards = args.get_int("spawn");
  if (spawn_mode &&
      (spawn_shards < 1 || spawn_shards > std::numeric_limits<int>::max())) {
    return usage_error(args, "--spawn expects a positive shard count, got " +
                                 std::to_string(spawn_shards));
  }
  std::optional<ShardSpec> shard;
  if (args.provided("shard")) {
    try {
      shard = cgc::sweep::parse_shard_spec(args.get_string("shard"));
    } catch (const cgc::util::FatalError& e) {
      return usage_error(args, e.what());
    }
  }
  if ((merge_mode && (shard.has_value() || spawn_mode)) ||
      (shard.has_value() && spawn_mode)) {
    return usage_error(args,
                       "--merge, --shard, and --spawn are mutually exclusive");
  }
  if (partial && !merge_mode) {
    return usage_error(args, "--partial only applies to --merge");
  }
  const std::vector<std::string>& merge_dirs = args.positionals();
  if (merge_mode && merge_dirs.empty()) {
    return usage_error(args, "--merge needs at least one shard dir");
  }
  if (!merge_mode && !merge_dirs.empty()) {
    return usage_error(args, "unexpected argument \"" + merge_dirs.front() +
                                 "\" (shard dirs only go with --merge)");
  }
  const std::vector<std::string> only =
      args.get_bool("all") ? std::vector<std::string>{}
                           : split_ids(args.get_list("only"));
  for (const std::string& id : only) {
    if (std::none_of(cases.begin(), cases.end(),
                     [&id](const BenchCase* c) { return c->id == id; })) {
      return usage_error(args, "unknown case id \"" + id + "\" (see --list)");
    }
  }
  if (!only.empty()) {
    std::erase_if(cases, [&only](const BenchCase* c) {
      return std::find(only.begin(), only.end(), c->id) == only.end();
    });
  }
  if (merge_mode) {
    return run_merge(merge_dirs, partial, cases);
  }
  if (spawn_mode) {
    return run_spawn(static_cast<int>(spawn_shards), only, argv[0], cases);
  }

  // The sweep universe this process owns. A shard may legitimately own
  // zero cases (small sweeps, large N) — it still writes a complete
  // empty report so the merge knows the shard ran.
  if (shard.has_value() && shard->sharded()) {
    std::erase_if(cases, [&shard](const BenchCase* c) {
      return !cgc::sweep::owns(*shard, c->id);
    });
  }

  Sweep sweep;
  sweep.out_dir = cgc::bench::out_dir();
  sweep.report_path = sweep.out_dir + "/report.json";
  sweep.retry_max = std::max(1L, env_long("CGC_RETRY_MAX", 3));
  sweep.backoff_ms = std::max(1L, env_long("CGC_RETRY_BACKOFF_MS", 100));
  sweep.timeout_sec = std::max(0L, env_long("CGC_CASE_TIMEOUT", 0));
  sweep.report.fast_mode = cgc::bench::fast_mode();
  sweep.report.threads = cgc::exec::num_workers();
  sweep.report.fault_spec = cgc::fault::active_spec();
  if (shard.has_value()) {
    sweep.report.shard_index = shard->index;
    sweep.report.shard_total = shard->total;
  }

  // The worker lease: held for the whole sweep, heartbeat-refreshed
  // between and during cases. A second worker pointed at the same dir
  // fails fast instead of corrupting the checkpoint.
  sweep.lease =
      cgc::sweep::Lease::try_acquire(sweep.out_dir + "/worker.lease");
  if (!sweep.lease.has_value()) {
    throw cgc::util::FatalError(
        "another sweep holds " + sweep.out_dir +
        "/worker.lease — two workers must not share a checkpoint dir");
  }

  // --resume: any case in the previous report that succeeded and whose
  // recorded outputs still hash-match carries over; everything else
  // re-runs — after quarantining whatever a killed worker left behind
  // (stale lease, staging litter, .dat files the report never stamped).
  // The ledger (sweep/ledger.hpp) moves a torn report aside and refuses
  // one stamped for another scale or shard. Satisfied records of cases
  // outside this run's set stay in the report, so a later resume over a
  // wider set still owns their outputs.
  std::map<std::string, CaseRecord> previous;
  if (resume) {
    SweepReport prior;
    cgc::sweep::LedgerInput found;
    found.path = sweep.report_path;
    found.status = cgc::sweep::read_report_checked(found.path, &prior);
    found.stamp = cgc::sweep::stamp_of(prior);
    if (found.status == cgc::util::ReadStatus::kMissing) {
      std::printf("resume: no %s; running everything\n",
                  sweep.report_path.c_str());
    }
    if (!cgc::sweep::resume(found, cgc::sweep::stamp_of(sweep.report))) {
      prior.cases.clear();
    }
    std::vector<std::string> recorded;
    for (const CaseRecord& r : prior.cases) {
      for (const CaseOutput& o : r.outputs) {
        recorded.push_back(o.file);
      }
    }
    const cgc::sweep::QuarantineReport quarantined =
        cgc::sweep::quarantine_stale(sweep.out_dir, recorded);
    if (!quarantined.moved.empty()) {
      std::printf(
          "resume: quarantined %zu stale file(s) from a killed worker "
          "(%s/quarantine)\n",
          quarantined.moved.size(), sweep.out_dir.c_str());
      for (const std::string& f : quarantined.moved) {
        std::printf("  quarantined: %s\n", f.c_str());
      }
    }
    for (CaseRecord& r : prior.cases) {
      if (!r.ok || !outputs_match(r, sweep.out_dir)) {
        continue;
      }
      if (std::any_of(cases.begin(), cases.end(),
                      [&r](const BenchCase* c) { return c->id == r.id; })) {
        previous.emplace(r.id, std::move(r));
      } else {
        sweep.report.cases.push_back(std::move(r));
      }
    }
    if (!prior.cases.empty()) {
      std::printf("resume: %zu of %zu cases already satisfied\n",
                  previous.size(), cases.size());
    }
    if (previous.size() == cases.size()) {
      std::printf("resume: all %zu cases satisfied; nothing to run\n",
                  cases.size());
    }
  }
  const std::size_t carried = sweep.report.cases.size();

  std::printf("cgc_report: %zu cases, %zu worker threads, %s scale%s%s\n",
              cases.size(), cgc::exec::num_workers(),
              cgc::bench::fast_mode() ? "fast" : "full",
              shard.has_value() ? (" [shard " + shard->str() + "]").c_str()
                                : "",
              sweep.report.fault_spec.empty()
                  ? ""
                  : (" [faults: " + sweep.report.fault_spec + "]").c_str());

  sweep.slots.resize(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Slot& slot = sweep.slots[i];
    slot.c = cases[i];
    const auto it = previous.find(slot.c->id);
    if (it != previous.end()) {
      slot.resumed = true;
      slot.record = std::move(it->second);
      slot.record.resumed = true;
    }
  }
  sweep.sweep_start = Clock::now();
  sweep.run();
  const double total_seconds = seconds_since(sweep.sweep_start);

  std::printf("\n================ sweep summary ================\n");
  for (std::size_t i = carried; i < sweep.report.cases.size(); ++i) {
    const CaseRecord& r = sweep.report.cases[i];
    std::printf("  %-20s %8.2f s  %s%s\n", r.id.c_str(), r.seconds,
                r.ok ? "ok" : "FAILED", r.resumed ? " (resumed)" : "");
  }
  std::printf("  %-20s %8.2f s\n", "total", total_seconds);
  const cgc::bench::IoHealth health = cgc::bench::io_health();
  if (health.degraded()) {
    std::printf(
        "  degraded: %llu chunks quarantined, %llu rows lost, "
        "%llu values defaulted, %llu bad parse lines\n",
        static_cast<unsigned long long>(health.chunks_quarantined),
        static_cast<unsigned long long>(health.rows_lost),
        static_cast<unsigned long long>(health.values_defaulted),
        static_cast<unsigned long long>(health.parse_lines_bad));
  }

  sweep.flush(true, total_seconds);
  std::printf("\nreport written to %s\n", sweep.report_path.c_str());

  const bool all_ok =
      std::all_of(sweep.report.cases.begin(), sweep.report.cases.end(),
                  [](const CaseRecord& r) { return r.ok; });
  return all_ok && !health.degraded() ? cgc::util::kExitOk
                                      : cgc::util::kExitFailure;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    try {
      return run(argc, argv);
    } catch (const std::bad_alloc&) {
      // Out of memory outside a case (a case's names the case): a fatal
      // environment error, which a supervisor does not respawn.
      throw cgc::util::FatalError("out of memory (std::bad_alloc)");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // A DataError escaping the run is the shard ledger refusing a
    // --resume checkpoint of another experiment or shard: exit 2.
    return cgc::error::merge_exit_code(e);
  }
}
