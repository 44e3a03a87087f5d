#include "sweep/supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sweep/lease.hpp"
#include "sweep/report_io.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

extern char** environ;

namespace cgc::sweep {

namespace fs = std::filesystem;

std::string shard_dir(const std::string& out_root, int index, int total) {
  return out_root + "/shards/s" + std::to_string(index) + "of" +
         std::to_string(total);
}

namespace {

/// Everything execve() needs, built with ordinary (allocating) code
/// strictly before fork(). The child between fork() and execve() only
/// touches these frozen arrays plus dup2/_exit — all async-signal-safe
/// — because the parent may hold malloc/logging locks at fork time.
struct SpawnPlan {
  std::vector<std::string> argv_store;
  std::vector<std::string> env_store;
  std::vector<char*> argv;
  std::vector<char*> envp;
  int log_fd = -1;

  void finalize() {
    argv.clear();
    envp.clear();
    for (std::string& s : argv_store) {
      argv.push_back(s.data());
    }
    argv.push_back(nullptr);
    for (std::string& s : env_store) {
      envp.push_back(s.data());
    }
    envp.push_back(nullptr);
  }
};

bool env_name_is(const char* entry, const std::string& name) {
  const std::size_t n = name.size();
  return std::strncmp(entry, name.c_str(), n) == 0 && entry[n] == '=';
}

SpawnPlan make_plan(const SupervisorConfig& config, int index,
                    int generation, const std::string& dir) {
  SpawnPlan plan;
  plan.argv_store.push_back(config.exe);
  std::vector<std::string> args = config.make_args(index);
  for (std::string& arg : args) {
    plan.argv_store.push_back(std::move(arg));
  }
  std::vector<std::string> overrides = config.extra_env;
  overrides.push_back("CGC_BENCH_OUT=" + dir);
  overrides.push_back("CGC_SWEEP_GENERATION=" + std::to_string(generation));
  for (char** e = environ; *e != nullptr; ++e) {
    bool shadowed = false;
    for (const std::string& o : overrides) {
      const std::string name = o.substr(0, o.find('='));
      if (env_name_is(*e, name)) {
        shadowed = true;
        break;
      }
    }
    if (!shadowed) {
      plan.env_store.push_back(*e);
    }
  }
  for (std::string& o : overrides) {
    plan.env_store.push_back(std::move(o));
  }
  plan.log_fd = ::open((dir + "/worker.log").c_str(),
                       O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  plan.finalize();
  return plan;
}

pid_t spawn_worker(const SpawnPlan& plan) {
  const pid_t pid = ::fork();
  if (pid != 0) {
    return pid;  // parent (or fork failure, pid < 0)
  }
  // Child: async-signal-safe territory only.
  if (plan.log_fd >= 0) {
    ::dup2(plan.log_fd, STDOUT_FILENO);
    ::dup2(plan.log_fd, STDERR_FILENO);
  }
  ::execve(plan.argv[0], plan.argv.data(), plan.envp.data());
  // cgc-lint: allow(exit-taxonomy) 127 is the POSIX shell convention
  // for exec failure; the supervisor's waitpid leg keys on it to tell
  // "binary missing" from a worker's own taxonomy exits.
  ::_exit(127);
}

/// True when the shard's on-disk report says the sweep finished (even
/// with failed cases — that is a *result*, not a crash).
bool shard_finished(const std::string& dir) {
  SweepReport report;
  return read_report_checked(dir + "/report.json", &report) ==
             util::ReadStatus::kOk &&
         report.complete;
}

struct WorkerState {
  enum class Phase { kPending, kRunning, kDone, kExhausted };
  Phase phase = Phase::kPending;
  pid_t pid = -1;
  std::string dir;
  int spawns = 0;
  int kills = 0;
  int last_exit = 0;
  int backoff_ms = 0;
  std::uint64_t next_spawn_ns = 0;   ///< earliest respawn (monotonic)
  std::uint64_t spawn_ns = 0;        ///< last launch time
  std::uint64_t last_progress = 0;   ///< lease progress last observed
  std::uint64_t progress_ns = 0;     ///< when it last advanced
};

}  // namespace

SupervisorResult run_supervisor(const SupervisorConfig& config) {
  CGC_CHECK_MSG(config.num_shards >= 1, "--spawn needs at least 1 shard");
  CGC_CHECK_MSG(static_cast<bool>(config.make_args),
                "SupervisorConfig::make_args is required");
  const int retry_budget = std::max(0, config.retry_budget);
  std::vector<WorkerState> workers(
      static_cast<std::size_t>(config.num_shards));
  for (int i = 0; i < config.num_shards; ++i) {
    workers[i].dir = shard_dir(config.out_root, i, config.num_shards);
    fs::create_directories(workers[i].dir);
    workers[i].backoff_ms = config.backoff_ms;
  }
  obs::Gauge* live_gauge = nullptr;
  obs::Counter* respawn_counter = nullptr;
  if (obs::metrics_enabled()) {
    live_gauge = &obs::gauge("sweep.live_workers");
    respawn_counter = &obs::counter("sweep.respawns");
  }
  SupervisorResult result;
  int live = 0;
  const std::uint64_t heartbeat_ns = static_cast<std::uint64_t>(
      config.heartbeat_timeout_sec * 1e9);

  auto launch = [&](WorkerState& w, int index) {
    const SpawnPlan plan =
        make_plan(config, index, w.spawns, w.dir);
    const pid_t pid = spawn_worker(plan);
    if (plan.log_fd >= 0) {
      ::close(plan.log_fd);
    }
    CGC_CHECK_MSG(pid > 0, "fork() failed spawning shard " +
                               std::to_string(index));
    w.pid = pid;
    w.phase = WorkerState::Phase::kRunning;
    ++w.spawns;
    w.spawn_ns = monotonic_now_ns();
    w.progress_ns = w.spawn_ns;
    w.last_progress = 0;
    ++live;
    if (live_gauge != nullptr) {
      live_gauge->set(live);
    }
    CGC_LOG(kInfo) << "sweep: shard " << index << " spawn " << w.spawns
                   << " as pid " << pid;
  };

  auto retire = [&](WorkerState& w, int index, int exit_code) {
    --live;
    if (live_gauge != nullptr) {
      live_gauge->set(live);
    }
    w.pid = -1;
    w.last_exit = exit_code;
    const bool finished = shard_finished(w.dir);
    // Conflict (2) and fatal/usage (3) exits are operator or data
    // errors a retry cannot fix; crashes and transient failures earn a
    // respawn while budget remains.
    const bool retryable = exit_code != util::kExitConflict &&
                           exit_code != util::kExitFatal && exit_code != 127;
    if (finished && exit_code >= 0 && exit_code <= 1) {
      w.phase = WorkerState::Phase::kDone;
      CGC_LOG(kInfo) << "sweep: shard " << index << " complete (exit "
                     << exit_code << ")";
      return;
    }
    const int used = w.spawns - 1;  // respawns consumed so far
    if (!retryable || used >= retry_budget) {
      w.phase = WorkerState::Phase::kExhausted;
      CGC_LOG(kWarn) << "sweep: shard " << index << " exhausted after "
                     << w.spawns << " spawn(s), last exit " << exit_code;
      return;
    }
    w.phase = WorkerState::Phase::kPending;
    w.next_spawn_ns = monotonic_now_ns() +
                      static_cast<std::uint64_t>(w.backoff_ms) * 1000000ULL;
    w.backoff_ms = std::min(w.backoff_ms * 2, config.backoff_cap_ms);
    ++result.respawns;
    if (respawn_counter != nullptr) {
      respawn_counter->add(1);
    }
    CGC_LOG(kWarn) << "sweep: shard " << index << " died (exit "
                   << exit_code << "); respawn " << w.spawns << "/"
                   << retry_budget + 1 << " after backoff";
  };

  for (;;) {
    bool any_active = false;
    const std::uint64_t now = monotonic_now_ns();
    for (int i = 0; i < config.num_shards; ++i) {
      WorkerState& w = workers[i];
      switch (w.phase) {
        case WorkerState::Phase::kPending:
          any_active = true;
          if (now >= w.next_spawn_ns) {
            // A shard whose previous life already finished the sweep
            // (killed after the final flush) needs no new process.
            if (w.spawns > 0 && shard_finished(w.dir)) {
              w.phase = WorkerState::Phase::kDone;
              break;
            }
            launch(w, i);
          }
          break;
        case WorkerState::Phase::kRunning: {
          any_active = true;
          int status = 0;
          const pid_t got = ::waitpid(w.pid, &status, WNOHANG);
          if (got == w.pid) {
            const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                             : WIFSIGNALED(status)
                                 ? -WTERMSIG(status)
                                 : -1;
            retire(w, i, code);
            break;
          }
          // Heartbeat: the worker refreshes its lease with a progress
          // counter; silence past the timeout means it is wedged.
          const LeaseInfo lease = read_lease(w.dir + "/worker.lease");
          if (lease.exists && lease.progress != w.last_progress) {
            w.last_progress = lease.progress;
            w.progress_ns = now;
          }
          if (heartbeat_ns > 0 && now - w.progress_ns > heartbeat_ns) {
            CGC_LOG(kWarn) << "sweep: shard " << i << " (pid " << w.pid
                           << ") heartbeat silent; killing";
            ++w.kills;
            ::kill(w.pid, SIGKILL);
            int st = 0;
            ::waitpid(w.pid, &st, 0);
            retire(w, i, -SIGKILL);
          }
          break;
        }
        case WorkerState::Phase::kDone:
        case WorkerState::Phase::kExhausted:
          break;
      }
    }
    if (!any_active) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(config.poll_ms));
  }

  for (int i = 0; i < config.num_shards; ++i) {
    const WorkerState& w = workers[i];
    ShardStatus status;
    status.index = i;
    status.dir = w.dir;
    status.outcome = w.phase == WorkerState::Phase::kDone
                         ? ShardOutcome::kComplete
                         : ShardOutcome::kExhausted;
    status.spawns = w.spawns;
    status.kills = w.kills;
    status.last_exit = w.last_exit;
    result.shards.push_back(std::move(status));
  }
  return result;
}

}  // namespace cgc::sweep
