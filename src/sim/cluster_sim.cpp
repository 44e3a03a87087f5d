// Paper-scale simulator core. The scheduling semantics are the seed
// model unchanged (every rule is pinned by tests/sim_test.cpp); the
// machinery around them is rebuilt for a month over 12.5k hosts:
// calendar event queue, SoA state banks, counter-based RNG, hashed
// placement probing, and cgc::exec-sharded sampling. DESIGN.md §13
// documents the layout and the determinism argument.
#include "sim/cluster_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/sim_rng.hpp"
#include "sim/state_banks.hpp"
#include "trace/lifecycle.hpp"
#include "util/check.hpp"

namespace cgc::sim {

namespace {

using trace::PriorityBand;
using trace::TaskEventType;
using trace::TimeSec;

/// Clusters up to this size keep the seed's exhaustive scan; larger
/// ones switch to hashed probing.
constexpr std::size_t kAutoFullScanMax = 512;
/// Probes per placement on large clusters. With ~33
/// running tasks per machine and near-interchangeable task sizes, 96
/// power-of-d probes make a no-fit verdict overwhelmingly reliable.
constexpr std::size_t kAutoProbes = 96;

/// The task bank's time range (see BankTime).
constexpr TimeSec kBankTimeMin = std::numeric_limits<BankTime>::min();
constexpr TimeSec kBankTimeMax = std::numeric_limits<BankTime>::max();

/// Stable fault key for (machine, sample): machine_index * 2^20 +
/// sample_index (a month at 5-minute sampling has 8928 samples, far
/// below 2^20). Documented in README's fault-site table.
std::uint64_t outage_key(std::size_t machine, std::uint64_t sample_idx) {
  return (static_cast<std::uint64_t>(machine) << 20) + sample_idx;
}

/// What the simulator needs from the workload's submit times before the
/// calendar queue exists.
struct SubmitScan {
  /// Earliest time any event can carry: generated workloads submit from
  /// warmup_days *before* t=0, so the calendar origin must cover them.
  TimeSec origin = 0;
  /// Submit times are non-decreasing in slot order.
  bool sorted = true;
};

}  // namespace

struct ClusterSim::Impl {
  Impl(const std::vector<trace::Machine>& machine_list, const SimConfig& cfg,
       const Workload& wl, SimStats* stats_out)
      : config(cfg),
        workload(wl),
        stats(*stats_out),
        cpu_task_jitter(cfg.cpu_usage_jitter),
        mem_task_jitter(cfg.mem_usage_jitter),
        machine_cpu_jitter(cfg.machine_cpu_jitter),
        machine_mem_jitter(cfg.machine_mem_jitter),
        submits(scan_submits(wl, cfg.horizon)),
        queue(submits.origin, cfg.horizon - submits.origin) {
    CGC_CHECK_MSG(!machine_list.empty(), "simulator needs machines");
    CGC_CHECK_MSG(wl.size() <
                      static_cast<std::size_t>(
                          std::numeric_limits<std::uint32_t>::max()),
                  "workload exceeds the 2^32-task slot space");
    machines.init(machine_list);

    const std::size_t n = wl.size();
    tasks.resize(n, cfg.record_tasks);
    tstatic.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const TaskSpec& spec = wl[i];
      CGC_CHECK_MSG(spec.priority >= trace::kMinPriority &&
                        spec.priority <= trace::kMaxPriority,
                    "task priority out of range");
      CGC_CHECK_MSG(spec.duration > 0, "task duration must be positive");
      CGC_CHECK_MSG(spec.duration <= kBankTimeMax,
                    "task duration exceeds the 32-bit time range");
      CGC_CHECK_MSG(spec.abnormal_after >= kBankTimeMin &&
                        spec.abnormal_after <= kBankTimeMax,
                    "task abnormal_after exceeds the 32-bit time range");
      tasks.remaining[i] = static_cast<BankTime>(spec.duration);
      tasks.resubmits_left[i] = spec.max_resubmits;
      TaskStatic& ts = tstatic[i];
      ts.cpu_request = spec.cpu_request;
      ts.mem_request = spec.mem_request;
      ts.cpu_usage = spec.cpu_request * spec.cpu_usage_ratio;
      ts.mem_usage = spec.mem_request * spec.mem_usage_ratio;
      ts.page_cache = spec.page_cache;
      ts.priority = spec.priority;
      ts.band = static_cast<std::uint8_t>(trace::band_of(spec.priority));
      ts.required_attributes = spec.required_attributes;
      ts.flags = (spec.resubmit_on_abnormal ? TaskStatic::kFlagResubmit : 0) |
                 (spec.fate != TaskEventType::kFinish ? TaskStatic::kFlagHasFate
                                                      : 0);
    }

    // Initial submits are not queued: they are drained from a cursor
    // over the workload sorted by (submit_time, slot). The sort key's
    // slot tie-break reproduces the seed's push order at equal times,
    // and cursor entries drain before any same-time dynamic event (the
    // cursor's implicit sequence numbers precede all queued ones).
    // (submit_time, slot) is a strict total order, so a workload already
    // sorted by submit time (every plan scenario) keeps the identity.
    order.resize(n);
    std::iota(order.begin(), order.end(), 0U);
    if (!submits.sorted) {
      exec::parallel_sort(&order, [&wl](std::uint32_t a, std::uint32_t b) {
        if (wl[a].submit_time != wl[b].submit_time) {
          return wl[a].submit_time < wl[b].submit_time;
        }
        return a < b;
      });
    }

    probe_limit = machines.size() <= kAutoFullScanMax ? 0 : kAutoProbes;
  }

  /// One pass over the submit times (see SubmitScan). Refuses a run
  /// whose times leave the task bank's 32-bit range.
  static SubmitScan scan_submits(const Workload& wl, TimeSec horizon) {
    SubmitScan scan;
    TimeSec prev = std::numeric_limits<TimeSec>::min();
    for (const TaskSpec& spec : wl) {
      scan.origin = std::min(scan.origin, spec.submit_time);
      scan.sorted = scan.sorted && prev <= spec.submit_time;
      prev = spec.submit_time;
    }
    CGC_CHECK_MSG(scan.origin >= kBankTimeMin && horizon <= kBankTimeMax,
                  "submit times and horizon must fit the 32-bit time range");
    return scan;
  }

  // ---- event queue ---------------------------------------------------------
  void push_event(TimeSec now, TimeSec time, EvKind kind, std::uint32_t task,
                  std::uint32_t generation) {
    CGC_CHECK_MSG(time > now, "simulator events must be pushed forward");
    queue.push(time, kind, task, generation);
  }

  // ---- trace recording -----------------------------------------------------
  void record(TimeSec time, std::uint32_t task, TaskEventType type,
              std::int64_t machine_id) {
    if (!config.record_events) {
      return;
    }
    const TaskSpec& spec = workload[task];
    trace::TaskEvent e;
    e.time = time;
    e.job_id = spec.job_id;
    e.task_index = spec.task_index;
    e.machine_id = machine_id;
    e.type = type;
    e.priority = spec.priority;
    out.add_event(e);
  }

  // ---- admission -----------------------------------------------------------
  /// Memory admission limit fraction: the best-effort band may
  /// overcommit into the evictable slice.
  double mem_limit_frac(const TaskStatic& ts) const {
    return ts.band == static_cast<std::uint8_t>(PriorityBand::kLow)
               ? config.mem_overcommit_low_priority
               : config.mem_admission_headroom;
  }

  bool fits(std::size_t m, const TaskStatic& ts) const {
    return (machines.attributes[m] & ts.required_attributes) ==
               ts.required_attributes &&
           machines.cpu_assigned[m] + ts.cpu_request <=
               config.cpu_admission_limit * machines.cpu_capacity[m] &&
           machines.mem_assigned[m] + ts.mem_request <=
               mem_limit_frac(ts) * machines.mem_capacity[m];
  }

  /// Relative utilization after hypothetically adding the task.
  double relative_after(std::size_t m, const TaskStatic& ts) const {
    const double cpu = (machines.cpu_assigned[m] + ts.cpu_request) /
                       machines.cpu_capacity[m];
    const double mem = (machines.mem_assigned[m] + ts.mem_request) /
                       machines.mem_capacity[m];
    return std::max(cpu, mem);
  }

  /// Leftover normalized slack after hypothetically adding the task.
  double slack_after(std::size_t m, const TaskStatic& ts) const {
    const double cpu =
        machines.cpu_capacity[m] - (machines.cpu_assigned[m] + ts.cpu_request);
    const double mem =
        machines.mem_capacity[m] - (machines.mem_assigned[m] + ts.mem_request);
    return cpu + mem;
  }

  /// Placement score under the active policy; smaller is better (the
  /// worst-fit score is negated so one argmin covers all three).
  double score_of(std::size_t m, const TaskStatic& ts) const {
    switch (config.placement) {
      case PlacementPolicy::kBalanced:
        return relative_after(m, ts);
      case PlacementPolicy::kBestFit:
        return slack_after(m, ts);
      case PlacementPolicy::kWorstFit:
        return -slack_after(m, ts);
      default:
        return 0.0;
    }
  }

  // ---- placement -----------------------------------------------------------
  /// The i-th probe candidate for this placement's hashed probe
  /// sequence (power-of-d-choices over the machine park).
  std::size_t probe_at(std::uint64_t base, std::size_t i) const {
    return static_cast<std::size_t>(rng::splitmix64(base + i) %
                                    machines.size());
  }

  /// Hashed base of the probe sequence: stable in (seed, task, pass),
  /// so a retry in a later pass probes different machines and any
  /// thread count derives the same sequence.
  std::uint64_t probe_base(std::uint32_t task) const {
    return rng::hash2(config.seed, rng::kSaltProbe, task, pass_seq);
  }

  /// Exhaustive scan with the seed's exact semantics: the first machine
  /// achieving a strictly better score wins, so ties resolve to the
  /// lowest index. First-fit exits early and random gathers the
  /// fitting set. All three are serial: in auto mode the full scan only
  /// runs on parks of at most 512 machines, too small for a parallel
  /// split to pay for itself.
  int pick_machine_full(std::uint32_t task, const TaskStatic& ts) {
    const std::size_t m_count = machines.size();
    if (config.placement == PlacementPolicy::kFirstFit) {
      for (std::size_t m = 0; m < m_count; ++m) {
        if (fits(m, ts)) {
          return static_cast<int>(m);
        }
      }
      return -1;
    }
    if (config.placement == PlacementPolicy::kRandom) {
      scratch_fitting.clear();
      for (std::size_t m = 0; m < m_count; ++m) {
        if (fits(m, ts)) {
          scratch_fitting.push_back(static_cast<std::uint32_t>(m));
        }
      }
      if (scratch_fitting.empty()) {
        return -1;
      }
      const std::uint64_t h =
          rng::hash2(config.seed, rng::kSaltRandomPick, task, pass_seq);
      return static_cast<int>(scratch_fitting[h % scratch_fitting.size()]);
    }
    int best = -1;
    double best_score = 0.0;
    for (std::size_t m = 0; m < m_count; ++m) {
      if (!fits(m, ts)) {
        continue;
      }
      const double s = score_of(m, ts);
      if (best < 0 || s < best_score) {
        best = static_cast<int>(m);
        best_score = s;
      }
    }
    return best;
  }

  /// Probed placement: O(probe_limit) hashed candidates instead of
  /// O(machines). Selection rules mirror the full scan restricted to
  /// the probe sequence (first strictly better in probe order).
  int pick_machine_probed(std::uint32_t task, const TaskStatic& ts) {
    const std::uint64_t base = probe_base(task);
    if (config.placement == PlacementPolicy::kRandom) {
      scratch_fitting.clear();
      for (std::size_t i = 0; i < probe_limit; ++i) {
        const std::size_t m = probe_at(base, i);
        if (fits(m, ts)) {
          scratch_fitting.push_back(static_cast<std::uint32_t>(m));
        }
      }
      if (scratch_fitting.empty()) {
        return -1;
      }
      const std::uint64_t h =
          rng::hash2(config.seed, rng::kSaltRandomPick, task, pass_seq);
      return static_cast<int>(scratch_fitting[h % scratch_fitting.size()]);
    }
    int best = -1;
    double best_score = 0.0;
    for (std::size_t i = 0; i < probe_limit; ++i) {
      const std::size_t m = probe_at(base, i);
      if (!fits(m, ts)) {
        continue;
      }
      if (config.placement == PlacementPolicy::kFirstFit) {
        return static_cast<int>(m);
      }
      const double s = score_of(m, ts);
      if (best < 0 || s < best_score) {
        best = static_cast<int>(m);
        best_score = s;
      }
    }
    return best;
  }

  int pick_machine(std::uint32_t task, const TaskStatic& ts) {
    return probe_limit == 0 ? pick_machine_full(task, ts)
                            : pick_machine_probed(task, ts);
  }

  /// Can eviction of strictly-lower-priority tasks make room on m?
  bool evictable_fit(std::size_t m, const TaskStatic& ts) const {
    if ((machines.attributes[m] & ts.required_attributes) !=
        ts.required_attributes) {
      return false;
    }
    double cpu = machines.cpu_assigned[m];
    double mem = machines.mem_assigned[m];
    for (const RunEntry& e : machines.running[m]) {
      if (e.priority < ts.priority) {
        cpu -= e.cpu_request;
        mem -= e.mem_request;
      }
    }
    return cpu + ts.cpu_request <=
               config.cpu_admission_limit * machines.cpu_capacity[m] &&
           mem + ts.mem_request <=
               mem_limit_frac(ts) * machines.mem_capacity[m];
  }

  /// First machine (scan order in full mode, probe order in probed
  /// mode) where eviction can make the task fit; -1 when none.
  int find_evictable(std::uint32_t task, const TaskStatic& ts) const {
    if (probe_limit == 0) {
      for (std::size_t m = 0; m < machines.size(); ++m) {
        if (evictable_fit(m, ts)) {
          return static_cast<int>(m);
        }
      }
      return -1;
    }
    const std::uint64_t base = probe_base(task);
    for (std::size_t i = 0; i < probe_limit; ++i) {
      const std::size_t m = probe_at(base, i);
      if (evictable_fit(m, ts)) {
        return static_cast<int>(m);
      }
    }
    return -1;
  }

  // ---- run-state transitions -----------------------------------------------
  void remove_from_machine(std::uint32_t task) {
    const std::int32_t mi = tasks.machine[task];
    CGC_CHECK(mi >= 0);
    const std::size_t m = static_cast<std::size_t>(mi);
    const TaskStatic& ts = tstatic[task];
    machines.cpu_assigned[m] =
        std::max(0.0, machines.cpu_assigned[m] - ts.cpu_request);
    machines.mem_assigned[m] =
        std::max(0.0, machines.mem_assigned[m] - ts.mem_request);
    std::vector<RunEntry>& run = machines.running[m];
    const std::uint32_t pos = tasks.pos_in_machine[task];
    CGC_CHECK(pos < run.size() && run[pos].task == task);
    run[pos] = run.back();
    run.pop_back();
    if (pos < run.size()) {
      tasks.pos_in_machine[run[pos].task] = pos;
    }
    tasks.machine[task] = -1;
  }

  /// Credits run time of the current attempt.
  void account_run_time(TimeSec now, std::uint32_t task) {
    const TimeSec ran = now - tasks.since[task];
    tasks.remaining[task] = static_cast<BankTime>(
        std::max<TimeSec>(0, tasks.remaining[task] - ran));
    if (tasks.fate_remaining[task] >= 0) {
      tasks.fate_remaining[task] = static_cast<BankTime>(
          std::max<TimeSec>(0, tasks.fate_remaining[task] - ran));
    }
  }

  void enqueue_pending(TimeSec now, std::uint32_t task) {
    tasks.state[task] = static_cast<std::uint8_t>(trace::TaskState::kPending);
    tasks.since[task] = static_cast<BankTime>(now);
    pending.push(tasks, tstatic[task].priority, static_cast<std::int32_t>(task));
    stats.max_pending_depth = std::max(stats.max_pending_depth, pending.total);
    record(now, task, TaskEventType::kSubmit, -1);
  }

  /// Shared eviction path: abort the attempt (generation bump
  /// invalidates its queued end event) and requeue after the fixed
  /// delay.
  void evict_task(TimeSec now, std::uint32_t task) {
    const std::size_t m = static_cast<std::size_t>(tasks.machine[task]);
    account_run_time(now, task);
    remove_from_machine(task);
    ++tasks.generation[task];
    tasks.state[task] = static_cast<std::uint8_t>(trace::TaskState::kDead);
    ++stats.evicted;
    if (obs::metrics_enabled()) {
      static obs::Counter& c = obs::counter("sim.evictions");
      c.add(1);
    }
    record(now, task, TaskEventType::kEvict, machines.machine_id[m]);
    if (config.record_tasks) {
      ++tasks.resubmit_count[task];
    }
    ++stats.resubmits;
    push_event(now, now + config.evict_requeue_delay, EvKind::kSubmit, task,
               tasks.generation[task]);
  }

  /// Evicts enough lower-priority tasks from `m` to fit `ts`. Victims
  /// go lowest (priority, slot) first — stable under the swap-remove
  /// run-list order, so eviction storms replay identically at any
  /// thread count.
  void evict_for(TimeSec now, std::size_t m, const TaskStatic& ts) {
    scratch_victims.clear();
    for (const RunEntry& e : machines.running[m]) {
      scratch_victims.push_back(
          (static_cast<std::uint64_t>(e.priority) << 32) | e.task);
    }
    std::sort(scratch_victims.begin(), scratch_victims.end());
    for (const std::uint64_t key : scratch_victims) {
      if (fits(m, ts)) {
        break;
      }
      const std::uint8_t priority = static_cast<std::uint8_t>(key >> 32);
      if (priority >= ts.priority) {
        break;  // only strictly lower priorities are preemptible
      }
      evict_task(now, static_cast<std::uint32_t>(key & 0xffffffffU));
    }
  }

  /// Evicts the single lowest-(priority, slot) task on `m` whose
  /// priority is strictly below `threshold` (no-op when none exists).
  void evict_lowest_below(TimeSec now, std::size_t m,
                          std::uint8_t threshold) {
    std::uint64_t victim = ~std::uint64_t{0};
    for (const RunEntry& e : machines.running[m]) {
      if (e.priority >= threshold) {
        continue;
      }
      victim = std::min(
          victim, (static_cast<std::uint64_t>(e.priority) << 32) | e.task);
    }
    if (victim == ~std::uint64_t{0}) {
      return;
    }
    evict_task(now, static_cast<std::uint32_t>(victim & 0xffffffffU));
  }

  void start_running(TimeSec now, std::uint32_t task, std::size_t m) {
    const TaskStatic& ts = tstatic[task];
    tasks.state[task] = static_cast<std::uint8_t>(trace::TaskState::kRunning);
    tasks.machine[task] = static_cast<std::int32_t>(m);
    const TimeSec pending_since = tasks.since[task];
    tasks.since[task] = static_cast<BankTime>(now);
    if (config.record_tasks) {
      tasks.last_machine[task] = static_cast<std::int32_t>(m);
      if (tasks.first_schedule[task] < 0) {
        tasks.first_schedule[task] = static_cast<BankTime>(now);
      }
    }
    machines.cpu_assigned[m] += ts.cpu_request;
    machines.mem_assigned[m] += ts.mem_request;
    tasks.pos_in_machine[task] =
        static_cast<std::uint32_t>(machines.running[m].size());
    machines.running[m].push_back(RunEntry{task, ts.cpu_request,
                                           ts.mem_request, ts.cpu_usage,
                                           ts.mem_usage, ts.page_cache,
                                           ts.priority, ts.band});
    ++stats.scheduled;
    if (pending_since >= 0) {
      stats.record_wait(now - pending_since);
    }
    record(now, task, TaskEventType::kSchedule, machines.machine_id[m]);

    // Isolation eviction: a freshly placed mid/high-priority task may
    // push out its lowest-priority neighbor. Keyed on (task, attempt),
    // so the decision is independent of draw order.
    if (config.preemption &&
        ts.band != static_cast<std::uint8_t>(PriorityBand::kLow) &&
        config.isolation_eviction_probability > 0.0 &&
        rng::bernoulli(rng::hash2(config.seed, rng::kSaltIsolation, task,
                                  tasks.generation[task]),
                       config.isolation_eviction_probability)) {
      evict_lowest_below(now, m, ts.priority);
    }

    // Queue the attempt's end: the scripted fate if it fires before the
    // work completes, otherwise FINISH.
    TimeSec end_after = tasks.remaining[task];
    if (tasks.fate_remaining[task] >= 0 &&
        tasks.fate_remaining[task] < end_after) {
      end_after = tasks.fate_remaining[task];
    }
    push_event(now, now + std::max<TimeSec>(end_after, 1), EvKind::kEnd, task,
               tasks.generation[task]);
  }

  // ---- scheduling ----------------------------------------------------------
  /// One scheduler pass: highest priority first, FCFS within a priority.
  /// Unplaceable tasks stay queued (skipped, not blocking — Google tasks
  /// carry per-task constraints, so the real scheduler also skips).
  void schedule_pass(TimeSec now) {
    ++pass_seq;
    ++stats.schedule_passes;
    if (obs::metrics_enabled()) {
      static obs::Counter& c = obs::counter("sim.schedule_passes");
      c.add(1);
    }
    for (int p = trace::kNumPriorities - 1; p >= 0; --p) {
      std::int32_t cur = pending.head[p];
      std::int32_t still_head = -1;
      std::int32_t still_tail = -1;
      const auto keep = [&](std::int32_t t) {
        tasks.next_pending[static_cast<std::size_t>(t)] = -1;
        if (still_tail < 0) {
          still_head = still_tail = t;
        } else {
          tasks.next_pending[static_cast<std::size_t>(still_tail)] = t;
          still_tail = t;
        }
      };
      std::size_t failure_streak = 0;
      while (cur >= 0) {
        const std::int32_t task = cur;
        cur = tasks.next_pending[static_cast<std::size_t>(task)];
        if (failure_streak >= config.max_schedule_failures_per_pass) {
          // Cluster is effectively full for this priority: splice the
          // untried tail [task, tail] back as one piece, in FIFO order,
          // and retry it on the next pass.
          if (still_tail < 0) {
            still_head = task;
          } else {
            tasks.next_pending[static_cast<std::size_t>(still_tail)] = task;
          }
          still_tail = pending.tail[p];
          break;
        }
        const std::uint32_t t = static_cast<std::uint32_t>(task);
        const TaskStatic& ts = tstatic[t];
        int machine = pick_machine(t, ts);
        if (machine < 0 && config.preemption) {
          machine = find_evictable(t, ts);
          if (machine >= 0) {
            evict_for(now, static_cast<std::size_t>(machine), ts);
          }
        }
        if (machine < 0) {
          keep(task);
          ++failure_streak;
          continue;
        }
        failure_streak = 0;
        --pending.total;
        start_running(now, t, static_cast<std::size_t>(machine));
      }
      pending.head[p] = still_head;
      pending.tail[p] = still_tail;
    }
  }

  // ---- event handlers ------------------------------------------------------
  void on_submit(TimeSec now, std::uint32_t task, std::uint32_t generation) {
    if (generation != tasks.generation[task]) {
      return;  // stale
    }
    if (tasks.first_submit[task] < 0) {
      tasks.first_submit[task] = static_cast<BankTime>(now);
      ++stats.submitted;
      // Initialize the scripted fate countdown for the first attempt.
      if ((tstatic[task].flags & TaskStatic::kFlagHasFate) != 0) {
        tasks.fate_remaining[task] =
            static_cast<BankTime>(workload[task].abnormal_after);
      }
    }
    enqueue_pending(now, task);
    need_schedule = true;
  }

  void on_end(TimeSec now, std::uint32_t task, std::uint32_t generation) {
    if (generation != tasks.generation[task] ||
        tasks.state[task] !=
            static_cast<std::uint8_t>(trace::TaskState::kRunning)) {
      return;  // stale event from an evicted attempt
    }
    const TaskStatic& ts = tstatic[task];
    const std::int64_t machine_id =
        machines.machine_id[static_cast<std::size_t>(tasks.machine[task])];
    account_run_time(now, task);
    remove_from_machine(task);
    ++tasks.generation[task];
    tasks.state[task] = static_cast<std::uint8_t>(trace::TaskState::kDead);

    const bool fate_fired = (ts.flags & TaskStatic::kFlagHasFate) != 0 &&
                            tasks.fate_remaining[task] == 0;
    TaskEventType etype =
        fate_fired ? workload[task].fate : TaskEventType::kFinish;
    // Deterministic data-shaping fault: the attempt's terminal record
    // is lost (keyed on the task slot; see README's fault-site table).
    if (fault::armed() && fault::inject("sim.task_lost", task)) {
      etype = TaskEventType::kLost;
      ++stats.faults_injected;
    }
    record(now, task, etype, machine_id);
    if (config.record_tasks) {
      tasks.end_time[task] = static_cast<BankTime>(now);
      tasks.end_event[task] = static_cast<std::uint8_t>(etype);
    }

    switch (etype) {
      case TaskEventType::kFinish:
        ++stats.finished;
        break;
      case TaskEventType::kFail: {
        ++stats.failed;
        if ((ts.flags & TaskStatic::kFlagResubmit) != 0 &&
            tasks.resubmits_left[task] > 0) {
          --tasks.resubmits_left[task];
          ++stats.resubmits;
          // The retry repeats the failure until the budget runs out,
          // then the final attempt is allowed to finish.
          tasks.fate_remaining[task] =
              tasks.resubmits_left[task] > 0
                  ? static_cast<BankTime>(workload[task].abnormal_after)
                  : -1;
          tasks.remaining[task] = std::max<BankTime>(tasks.remaining[task], 1);
          const double u = rng::to_unit(rng::hash2(
              config.seed, rng::kSaltResubmit, task, tasks.generation[task]));
          const TimeSec delay = std::max<TimeSec>(
              1, static_cast<TimeSec>(
                     -static_cast<double>(config.resubmit_delay_mean) *
                     std::log(u)));
          push_event(now, now + delay, EvKind::kSubmit, task,
                     tasks.generation[task]);
          if (config.record_tasks) {
            ++tasks.resubmit_count[task];
            tasks.end_time[task] = -1;  // story continues
          }
        }
        break;
      }
      case TaskEventType::kKill:
        ++stats.killed;
        break;
      case TaskEventType::kLost:
        ++stats.lost;
        break;
      default:
        CGC_CHECK_MSG(false, "unexpected end event");
    }
    need_schedule = true;
  }

  // ---- sampling ------------------------------------------------------------
  /// Samples one machine into its series. Runs inside a parallel region:
  /// reads shared state, writes only series[m]. Every stochastic factor
  /// is a counter hash of (machine, sample) or (task, sample), so the
  /// result is independent of chunking and thread count.
  void sample_machine(std::size_t m, std::uint64_t sample_idx,
                      std::vector<trace::HostLoadSeries>* series,
                      std::int64_t base_pending,
                      std::int64_t extra_pending) const {
    float cpu[trace::kNumBands] = {0, 0, 0};
    float mem[trace::kNumBands] = {0, 0, 0};
    float page_cache = 0.0f;
    double machine_cpu_factor = machine_cpu_jitter.factor(
        rng::hash2(config.seed, rng::kSaltMachineCpu, m, sample_idx));
    if (config.cpu_spike_probability > 0.0 &&
        rng::bernoulli(
            rng::hash2(config.seed, rng::kSaltCpuSpike, m, sample_idx),
            config.cpu_spike_probability)) {
      machine_cpu_factor *= config.cpu_spike_factor;
    }
    const double machine_mem_factor = machine_mem_jitter.factor(
        rng::hash2(config.seed, rng::kSaltMachineMem, m, sample_idx));
    for (const RunEntry& e : machines.running[m]) {
      // One hash feeds both per-task factors via disjoint bit slices.
      const std::uint64_t h =
          rng::hash2(config.seed, rng::kSaltTaskUsage, e.task, sample_idx);
      cpu[e.band] += static_cast<float>(e.cpu_usage * machine_cpu_factor *
                                        cpu_task_jitter.factor(h));
      mem[e.band] += static_cast<float>(
          e.mem_usage * machine_mem_factor *
          mem_task_jitter.at(static_cast<std::size_t>(h >> 27)));
      page_cache += e.page_cache;
    }
    // Physical clamps: a machine cannot deliver more than its capacity.
    const float cpu_total = cpu[0] + cpu[1] + cpu[2];
    if (cpu_total > machines.cpu_capacity[m] && cpu_total > 0) {
      const float scale = machines.cpu_capacity[m] / cpu_total;
      for (float& c : cpu) {
        c *= scale;
      }
    }
    const float mem_total = mem[0] + mem[1] + mem[2];
    if (mem_total > machines.mem_capacity[m] && mem_total > 0) {
      const float scale = machines.mem_capacity[m] / mem_total;
      for (float& v : mem) {
        v *= scale;
      }
    }
    page_cache = std::min(page_cache, machines.page_cache_capacity[m]);
    (*series)[m].append(
        cpu, mem, static_cast<float>(machines.mem_assigned[m]), page_cache,
        static_cast<std::int32_t>(machines.running[m].size()),
        static_cast<std::int32_t>(
            base_pending +
            (static_cast<std::int64_t>(m) < extra_pending ? 1 : 0)));
  }

  /// One sample tick: fault-driven machine outages first (they mutate
  /// state, so they run serially), then the sharded observation pass.
  void sample_tick(TimeSec now, std::uint64_t sample_idx,
                   std::vector<trace::HostLoadSeries>* series) {
    if (obs::metrics_enabled()) {
      static obs::Counter& c = obs::counter("sim.samples");
      c.add(1);
      static obs::Gauge& g = obs::gauge("sim.pending_depth");
      g.set(pending.total);
    }
    if (fault::armed()) {
      for (std::size_t m = 0; m < machines.size(); ++m) {
        if (!machines.running[m].empty() &&
            fault::inject("sim.machine_outage", outage_key(m, sample_idx))) {
          ++stats.faults_injected;
          // Whole-machine outage: evict everything, lowest (priority,
          // slot) first, exercising generation invalidation at scale.
          scratch_victims.clear();
          for (const RunEntry& e : machines.running[m]) {
            scratch_victims.push_back(
                (static_cast<std::uint64_t>(e.priority) << 32) | e.task);
          }
          std::sort(scratch_victims.begin(), scratch_victims.end());
          for (const std::uint64_t key : scratch_victims) {
            evict_task(now, static_cast<std::uint32_t>(key & 0xffffffffU));
          }
        }
      }
      if (need_schedule) {
        need_schedule = false;
        schedule_pass(now);
      }
    }
    if (!config.record_host_load) {
      return;
    }
    const std::int64_t m_count = static_cast<std::int64_t>(machines.size());
    // Pending tasks are not bound to machines; spread the global count so
    // the per-machine "queuing state" view (Fig 8b) reflects backlog.
    const std::int64_t base_pending = pending.total / m_count;
    const std::int64_t extra_pending = pending.total % m_count;
    exec::parallel_for_chunked(
        0, static_cast<std::size_t>(m_count),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t m = lo; m < hi; ++m) {
            sample_machine(m, sample_idx, series, base_pending, extra_pending);
          }
        },
        /*grain=*/64);
  }

  // ---- main loop -----------------------------------------------------------
  void run_loop(std::vector<trace::HostLoadSeries>* series) {
    const TimeSec horizon = config.horizon;
    TimeSec next_sample = 0;
    std::uint64_t sample_idx = 0;
    std::size_t cursor = 0;
    for (;;) {
      const TimeSec cursor_time =
          cursor < order.size() ? workload[order[cursor]].submit_time
                                : CalendarQueue::kNoEvent;
      const TimeSec queue_time = queue.next_time(cursor_time);
      const TimeSec ev = std::min(cursor_time, queue_time);
      // Emit samples up to the next event (or the horizon); a sample at
      // time t observes the state before events at t.
      while (next_sample < horizon && next_sample <= ev) {
        sample_tick(next_sample, sample_idx, series);
        next_sample += config.sample_period;
        ++sample_idx;
      }
      if (ev == CalendarQueue::kNoEvent || ev >= horizon) {
        break;  // nothing left inside the window
      }
      std::int64_t batch = 0;
      // Initial submits at this second drain first: their implicit
      // sequence numbers precede every dynamically queued event.
      while (cursor < order.size() &&
             workload[order[cursor]].submit_time == ev) {
        on_submit(ev, order[cursor], 0);
        ++cursor;
        ++batch;
      }
      if (queue_time == ev) {
        const std::vector<QueuedEvent>& bucket = queue.bucket(ev);
        // Index loop: handlers push strictly forward, so the bucket
        // cannot grow, but stay defensive about iterator stability.
        for (std::size_t i = 0; i < bucket.size(); ++i) {
          const QueuedEvent e = bucket[i];
          if (e.kind() == EvKind::kSubmit) {
            on_submit(ev, e.task, e.generation());
          } else {
            on_end(ev, e.task, e.generation());
          }
        }
        batch += static_cast<std::int64_t>(bucket.size());
        queue.finish_bucket(ev);
      }
      stats.events_processed += batch;
      if (obs::metrics_enabled()) {
        static obs::Counter& c = obs::counter("sim.events");
        c.add(static_cast<std::uint64_t>(batch));
      }
      if (need_schedule) {
        need_schedule = false;
        schedule_pass(ev);
      }
    }
  }

  // ---- members -------------------------------------------------------------
  const SimConfig config;
  const Workload& workload;
  SimStats& stats;
  rng::JitterTable cpu_task_jitter;
  rng::JitterTable mem_task_jitter;
  rng::JitterTable machine_cpu_jitter;
  rng::JitterTable machine_mem_jitter;
  SubmitScan submits;
  CalendarQueue queue;
  TaskBank tasks;
  std::vector<TaskStatic> tstatic;
  MachineBank machines;
  PendingQueues pending;
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> scratch_fitting;
  std::vector<std::uint64_t> scratch_victims;
  std::size_t probe_limit = 0;  ///< 0 = full scan
  std::uint64_t pass_seq = 0;
  bool need_schedule = false;
  trace::TraceSet out;
};

ClusterSim::ClusterSim(std::vector<trace::Machine> machines, SimConfig config)
    : machines_(std::move(machines)), config_(config) {
  CGC_CHECK_MSG(!machines_.empty(), "simulator needs machines");
}

trace::TraceSet ClusterSim::run(const Workload& workload,
                                const std::string& system_name) {
  CGC_CHECK_MSG(!used_, "ClusterSim::run() is single-shot");
  used_ = true;
  CGC_CHECK_MSG(config_.horizon > 0, "horizon must be positive");
  CGC_CHECK_MSG(config_.sample_period > 0, "sample period must be positive");

  Impl impl(machines_, config_, workload, &stats_);
  impl.out.set_system_name(system_name);
  impl.out.set_duration(config_.horizon);
  if (config_.record_events) {
    impl.out.reserve_events(workload.size() * 3);
  }

  std::vector<trace::HostLoadSeries> series;
  for (const trace::Machine& m : machines_) {
    impl.out.add_machine(m);
  }
  if (config_.record_host_load) {
    // Samples fall at 0, period, ... strictly before the horizon.
    const auto samples = static_cast<std::size_t>(
        (config_.horizon + config_.sample_period - 1) / config_.sample_period);
    series.reserve(machines_.size());
    for (const trace::Machine& m : machines_) {
      series.emplace_back(m.machine_id, 0, config_.sample_period);
      series.back().reserve(samples);
    }
  }

  impl.run_loop(&series);

  for (trace::HostLoadSeries& s : series) {
    impl.out.add_host_load(std::move(s));
  }

  // Materialize per-task records (and count horizon states either way).
  if (config_.record_tasks) {
    impl.out.reserve_tasks(workload.size());
  }
  for (std::size_t i = 0; i < workload.size(); ++i) {
    if (impl.tasks.first_submit[i] < 0) {
      continue;  // never submitted inside the window
    }
    if (config_.record_tasks) {
      const TaskSpec& spec = workload[i];
      trace::Task t;
      t.job_id = spec.job_id;
      t.task_index = spec.task_index;
      t.priority = spec.priority;
      t.submit_time = impl.tasks.first_submit[i];
      t.schedule_time = impl.tasks.first_schedule[i];
      t.end_time = impl.tasks.end_time[i];
      t.end_event =
          static_cast<trace::TaskEventType>(impl.tasks.end_event[i]);
      t.machine_id =
          impl.tasks.last_machine[i] >= 0
              ? impl.machines.machine_id[static_cast<std::size_t>(
                    impl.tasks.last_machine[i])]
              : -1;
      t.resubmits = impl.tasks.resubmit_count[i];
      t.cpu_request = spec.cpu_request;
      t.mem_request = spec.mem_request;
      t.cpu_usage = spec.cpu_request * spec.cpu_usage_ratio;
      t.mem_usage = spec.mem_request * spec.mem_usage_ratio;
      impl.out.add_task(t);
    }
    const auto state = static_cast<trace::TaskState>(impl.tasks.state[i]);
    if (state == trace::TaskState::kRunning) {
      ++stats_.running_at_horizon;
    } else if (state == trace::TaskState::kPending) {
      ++stats_.never_scheduled;
    }
  }

  if (config_.record_tasks) {
    impl.out.adopt_jobs(trace::roll_up_jobs(impl.out.tasks()));
  }

  impl.out.finalize();
  return std::move(impl.out);
}

std::string_view placement_name(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kBalanced:
      return "balanced";
    case PlacementPolicy::kBestFit:
      return "best-fit";
    case PlacementPolicy::kWorstFit:
      return "worst-fit";
    case PlacementPolicy::kFirstFit:
      return "first-fit";
    case PlacementPolicy::kRandom:
      return "random";
  }
  return "?";
}

}  // namespace cgc::sim
