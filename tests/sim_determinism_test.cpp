// Tests for the paper-scale simulator core's structural guarantees:
// bit-identical output at any CGC_THREADS (the sharded-determinism
// contract), record knobs that never change the dynamics, the calendar
// queue's (time, push-order) drain invariant, and generation-counter
// invalidation under eviction storms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "gen/google_model.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/event_queue.hpp"
#include "trace/validate.hpp"
#include "util/thread_pool.hpp"

namespace cgc::sim {
namespace {

// ---------------------------------------------------------------------------
// Sharded bit-determinism
// ---------------------------------------------------------------------------

/// A mid-scale contended workload with every stochastic path exercised:
/// full jitter, preemption (mixed priorities over committed memory),
/// fail fates with retries, and placement constraints.
Workload contended_workload() {
  Workload workload;
  std::int64_t job = 1;
  for (int i = 0; i < 4000; ++i) {
    TaskSpec spec;
    spec.job_id = job + i / 4;  // multi-task jobs
    spec.task_index = i % 4;
    spec.priority = static_cast<std::uint8_t>(1 + (i * 7) % 12);
    spec.submit_time = (i % 977) * 80;
    spec.duration = 400 + (i % 13) * 700;
    spec.cpu_request = 0.04f + 0.01f * static_cast<float>(i % 5);
    spec.mem_request = 0.05f + 0.01f * static_cast<float>(i % 7);
    if (i % 11 == 0) {
      spec.fate = trace::TaskEventType::kFail;
      spec.abnormal_after = 150;
      spec.max_resubmits = 2;
    }
    if (i % 17 == 0) {
      spec.required_attributes = trace::kAttrLocalSsd;
    }
    workload.push_back(spec);
  }
  return workload;
}

std::vector<trace::Machine> contended_park(int size = 48) {
  std::vector<trace::Machine> machines;
  for (int i = 0; i < size; ++i) {
    trace::Machine m;
    m.machine_id = i + 1;
    m.cpu_capacity = i % 3 == 0 ? 0.5f : 1.0f;
    m.mem_capacity = i % 4 == 0 ? 0.5f : 1.0f;
    m.attributes = i % 5 == 0 ? trace::kAttrLocalSsd : 0;
    machines.push_back(m);
  }
  return machines;
}

std::uint64_t digest_at_threads(std::size_t threads) {
  util::ThreadPool pool(threads);
  exec::ScopedPool scoped(&pool);
  SimConfig config;
  config.horizon = util::kSecondsPerDay;
  ClusterSim sim(contended_park(), config);
  const trace::TraceSet out = sim.run(contended_workload());
  EXPECT_GT(sim.stats().evicted, 0) << "workload must exercise preemption";
  EXPECT_GT(sim.stats().failed, 0) << "workload must exercise fail fates";
  return out.content_digest();
}

TEST(SimDeterminism, BitIdenticalAcrossThreadCounts) {
  const std::uint64_t d1 = digest_at_threads(1);
  const std::uint64_t d2 = digest_at_threads(2);
  const std::uint64_t d8 = digest_at_threads(8);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d8);
}

TEST(SimDeterminism, ProbedPlacementIsAlsoThreadInvariant) {
  // Parks above 512 machines take the probed-placement path (the
  // large-cluster mode); check the contract holds there too.
  auto run = [](std::size_t threads) {
    util::ThreadPool pool(threads);
    exec::ScopedPool scoped(&pool);
    SimConfig config;
    config.horizon = util::kSecondsPerDay;
    ClusterSim sim(contended_park(600), config);
    const trace::TraceSet out = sim.run(contended_workload());
    return out.content_digest();
  };
  EXPECT_EQ(run(1), run(4));
}

// ---------------------------------------------------------------------------
// Record knobs
// ---------------------------------------------------------------------------

/// What one run under a record_* setting exposes.
struct KnobRun {
  SimStats stats;
  /// content_digest of a TraceSet holding only the host-load series.
  std::uint64_t host_load_digest = 0;
  std::vector<trace::Task> tasks;
};

KnobRun run_with_knobs(const std::vector<trace::Machine>& park,
                       const Workload& workload, bool record_tasks,
                       bool record_events, bool record_host_load = true) {
  SimConfig config;
  config.horizon = 6 * util::kSecondsPerHour;
  config.record_tasks = record_tasks;
  config.record_events = record_events;
  config.record_host_load = record_host_load;
  ClusterSim sim(park, config);
  const trace::TraceSet out = sim.run(workload);
  trace::TraceSet host_load;
  for (const trace::HostLoadSeries& s : out.host_load()) {
    host_load.add_host_load(s);
  }
  host_load.finalize();
  return KnobRun{sim.stats(), host_load.content_digest(),
                 {out.tasks().begin(), out.tasks().end()}};
}

void expect_same_stats(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.scheduled, b.scheduled);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.killed, b.killed);
  EXPECT_EQ(a.evicted, b.evicted);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.resubmits, b.resubmits);
  EXPECT_EQ(a.never_scheduled, b.never_scheduled);
  EXPECT_EQ(a.running_at_horizon, b.running_at_horizon);
  EXPECT_EQ(a.max_pending_depth, b.max_pending_depth);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.schedule_passes, b.schedule_passes);
  EXPECT_EQ(a.placement_searches, b.placement_searches);
  EXPECT_EQ(a.placement_failures, b.placement_failures);
  EXPECT_EQ(a.eviction_searches, b.eviction_searches);
  EXPECT_EQ(a.wait_count, b.wait_count);
  EXPECT_EQ(a.wait_sum_s, b.wait_sum_s);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.wait_quantile(q), b.wait_quantile(q)) << "q=" << q;
  }
}

void expect_same_tasks(const std::vector<trace::Task>& a,
                       const std::vector<trace::Task>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job_id, b[i].job_id) << i;
    EXPECT_EQ(a[i].task_index, b[i].task_index) << i;
    EXPECT_EQ(a[i].submit_time, b[i].submit_time) << i;
    EXPECT_EQ(a[i].schedule_time, b[i].schedule_time) << i;
    EXPECT_EQ(a[i].end_time, b[i].end_time) << i;
    EXPECT_EQ(a[i].end_event, b[i].end_event) << i;
    EXPECT_EQ(a[i].machine_id, b[i].machine_id) << i;
    EXPECT_EQ(a[i].resubmits, b[i].resubmits) << i;
  }
}

/// Arms a fault spec for one scope and disarms it on exit, also when an
/// assertion returns early.
struct ScopedFaults {
  explicit ScopedFaults(const std::string& spec) { fault::configure(spec); }
  ~ScopedFaults() { fault::configure(""); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
};

/// SimConfig's promise: the record_* knobs only choose what is kept.
/// A generated Google workload (warm-up submits before t=0, fail fates
/// with retries, placement constraints, preemption on) runs under every
/// (record_tasks, record_events) pair and with record_host_load off,
/// once plain and once with sim.machine_outage armed: outages fire in
/// the sample tick before its host-load early return, so they must not
/// depend on it.
TEST(SimDeterminism, RecordKnobsNeverChangeDynamics) {
  constexpr std::size_t kMachines = 24;
  const gen::GoogleWorkloadModel model;
  const std::vector<trace::Machine> park = model.make_machines(kMachines);
  const Workload workload =
      model.generate_sim_workload(6 * util::kSecondsPerHour, kMachines);
  ASSERT_TRUE(std::any_of(workload.begin(), workload.end(),
                          [](const TaskSpec& s) { return s.submit_time < 0; }));
  ASSERT_TRUE(std::any_of(workload.begin(), workload.end(),
                          [](const TaskSpec& s) {
                            return s.required_attributes != 0;
                          }));

  for (const std::string faults : {"", "sim.machine_outage:p=0.01,seed=7"}) {
    SCOPED_TRACE(faults.empty() ? "no faults" : faults);
    const ScopedFaults armed(faults);
    const KnobRun full = run_with_knobs(park, workload, true, true);
    EXPECT_GT(full.stats.evicted, 0) << "workload must exercise preemption";
    EXPECT_GT(full.stats.failed, 0) << "workload must exercise fail fates";
    EXPECT_GT(full.stats.resubmits, full.stats.evicted)
        << "workload must exercise fail retries";
    EXPECT_GT(full.stats.running_at_horizon, 0);
    ASSERT_FALSE(full.tasks.empty());
    if (!faults.empty()) {
      ASSERT_GT(full.stats.faults_injected, 0)
          << "outage site must fire for the test to mean anything";
    }

    const KnobRun tasks_only = run_with_knobs(park, workload, true, false);
    expect_same_stats(full.stats, tasks_only.stats);
    EXPECT_EQ(full.host_load_digest, tasks_only.host_load_digest);
    expect_same_tasks(full.tasks, tasks_only.tasks);

    for (const bool record_events : {true, false}) {
      SCOPED_TRACE(record_events ? "events only" : "nothing recorded");
      const KnobRun bare =
          run_with_knobs(park, workload, false, record_events);
      expect_same_stats(full.stats, bare.stats);
      EXPECT_EQ(full.host_load_digest, bare.host_load_digest);
      EXPECT_TRUE(bare.tasks.empty());
    }

    for (const bool record_events : {true, false}) {
      SCOPED_TRACE(record_events ? "host load off, events on"
                                 : "host load and events off");
      const KnobRun lean =
          run_with_knobs(park, workload, true, record_events, false);
      expect_same_stats(full.stats, lean.stats);
      expect_same_tasks(full.tasks, lean.tasks);
    }
  }
}

// ---------------------------------------------------------------------------
// Calendar-queue ordering property
// ---------------------------------------------------------------------------

/// Reference model entry: the full (time, seq) key the seed heap used.
struct RefEvent {
  trace::TimeSec time;
  std::uint64_t seq;
  std::uint32_t task;
};

/// Property: draining the calendar queue while pushing new events
/// forward in time replays exactly the (time, push-seq) order of the
/// seed's heap — including ties within a second — across window
/// advances and far-bucket scatters.
TEST(CalendarQueue, DrainsInTimeThenSeqOrder) {
  CalendarQueue queue(/*origin=*/-500, /*span_hint=*/400000);
  std::vector<RefEvent> reference;
  std::uint64_t seq = 0;
  std::uint64_t rng = 12345;
  const auto next_rand = [&rng]() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  const auto push = [&](trace::TimeSec now) {
    // Mix of near pushes (same L0 window) and far pushes (minutes to
    // days ahead, crossing several 8192 s windows), some negative-time.
    const std::uint64_t r = next_rand();
    const trace::TimeSec delta =
        1 + static_cast<trace::TimeSec>(
                r % (r % 3 == 0 ? 250000 : (r % 2 == 0 ? 40 : 7000)));
    const trace::TimeSec t = now + delta;
    const auto task = static_cast<std::uint32_t>(seq);
    queue.push(t, EvKind::kSubmit, task, 0);
    reference.push_back(RefEvent{t, seq, task});
    ++seq;
  };

  for (int i = 0; i < 400; ++i) {
    push(-500);  // initial burst, heavy same-second ties
  }
  std::size_t drained = 0;
  while (!queue.empty()) {
    const trace::TimeSec t = queue.next_time();
    ASSERT_NE(t, CalendarQueue::kNoEvent);
    // The reference order: stable sort by time = (time, seq) order.
    std::stable_sort(reference.begin() + static_cast<std::ptrdiff_t>(drained),
                     reference.end(),
                     [](const RefEvent& a, const RefEvent& b) {
                       return a.time < b.time;
                     });
    const std::vector<QueuedEvent>& bucket = queue.bucket(t);
    ASSERT_FALSE(bucket.empty());
    for (const QueuedEvent& e : bucket) {
      ASSERT_LT(drained, reference.size());
      EXPECT_EQ(reference[drained].time, t);
      EXPECT_EQ(reference[drained].task, e.task);
      ++drained;
    }
    queue.finish_bucket(t);
    // Handlers push strictly forward while draining.
    while (drained < 7000 && next_rand() % 3 != 0) {
      push(t);
    }
  }
  EXPECT_EQ(drained, reference.size());
  EXPECT_GE(drained, 7000u);
}

TEST(CalendarQueue, BoundedScanDoesNotAdvancePastBound) {
  CalendarQueue queue(0, 100000);
  queue.push(50000, EvKind::kEnd, 7, 0);  // several windows ahead
  // An earlier external event (the workload cursor) exists at t=100:
  // the queue must report "nothing at or before 100" and stay put so a
  // handler at t=100 can still push into t=101.
  EXPECT_EQ(queue.next_time(/*bound=*/100), CalendarQueue::kNoEvent);
  queue.push(101, EvKind::kSubmit, 8, 0);
  EXPECT_EQ(queue.next_time(), 101);
  queue.finish_bucket(101);
  EXPECT_EQ(queue.next_time(), 50000);
}

// ---------------------------------------------------------------------------
// Eviction storms / generation invalidation
// ---------------------------------------------------------------------------

/// Saturates a small park with low-priority work, then slams it with
/// waves of high-priority tasks: every wave triggers mass eviction, and
/// every eviction leaves a stale end event whose generation must be
/// recognized as dead. Validates the whole output trace and the stats
/// identities that only hold if no stale event is ever double-applied.
TEST(SimStress, EvictionStormInvalidatesStaleEnds) {
  std::vector<trace::Machine> machines;
  for (int i = 0; i < 16; ++i) {
    trace::Machine m;
    m.machine_id = i + 1;
    machines.push_back(m);
  }
  Workload workload;
  for (int i = 0; i < 800; ++i) {  // filler: long-running best-effort
    TaskSpec spec;
    spec.job_id = 1 + i;
    spec.priority = 1 + i % 2;
    spec.submit_time = 0;
    spec.duration = 40000;
    spec.cpu_request = 0.01f;
    spec.mem_request = 0.018f;  // ~55 fit per machine by memory
    workload.push_back(spec);
  }
  for (int wave = 0; wave < 12; ++wave) {  // production waves
    for (int i = 0; i < 300; ++i) {
      TaskSpec spec;
      spec.job_id = 10000 + wave;
      spec.task_index = i;
      spec.priority = 11;
      spec.submit_time = 600 + wave * 1800;
      spec.duration = 900;
      spec.cpu_request = 0.02f;
      spec.mem_request = 0.04f;
      workload.push_back(spec);
    }
  }
  SimConfig config;
  config.horizon = util::kSecondsPerDay;
  config.isolation_eviction_probability = 0.6;  // amplify churn
  ClusterSim sim(machines, config);
  const trace::TraceSet out = sim.run(workload);
  EXPECT_TRUE(trace::validate(out).empty());

  const SimStats& s = sim.stats();
  EXPECT_GT(s.evicted, 500) << "storm must actually evict at scale";
  EXPECT_EQ(s.submitted, 800 + 12 * 300);
  // Attempt conservation: every placement ends in exactly one terminal
  // event or is still running at the horizon. A stale end event that
  // slipped past its generation check would double-terminate an attempt
  // and break this identity.
  EXPECT_EQ(s.scheduled, s.terminal_events() + s.running_at_horizon);
  // Every eviction requeues: resubmits covers at least the evictions.
  EXPECT_GE(s.resubmits, s.evicted);
  // A stale end double-applied would end a task twice; conservation
  // above plus trace validation (legal state transitions per task)
  // catches both double-ends and lost tasks.
}

/// The sim.machine_outage fault site: deterministic whole-machine
/// failures at sample boundaries, same behaviour at any thread count.
TEST(SimStress, MachineOutageFaultSiteIsDeterministic) {
  const auto run = [](std::size_t threads) {
    util::ThreadPool pool(threads);
    exec::ScopedPool scoped(&pool);
    SimConfig config;
    config.horizon = util::kSecondsPerDay;
    ClusterSim sim(contended_park(), config);
    const trace::TraceSet out = sim.run(contended_workload());
    return std::pair<std::uint64_t, std::int64_t>(
        out.content_digest(), sim.stats().faults_injected);
  };
  fault::configure("sim.machine_outage:p=0.002,seed=7");
  const auto [d1, f1] = run(1);
  const auto [d4, f4] = run(4);
  fault::configure("");
  ASSERT_GT(f1, 0) << "outage site must fire for the test to mean anything";
  EXPECT_EQ(f1, f4);
  EXPECT_EQ(d1, d4);
}

/// The sim.task_lost fault site converts terminal events to LOST.
TEST(SimStress, TaskLostFaultSiteShapesTerminals) {
  SimConfig config;
  config.horizon = util::kSecondsPerDay;
  fault::configure("sim.task_lost:every=10");
  ClusterSim sim(contended_park(), config);
  const trace::TraceSet out = sim.run(contended_workload());
  fault::configure("");
  EXPECT_GT(sim.stats().lost, 0);
  EXPECT_EQ(sim.stats().faults_injected, sim.stats().lost);
  EXPECT_TRUE(trace::validate(out).empty());
}

}  // namespace
}  // namespace cgc::sim
