// Tests for the discrete-event cluster simulator: scheduling, state
// machine, preemption, fates, resubmission, and capacity invariants.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "sim/cluster_sim.hpp"
#include "trace/validate.hpp"
#include "util/check.hpp"

namespace cgc::sim {
namespace {

using trace::Machine;
using trace::TaskEventType;

std::vector<Machine> one_machine(float cpu = 1.0f, float mem = 1.0f) {
  Machine m;
  m.machine_id = 1;
  m.cpu_capacity = cpu;
  m.mem_capacity = mem;
  return {m};
}

SimConfig quiet_config(util::TimeSec horizon) {
  SimConfig config;
  config.horizon = horizon;
  config.cpu_usage_jitter = 0.0;
  config.mem_usage_jitter = 0.0;
  config.machine_cpu_jitter = 0.0;
  config.machine_mem_jitter = 0.0;
  return config;
}

TaskSpec simple_task(std::int64_t job_id, util::TimeSec submit,
                     util::TimeSec duration) {
  TaskSpec spec;
  spec.job_id = job_id;
  spec.task_index = 0;
  spec.priority = 3;
  spec.submit_time = submit;
  spec.duration = duration;
  spec.cpu_request = 0.2f;
  spec.mem_request = 0.2f;
  spec.cpu_usage_ratio = 0.5f;
  spec.mem_usage_ratio = 0.8f;
  return spec;
}

TEST(ClusterSim, SingleTaskLifecycle) {
  ClusterSim sim(one_machine(), quiet_config(3600));
  const trace::TraceSet out = sim.run({simple_task(1, 100, 600)});

  EXPECT_EQ(sim.stats().submitted, 1);
  EXPECT_EQ(sim.stats().scheduled, 1);
  EXPECT_EQ(sim.stats().finished, 1);

  ASSERT_EQ(out.tasks().size(), 1u);
  const trace::Task& t = out.tasks()[0];
  EXPECT_EQ(t.submit_time, 100);
  EXPECT_EQ(t.schedule_time, 100);  // empty cluster: immediate placement
  EXPECT_EQ(t.end_time, 700);
  EXPECT_EQ(t.end_event, TaskEventType::kFinish);
  EXPECT_EQ(t.machine_id, 1);  // remembers where it ran

  // Event stream: SUBMIT, SCHEDULE, FINISH in order.
  ASSERT_EQ(out.events().size(), 3u);
  EXPECT_EQ(out.events()[0].type, TaskEventType::kSubmit);
  EXPECT_EQ(out.events()[1].type, TaskEventType::kSchedule);
  EXPECT_EQ(out.events()[2].type, TaskEventType::kFinish);
}

TEST(ClusterSim, ProducesValidTrace) {
  std::vector<Machine> machines = one_machine(0.5f, 0.5f);
  Machine m2;
  m2.machine_id = 2;
  m2.cpu_capacity = 0.25f;
  m2.mem_capacity = 0.75f;
  machines.push_back(m2);

  Workload workload;
  for (int i = 0; i < 50; ++i) {
    TaskSpec spec = simple_task(i + 1, i * 60, 500 + i * 10);
    spec.cpu_request = 0.05f;
    spec.mem_request = 0.04f;
    spec.priority = static_cast<std::uint8_t>(1 + i % 12);
    workload.push_back(spec);
  }
  ClusterSim sim(machines, quiet_config(2 * util::kSecondsPerHour));
  const trace::TraceSet out = sim.run(workload);
  EXPECT_TRUE(trace::validate(out).empty());
  EXPECT_EQ(sim.stats().submitted, 50);
}

TEST(ClusterSim, HostLoadReflectsRunningTask) {
  SimConfig config = quiet_config(3600);
  ClusterSim sim(one_machine(), config);
  TaskSpec spec = simple_task(1, 0, 1500);
  spec.priority = 10;  // high band
  const trace::TraceSet out = sim.run({spec});
  const trace::HostLoadSeries* h = out.host_load_for(1);
  ASSERT_NE(h, nullptr);
  // Samples at t=0..1200 should show the task: usage = request * ratio.
  EXPECT_NEAR(h->cpu(trace::PriorityBand::kHigh, 2), 0.2f * 0.5f, 1e-5);
  EXPECT_NEAR(h->mem(trace::PriorityBand::kHigh, 2), 0.2f * 0.8f, 1e-5);
  EXPECT_NEAR(h->mem_assigned(2), 0.2f, 1e-5);
  EXPECT_EQ(h->running(2), 1);
  // After completion (t=1500) the machine is empty.
  EXPECT_EQ(h->running(6), 0);
  EXPECT_NEAR(h->cpu_total(6), 0.0f, 1e-6);
}

TEST(ClusterSim, CapacityGatesConcurrency) {
  // Machine fits exactly 2 tasks by memory admission (0.92 * 1.0 / 0.4).
  SimConfig config = quiet_config(7200);
  ClusterSim sim(one_machine(), config);
  Workload workload;
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec = simple_task(i + 1, 0, 600);
    spec.mem_request = 0.4f;
    spec.cpu_request = 0.1f;
    workload.push_back(spec);
  }
  const trace::TraceSet out = sim.run(workload);
  const trace::HostLoadSeries* h = out.host_load_for(1);
  ASSERT_NE(h, nullptr);
  // First sample at t=0 is taken before the arrivals at t=0 process, so
  // look at t=300: two running, one pending.
  EXPECT_EQ(h->running(1), 2);
  EXPECT_EQ(h->pending(1), 1);
  // All three eventually finish (the third after a slot frees).
  EXPECT_EQ(sim.stats().finished, 3);
}

TEST(ClusterSim, FcfsWithinPriority) {
  // Two equal-priority tasks contend for one slot: the earlier submitted
  // runs first.
  SimConfig config = quiet_config(7200);
  ClusterSim sim(one_machine(), config);
  TaskSpec first = simple_task(1, 0, 900);
  first.mem_request = 0.6f;
  TaskSpec second = simple_task(2, 60, 900);
  second.mem_request = 0.6f;
  const trace::TraceSet out = sim.run({second, first});
  const auto t1 = out.tasks_for_job(1);
  const auto t2 = out.tasks_for_job(2);
  ASSERT_EQ(t1.size(), 1u);
  ASSERT_EQ(t2.size(), 1u);
  EXPECT_EQ(t1[0].schedule_time, 0);
  EXPECT_EQ(t2[0].schedule_time, 900);  // waits for the first to finish
}

TEST(ClusterSim, OverBudgetBacklogKeepsFifoAcrossPasses) {
  // One slot, one priority, a backlog far deeper than the pass budget:
  // each pass places one task, fails twice and splices the untried
  // rest back whole. Two late arrivals must queue behind that tail.
  SimConfig config = quiet_config(7200);
  config.preemption = false;
  config.max_schedule_failures_per_pass = 2;
  ClusterSim sim(one_machine(), config);
  Workload workload;
  for (int i = 0; i < 10; ++i) {
    workload.push_back(simple_task(i + 1, 0, 100));
  }
  workload.push_back(simple_task(11, 150, 100));
  workload.push_back(simple_task(12, 150, 100));
  for (TaskSpec& spec : workload) {
    spec.mem_request = 0.6f;  // one task fills the machine
  }
  const trace::TraceSet out = sim.run(workload);

  EXPECT_EQ(sim.stats().finished, 12);
  EXPECT_EQ(sim.stats().never_scheduled, 0);
  EXPECT_EQ(sim.stats().max_pending_depth, 10);
  for (std::int64_t job = 1; job <= 12; ++job) {
    const auto t = out.tasks_for_job(job);
    ASSERT_EQ(t.size(), 1u) << job;
    EXPECT_EQ(t[0].schedule_time, (job - 1) * 100) << job;
  }
}

TEST(ClusterSim, HigherPriorityPreempts) {
  SimConfig config = quiet_config(7200);
  config.preemption = true;
  ClusterSim sim(one_machine(), config);
  TaskSpec low = simple_task(1, 0, 3000);
  low.priority = 1;
  low.mem_request = 0.7f;
  TaskSpec high = simple_task(2, 600, 300);
  high.priority = 11;
  high.mem_request = 0.7f;
  const trace::TraceSet out = sim.run({low, high});

  EXPECT_EQ(sim.stats().evicted, 1);
  // The low task was evicted at t=600 and later resubmitted.
  bool saw_evict = false;
  for (const trace::TaskEvent& e : out.events()) {
    if (e.type == TaskEventType::kEvict) {
      EXPECT_EQ(e.job_id, 1);
      EXPECT_EQ(e.time, 600);
      saw_evict = true;
    }
  }
  EXPECT_TRUE(saw_evict);
  // The high-priority task runs immediately at 600.
  EXPECT_EQ(out.tasks_for_job(2)[0].schedule_time, 600);
  // The evicted task resumes and still finishes within the horizon.
  EXPECT_EQ(sim.stats().finished, 2);
}

TEST(ClusterSim, CountsPlacementAndEvictionSearches) {
  // Two machines that hold one task each (memory 0.6 of 1.0).
  //   t=0    A, B placed                      searches 2
  //   t=100  C finds no room, evicts nothing  searches 3, failed 1, evict 1
  //   t=200  D (priority 11) finds no room, evicts A and runs;
  //          C still finds none               searches 5, failed 3, evict 3
  //   t=380  A resubmits: C, A find none      searches 7, failed 5, evict 5
  //   t=500  D ends: C placed, A finds none   searches 9, failed 6, evict 6
  //   t=3600 B ends: A placed                 searches 10
  SimConfig config = quiet_config(7200);
  config.preemption = true;
  config.isolation_eviction_probability = 0.0;
  Machine second = one_machine()[0];
  second.machine_id = 2;
  std::vector<Machine> machines = one_machine();
  machines.push_back(second);
  ClusterSim sim(machines, config);
  Workload workload = {simple_task(1, 0, 3600), simple_task(2, 0, 3600),
                       simple_task(3, 100, 3600), simple_task(4, 200, 300)};
  workload[3].priority = 11;
  for (TaskSpec& spec : workload) {
    spec.mem_request = 0.6f;
  }
  sim.run(workload);

  EXPECT_EQ(sim.stats().evicted, 1);
  EXPECT_EQ(sim.stats().placement_searches, 10);
  EXPECT_EQ(sim.stats().placement_failures, 6);
  EXPECT_EQ(sim.stats().eviction_searches, 6);

  // Without preemption no failure searches for an eviction: C fails at
  // t=100, D and C at t=200, and both run once A and B end at t=3600.
  config.preemption = false;
  ClusterSim no_preemption(machines, config);
  no_preemption.run(workload);
  EXPECT_EQ(no_preemption.stats().placement_searches, 7);
  EXPECT_EQ(no_preemption.stats().placement_failures, 3);
  EXPECT_EQ(no_preemption.stats().eviction_searches, 0);
}

TEST(ClusterSim, NoPreemptionWhenDisabled) {
  SimConfig config = quiet_config(7200);
  config.preemption = false;
  ClusterSim sim(one_machine(), config);
  TaskSpec low = simple_task(1, 0, 3000);
  low.priority = 1;
  low.mem_request = 0.7f;
  TaskSpec high = simple_task(2, 600, 300);
  high.priority = 11;
  high.mem_request = 0.7f;
  sim.run({low, high});
  EXPECT_EQ(sim.stats().evicted, 0);
}

TEST(ClusterSim, EqualPriorityDoesNotPreempt) {
  SimConfig config = quiet_config(7200);
  ClusterSim sim(one_machine(), config);
  TaskSpec a = simple_task(1, 0, 3000);
  a.mem_request = 0.7f;
  TaskSpec b = simple_task(2, 600, 300);
  b.mem_request = 0.7f;  // same priority as a
  sim.run({a, b});
  EXPECT_EQ(sim.stats().evicted, 0);
}

TEST(ClusterSim, FailFateRetriesThenFinishes) {
  SimConfig config = quiet_config(2 * util::kSecondsPerHour);
  ClusterSim sim(one_machine(), config);
  TaskSpec spec = simple_task(1, 0, 1000);
  spec.fate = TaskEventType::kFail;
  spec.abnormal_after = 200;
  spec.max_resubmits = 2;
  spec.resubmit_on_abnormal = true;
  const trace::TraceSet out = sim.run({spec});
  EXPECT_EQ(sim.stats().failed, 2);
  EXPECT_EQ(sim.stats().finished, 1);
  EXPECT_EQ(sim.stats().resubmits, 2);
  ASSERT_EQ(out.tasks().size(), 1u);
  EXPECT_EQ(out.tasks()[0].end_event, TaskEventType::kFinish);
  EXPECT_EQ(out.tasks()[0].resubmits, 2);
}

TEST(ClusterSim, KillFateIsTerminal) {
  SimConfig config = quiet_config(7200);
  ClusterSim sim(one_machine(), config);
  TaskSpec spec = simple_task(1, 0, 1000);
  spec.fate = TaskEventType::kKill;
  spec.abnormal_after = 300;
  spec.resubmit_on_abnormal = false;
  const trace::TraceSet out = sim.run({spec});
  EXPECT_EQ(sim.stats().killed, 1);
  EXPECT_EQ(sim.stats().finished, 0);
  EXPECT_EQ(sim.stats().resubmits, 0);
  EXPECT_EQ(out.tasks()[0].end_event, TaskEventType::kKill);
  EXPECT_EQ(out.tasks()[0].end_time, 300);
}

TEST(ClusterSim, LostFateIsTerminal) {
  SimConfig config = quiet_config(7200);
  ClusterSim sim(one_machine(), config);
  TaskSpec spec = simple_task(1, 0, 1000);
  spec.fate = TaskEventType::kLost;
  spec.abnormal_after = 100;
  spec.resubmit_on_abnormal = false;
  sim.run({spec});
  EXPECT_EQ(sim.stats().lost, 1);
  EXPECT_EQ(sim.stats().finished, 0);
}

TEST(ClusterSim, TasksPastHorizonStayOpen) {
  SimConfig config = quiet_config(1000);
  ClusterSim sim(one_machine(), config);
  const trace::TraceSet out = sim.run({simple_task(1, 0, 50000)});
  ASSERT_EQ(out.tasks().size(), 1u);
  EXPECT_EQ(out.tasks()[0].end_time, -1);
  EXPECT_EQ(sim.stats().running_at_horizon, 1);
  EXPECT_EQ(sim.stats().finished, 0);
}

TEST(ClusterSim, SamplesCoverHorizon) {
  SimConfig config = quiet_config(3600);
  config.sample_period = 300;
  ClusterSim sim(one_machine(), config);
  const trace::TraceSet out = sim.run({});
  const trace::HostLoadSeries* h = out.host_load_for(1);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->size(), 12u);  // 3600 / 300
  EXPECT_EQ(h->time_at(0), 0);
  EXPECT_EQ(h->time_at(11), 3300);
}

TEST(ClusterSim, RunIsSingleShot) {
  ClusterSim sim(one_machine(), quiet_config(100));
  sim.run({});
  EXPECT_THROW(sim.run({}), util::Error);
}

TEST(ClusterSim, RejectsBadSpecs) {
  {
    ClusterSim sim(one_machine(), quiet_config(100));
    TaskSpec spec = simple_task(1, 0, 0);  // zero duration
    EXPECT_THROW(sim.run({spec}), util::Error);
  }
  {
    ClusterSim sim(one_machine(), quiet_config(100));
    TaskSpec spec = simple_task(1, 0, 10);
    spec.priority = 13;
    EXPECT_THROW(sim.run({spec}), util::Error);
  }
  EXPECT_THROW(ClusterSim({}, quiet_config(100)), util::Error);
}

/// The task bank stores times in 32 bits; a spec or horizon outside that
/// range is refused before the run instead of wrapping.
TEST(ClusterSim, RejectsTimesBeyond32Bits) {
  constexpr util::TimeSec kTooFar =
      util::TimeSec{std::numeric_limits<std::int32_t>::max()} + 1;
  {
    ClusterSim sim(one_machine(), quiet_config(100));
    EXPECT_THROW(sim.run({simple_task(1, 0, kTooFar)}), util::Error);
  }
  {
    ClusterSim sim(one_machine(), quiet_config(100));
    TaskSpec spec = simple_task(1, 0, 10);
    spec.fate = TaskEventType::kFail;
    spec.abnormal_after = kTooFar;
    EXPECT_THROW(sim.run({spec}), util::Error);
  }
  {
    ClusterSim sim(one_machine(), quiet_config(100));
    EXPECT_THROW(sim.run({simple_task(1, -kTooFar - 1, 10)}), util::Error);
  }
  {
    ClusterSim sim(one_machine(), quiet_config(kTooFar));
    EXPECT_THROW(sim.run({simple_task(1, 0, 10)}), util::Error);
  }
  // The largest representable duration still runs.
  ClusterSim sim(one_machine(), quiet_config(100));
  sim.run({simple_task(1, 0, kTooFar - 1)});
  EXPECT_EQ(sim.stats().running_at_horizon, 1);
}

TEST(ClusterSim, DeterministicAcrossRuns) {
  Workload workload;
  for (int i = 0; i < 20; ++i) {
    TaskSpec spec = simple_task(i + 1, i * 100, 400);
    spec.cpu_request = 0.1f;
    spec.mem_request = 0.1f;
    workload.push_back(spec);
  }
  SimConfig config;
  config.horizon = 7200;
  config.seed = 99;
  ClusterSim sim1(one_machine(), config);
  ClusterSim sim2(one_machine(), config);
  const trace::TraceSet out1 = sim1.run(workload);
  const trace::TraceSet out2 = sim2.run(workload);
  ASSERT_EQ(out1.events().size(), out2.events().size());
  const trace::HostLoadSeries* h1 = out1.host_load_for(1);
  const trace::HostLoadSeries* h2 = out2.host_load_for(1);
  ASSERT_EQ(h1->size(), h2->size());
  for (std::size_t i = 0; i < h1->size(); ++i) {
    EXPECT_FLOAT_EQ(h1->cpu_total(i), h2->cpu_total(i));
  }
}

/// Placement policy sweep: each policy schedules everything on an
/// underloaded cluster and respects capacity on an overloaded one.
class PlacementPolicyTest
    : public ::testing::TestWithParam<PlacementPolicy> {};

TEST_P(PlacementPolicyTest, SchedulesAllAndStaysValid) {
  std::vector<Machine> machines;
  for (int i = 0; i < 4; ++i) {
    Machine m;
    m.machine_id = i + 1;
    m.cpu_capacity = i % 2 == 0 ? 0.5f : 1.0f;
    m.mem_capacity = 0.5f;
    machines.push_back(m);
  }
  SimConfig config = quiet_config(4 * util::kSecondsPerHour);
  config.placement = GetParam();
  Workload workload;
  for (int i = 0; i < 60; ++i) {
    TaskSpec spec = simple_task(i + 1, i * 30, 900);
    spec.cpu_request = 0.08f;
    spec.mem_request = 0.05f;
    workload.push_back(spec);
  }
  ClusterSim sim(machines, config);
  const trace::TraceSet out = sim.run(workload);
  EXPECT_EQ(sim.stats().scheduled, 60);
  EXPECT_EQ(sim.stats().finished, 60);
  EXPECT_TRUE(trace::validate(out).empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PlacementPolicyTest,
    ::testing::Values(PlacementPolicy::kBalanced, PlacementPolicy::kBestFit,
                      PlacementPolicy::kWorstFit, PlacementPolicy::kFirstFit,
                      PlacementPolicy::kRandom),
    [](const auto& info) {
      std::string name(placement_name(info.param));
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(ClusterSim, PlacementConstraintsAreRespected) {
  std::vector<Machine> machines;
  for (int i = 0; i < 2; ++i) {
    Machine m;
    m.machine_id = i + 1;
    m.attributes = i == 0 ? trace::kAttrLocalSsd : 0;
    machines.push_back(m);
  }
  SimConfig config = quiet_config(3600);
  config.placement = PlacementPolicy::kWorstFit;  // would prefer spreading
  ClusterSim sim(machines, config);
  Workload workload;
  for (int i = 0; i < 2; ++i) {
    TaskSpec spec = simple_task(i + 1, 0, 1000);
    spec.required_attributes = trace::kAttrLocalSsd;
    workload.push_back(spec);
  }
  const trace::TraceSet out = sim.run(workload);
  // Both tasks must land on machine 1 despite the spreading policy.
  for (const trace::Task& t : out.tasks()) {
    EXPECT_EQ(t.machine_id, 1);
  }
}

TEST(ClusterSim, UnsatisfiableConstraintNeverSchedules) {
  ClusterSim sim(one_machine(), quiet_config(3600));  // no attributes
  TaskSpec spec = simple_task(1, 0, 100);
  spec.required_attributes = trace::kAttrExternalIp;
  const trace::TraceSet out = sim.run({spec});
  EXPECT_EQ(sim.stats().scheduled, 0);
  EXPECT_EQ(sim.stats().never_scheduled, 1);
  ASSERT_EQ(out.tasks().size(), 1u);
  EXPECT_EQ(out.tasks()[0].schedule_time, -1);
}

TEST(ClusterSim, ConstraintBlocksPreemptionToo) {
  // A high-priority constrained task must not evict tasks from a
  // machine that cannot satisfy its constraint.
  SimConfig config = quiet_config(3600);
  ClusterSim sim(one_machine(), config);
  TaskSpec low = simple_task(1, 0, 2000);
  low.priority = 1;
  low.mem_request = 0.7f;
  TaskSpec high = simple_task(2, 300, 200);
  high.priority = 12;
  high.mem_request = 0.7f;
  high.required_attributes = trace::kAttrHighMemNode;
  sim.run({low, high});
  EXPECT_EQ(sim.stats().evicted, 0);
}

TEST(ClusterSim, BalancedSpreadsAndFirstFitPacks) {
  std::vector<Machine> machines;
  for (int i = 0; i < 2; ++i) {
    Machine m;
    m.machine_id = i + 1;
    m.cpu_capacity = 1.0f;
    m.mem_capacity = 1.0f;
    machines.push_back(m);
  }
  Workload workload;
  for (int i = 0; i < 2; ++i) {
    TaskSpec spec = simple_task(i + 1, 0, 2000);
    spec.cpu_request = 0.2f;
    spec.mem_request = 0.2f;
    workload.push_back(spec);
  }
  SimConfig balanced = quiet_config(3600);
  balanced.placement = PlacementPolicy::kBalanced;
  ClusterSim sim_b(machines, balanced);
  const trace::TraceSet out_b = sim_b.run(workload);
  // Balanced: one task per machine.
  EXPECT_EQ(out_b.host_load_for(1)->running(2), 1);
  EXPECT_EQ(out_b.host_load_for(2)->running(2), 1);

  SimConfig first = quiet_config(3600);
  first.placement = PlacementPolicy::kFirstFit;
  ClusterSim sim_f(machines, first);
  const trace::TraceSet out_f = sim_f.run(workload);
  // First-fit: both on machine 1.
  EXPECT_EQ(out_f.host_load_for(1)->running(2), 2);
  EXPECT_EQ(out_f.host_load_for(2)->running(2), 0);
}

}  // namespace
}  // namespace cgc::sim
