// Tests for the core trace data model: priority bands, the task state
// machine, and record helpers.
#include <gtest/gtest.h>

#include "trace/types.hpp"

namespace cgc::trace {
namespace {

TEST(PriorityBands, PaperClustering) {
  EXPECT_EQ(band_of(1), PriorityBand::kLow);
  EXPECT_EQ(band_of(4), PriorityBand::kLow);
  EXPECT_EQ(band_of(5), PriorityBand::kMid);
  EXPECT_EQ(band_of(8), PriorityBand::kMid);
  EXPECT_EQ(band_of(9), PriorityBand::kHigh);
  EXPECT_EQ(band_of(12), PriorityBand::kHigh);
}

TEST(PriorityBands, Names) {
  EXPECT_EQ(band_name(PriorityBand::kLow), "low");
  EXPECT_EQ(band_name(PriorityBand::kMid), "mid");
  EXPECT_EQ(band_name(PriorityBand::kHigh), "high");
}

TEST(Events, TerminalClassification) {
  EXPECT_TRUE(is_terminal(TaskEventType::kFinish));
  EXPECT_TRUE(is_terminal(TaskEventType::kFail));
  EXPECT_TRUE(is_terminal(TaskEventType::kKill));
  EXPECT_TRUE(is_terminal(TaskEventType::kEvict));
  EXPECT_TRUE(is_terminal(TaskEventType::kLost));
  EXPECT_FALSE(is_terminal(TaskEventType::kSubmit));
  EXPECT_FALSE(is_terminal(TaskEventType::kSchedule));
  EXPECT_FALSE(is_terminal(TaskEventType::kUpdate));
}

TEST(Events, AbnormalClassification) {
  EXPECT_FALSE(is_abnormal(TaskEventType::kFinish));
  EXPECT_TRUE(is_abnormal(TaskEventType::kFail));
  EXPECT_TRUE(is_abnormal(TaskEventType::kKill));
  EXPECT_TRUE(is_abnormal(TaskEventType::kEvict));
  EXPECT_TRUE(is_abnormal(TaskEventType::kLost));
  EXPECT_FALSE(is_abnormal(TaskEventType::kSubmit));
}

TEST(Events, Names) {
  EXPECT_EQ(event_name(TaskEventType::kSubmit), "SUBMIT");
  EXPECT_EQ(event_name(TaskEventType::kEvict), "EVICT");
  EXPECT_EQ(event_name(TaskEventType::kLost), "LOST");
}

TEST(StateMachine, PaperFigureOneTransitions) {
  // unsubmitted -> pending -> running -> dead -> pending (resubmit)
  EXPECT_EQ(next_state(TaskState::kUnsubmitted, TaskEventType::kSubmit),
            TaskState::kPending);
  EXPECT_EQ(next_state(TaskState::kPending, TaskEventType::kSchedule),
            TaskState::kRunning);
  EXPECT_EQ(next_state(TaskState::kRunning, TaskEventType::kFail),
            TaskState::kDead);
  EXPECT_EQ(next_state(TaskState::kDead, TaskEventType::kSubmit),
            TaskState::kPending);  // resubmission
}

TEST(StateMachine, EveryTerminalEventLeavesRunning) {
  for (const TaskEventType e :
       {TaskEventType::kEvict, TaskEventType::kFail, TaskEventType::kFinish,
        TaskEventType::kKill, TaskEventType::kLost}) {
    EXPECT_EQ(next_state(TaskState::kRunning, e), TaskState::kDead)
        << event_name(e);
  }
}

TEST(StateMachine, UpdateKeepsState) {
  EXPECT_EQ(next_state(TaskState::kPending, TaskEventType::kUpdate),
            TaskState::kPending);
  EXPECT_EQ(next_state(TaskState::kRunning, TaskEventType::kUpdate),
            TaskState::kRunning);
}

TEST(StateMachine, FailKillAndLostCanEndPendingTasks) {
  EXPECT_EQ(next_state(TaskState::kPending, TaskEventType::kLost),
            TaskState::kDead);
  EXPECT_EQ(next_state(TaskState::kPending, TaskEventType::kKill),
            TaskState::kDead);
  EXPECT_EQ(next_state(TaskState::kPending, TaskEventType::kFail),
            TaskState::kDead);
}

TEST(StateMachine, IllegalTransitionsAreRefused) {
  constexpr std::optional<TaskState> kRefused;
  EXPECT_EQ(next_state(TaskState::kUnsubmitted, TaskEventType::kSchedule),
            kRefused);
  EXPECT_EQ(next_state(TaskState::kPending, TaskEventType::kFinish),
            kRefused);
  EXPECT_EQ(next_state(TaskState::kPending, TaskEventType::kEvict), kRefused);
  EXPECT_EQ(next_state(TaskState::kDead, TaskEventType::kSchedule), kRefused);
  EXPECT_EQ(next_state(TaskState::kRunning, TaskEventType::kSubmit),
            kRefused);
  EXPECT_EQ(next_state(TaskState::kDead, TaskEventType::kKill), kRefused);
  EXPECT_EQ(next_state(TaskState::kUnsubmitted, TaskEventType::kUpdate),
            kRefused);
  // No event takes a running task back to pending, nor any task back
  // to unsubmitted.
  for (std::size_t e = 0; e < kNumTaskEventTypes; ++e) {
    const auto event = static_cast<TaskEventType>(e);
    EXPECT_NE(next_state(TaskState::kRunning, event), TaskState::kPending);
    for (const TaskState s : {TaskState::kPending, TaskState::kRunning,
                              TaskState::kDead}) {
      EXPECT_NE(next_state(s, event), TaskState::kUnsubmitted);
    }
  }
}

TEST(TaskRecord, RunDuration) {
  Task t;
  t.submit_time = 100;
  t.schedule_time = 150;
  t.end_time = 450;
  EXPECT_EQ(t.run_duration(), 300);
  EXPECT_TRUE(t.completed());

  t.end_time = -1;
  EXPECT_EQ(t.run_duration(), 0);
  EXPECT_FALSE(t.completed());

  t.schedule_time = -1;
  t.end_time = 200;
  EXPECT_EQ(t.run_duration(), 0);  // never ran
}

TEST(JobRecord, LengthDefinition) {
  Job j;
  j.submit_time = 1000;
  j.end_time = 4600;
  EXPECT_EQ(j.length(), 3600);
  j.end_time = -1;
  EXPECT_EQ(j.length(), -1);
  EXPECT_FALSE(j.completed());
}

}  // namespace
}  // namespace cgc::trace
