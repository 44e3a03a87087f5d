#include "trace/types.hpp"

namespace cgc::trace {

std::string_view event_name(TaskEventType e) {
  switch (e) {
    case TaskEventType::kSubmit:
      return "SUBMIT";
    case TaskEventType::kSchedule:
      return "SCHEDULE";
    case TaskEventType::kEvict:
      return "EVICT";
    case TaskEventType::kFail:
      return "FAIL";
    case TaskEventType::kFinish:
      return "FINISH";
    case TaskEventType::kKill:
      return "KILL";
    case TaskEventType::kLost:
      return "LOST";
    case TaskEventType::kUpdate:
      return "UPDATE";
  }
  return "?";
}

std::string_view state_name(TaskState s) {
  switch (s) {
    case TaskState::kUnsubmitted:
      return "UNSUBMITTED";
    case TaskState::kPending:
      return "PENDING";
    case TaskState::kRunning:
      return "RUNNING";
    case TaskState::kDead:
      return "DEAD";
  }
  return "?";
}

}  // namespace cgc::trace
