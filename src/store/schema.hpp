// The CGCS column schema: the one place the on-disk column layout lives.
//
// Each section is a compile-time list of (ColumnId, Encoding, field) in
// file order. write_cgcs() writes a section's chunks by walking its list
// (column by column, each column's row groups in row order);
// StoreReader decodes tasks/events row groups with one fused pass over
// the same list and scatters the other sections' chunks through it. A
// chunk whose (section, column) the schema does not list, or whose
// encoding differs from the schema's, is refused on read. Changing the
// layout means editing a list here — and bumping kFormatVersion.
//
// Row sections name a field of their record struct. Host load is stored
// flattened series-major, so its entries name a HostLoadSeries sample
// column, which both sides reach as a span.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "store/cgcs_format.hpp"
#include "trace/host_load.hpp"
#include "trace/types.hpp"

namespace cgc::store::schema {

/// Field `M` of a record struct (a pointer to data member).
template <auto M>
struct Field;
template <typename Row, typename T, T Row::*M>
struct Field<M> {
  using type = T;
  static T& of(Row& row) { return row.*M; }
  static const T& of(const Row& row) { return row.*M; }
};

/// HostLoadSeries sample columns, as spans over one series' samples.
template <trace::PriorityBand B>
struct CpuSamples {
  using type = float;
  static auto of(auto& series) { return series.cpu_samples(B); }
};
template <trace::PriorityBand B>
struct MemSamples {
  using type = float;
  static auto of(auto& series) { return series.mem_samples(B); }
};
struct MemAssignedSamples {
  using type = float;
  static auto of(auto& series) { return series.mem_assigned_samples(); }
};
struct PageCacheSamples {
  using type = float;
  static auto of(auto& series) { return series.page_cache_samples(); }
};
struct RunningSamples {
  using type = std::int32_t;
  static auto of(auto& series) { return series.running_samples(); }
};
struct PendingSamples {
  using type = std::int32_t;
  static auto of(auto& series) { return series.pending_samples(); }
};

/// One column: its on-disk id, its encoding, and the field it stores.
template <ColumnId Id, Encoding Enc, typename F>
struct Column {
  static constexpr ColumnId id = Id;
  static constexpr Encoding encoding = Enc;
  using field = F;
  /// The type one row's value takes in a chunk: raw encodings are
  /// arrays of it, integer encodings decode to it.
  using stored = std::conditional_t<
      Enc == Encoding::kRawF32, float,
      std::conditional_t<Enc == Encoding::kRawU8, std::uint8_t,
                         std::int64_t>>;
  /// True for the columns holding a trace::TaskEventType, which the
  /// reader range-checks like a CRC.
  static constexpr bool event_type =
      std::is_same_v<typename F::type, trace::TaskEventType>;
};

/// A section: its id, its row type, and its columns in file order.
template <SectionId S, typename Row, typename... Cols>
struct Section {
  static constexpr SectionId id = S;
  using row = Row;
  /// The column ids, in file order.
  static constexpr ColumnId ids[] = {Cols::id...};
  /// Calls fn(Cols{}...) with the whole column list, in file order.
  template <typename Fn>
  static constexpr void apply(Fn&& fn) {
    fn(Cols{}...);
  }
};

template <ColumnId Id, Encoding Enc, auto M>
using RowColumn = Column<Id, Enc, Field<M>>;

using trace::Job;
using trace::Machine;
using trace::PriorityBand;
using trace::Task;
using trace::TaskEvent;
using enum ColumnId;
using enum Encoding;

// Sorted columns use delta+varint: jobs are submit-time sorted, tasks
// (job_id, task_index) sorted and events time sorted after finalize().
using Jobs = Section<SectionId::kJobs, Job,
    RowColumn<kJobId, kVarint, &Job::job_id>,
    RowColumn<kUserId, kVarint, &Job::user_id>,
    RowColumn<kPriority, kRawU8, &Job::priority>,
    RowColumn<kSubmitTime, kDeltaVarint, &Job::submit_time>,
    RowColumn<kEndTime, kVarint, &Job::end_time>,
    RowColumn<kNumTasks, kVarint, &Job::num_tasks>,
    RowColumn<kCpuParallelism, kRawF32, &Job::cpu_parallelism>,
    RowColumn<kMemUsage, kRawF32, &Job::mem_usage>>;

using Tasks = Section<SectionId::kTasks, Task,
    RowColumn<kJobId, kDeltaVarint, &Task::job_id>,
    RowColumn<kTaskIndex, kVarint, &Task::task_index>,
    RowColumn<kPriority, kRawU8, &Task::priority>,
    RowColumn<kSubmitTime, kVarint, &Task::submit_time>,
    RowColumn<kScheduleTime, kVarint, &Task::schedule_time>,
    RowColumn<kEndTime, kVarint, &Task::end_time>,
    RowColumn<kEndEvent, kRawU8, &Task::end_event>,
    RowColumn<kMachineId, kVarint, &Task::machine_id>,
    RowColumn<kResubmits, kVarint, &Task::resubmits>,
    RowColumn<kCpuRequest, kRawF32, &Task::cpu_request>,
    RowColumn<kMemRequest, kRawF32, &Task::mem_request>,
    RowColumn<kCpuUsage, kRawF32, &Task::cpu_usage>,
    RowColumn<kMemUsage, kRawF32, &Task::mem_usage>>;

using Events = Section<SectionId::kEvents, TaskEvent,
    RowColumn<kTime, kDeltaVarint, &TaskEvent::time>,
    RowColumn<kJobId, kVarint, &TaskEvent::job_id>,
    RowColumn<kTaskIndex, kVarint, &TaskEvent::task_index>,
    RowColumn<kMachineId, kVarint, &TaskEvent::machine_id>,
    RowColumn<kEventType, kRawU8, &TaskEvent::type>,
    RowColumn<kPriority, kRawU8, &TaskEvent::priority>>;

using Machines = Section<SectionId::kMachines, Machine,
    RowColumn<kMachineId, kVarint, &Machine::machine_id>,
    RowColumn<kCpuCapacity, kRawF32, &Machine::cpu_capacity>,
    RowColumn<kMemCapacity, kRawF32, &Machine::mem_capacity>,
    RowColumn<kPageCacheCapacity, kRawF32, &Machine::page_cache_capacity>,
    RowColumn<kAttributes, kRawU8, &Machine::attributes>>;

using HostLoad = Section<SectionId::kHostLoad, trace::HostLoadSeries,
    Column<kCpuLow, kRawF32, CpuSamples<PriorityBand::kLow>>,
    Column<kCpuMid, kRawF32, CpuSamples<PriorityBand::kMid>>,
    Column<kCpuHigh, kRawF32, CpuSamples<PriorityBand::kHigh>>,
    Column<kMemLow, kRawF32, MemSamples<PriorityBand::kLow>>,
    Column<kMemMid, kRawF32, MemSamples<PriorityBand::kMid>>,
    Column<kMemHigh, kRawF32, MemSamples<PriorityBand::kHigh>>,
    Column<kMemAssigned, kRawF32, MemAssignedSamples>,
    Column<kPageCache, kRawF32, PageCacheSamples>,
    Column<kRunning, kVarint, RunningSamples>,
    Column<kPending, kVarint, PendingSamples>>;

/// Calls fn(Jobs{}), fn(Tasks{}), ... in file (and SectionId) order.
template <typename Fn>
constexpr void for_each_section(Fn&& fn) {
  fn(Jobs{});
  fn(Tasks{});
  fn(Events{});
  fn(Machines{});
  fn(HostLoad{});
}

/// What the schema says about one (section, column) pair.
struct ColumnSpec {
  bool listed = false;
  Encoding encoding = Encoding::kVarint;
  bool event_type = false;
};

/// The schema's entry for `column` in `section`; a column the section
/// does not list (an id past the enum included) reads as not listed.
constexpr ColumnSpec column_spec(SectionId section, ColumnId column) {
  ColumnSpec spec;
  const auto visit = [&](auto c) {
    if (decltype(c)::id == column) {
      spec = {true, decltype(c)::encoding, decltype(c)::event_type};
    }
  };
  for_each_section([&](auto s) {
    if (decltype(s)::id == section) {
      decltype(s)::apply([&](auto... c) { (visit(c), ...); });
    }
  });
  return spec;
}

/// The host-load section's rows: the series' samples flattened
/// series-major, so series s owns flat rows [offsets[s], offsets[s+1]).
/// `Series` is const HostLoadSeries when writing, HostLoadSeries when
/// reading.
template <typename Series>
struct HostLoadRows {
  explicit HostLoadRows(std::span<Series> all) : series(all) {
    offsets.reserve(all.size() + 1);
    offsets.push_back(0);
    for (const trace::HostLoadSeries& h : all) {
      offsets.push_back(offsets.back() + h.size());
    }
  }

  std::size_t size() const { return offsets.back(); }

  /// Calls fn(series, first_sample, count) for each non-empty piece of
  /// flat rows [lo, hi), in row order. Needs hi <= size().
  template <typename Fn>
  void for_each_slice(std::uint64_t lo, std::uint64_t hi, Fn&& fn) const {
    auto s = static_cast<std::size_t>(
        std::upper_bound(offsets.begin(), offsets.end(), lo) -
        offsets.begin() - 1);
    for (; lo < hi; ++s) {
      const std::uint64_t end = std::min(hi, offsets[s + 1]);
      if (end > lo) {
        fn(series[s], lo - offsets[s], end - lo);
      }
      lo = end;
    }
  }

  std::span<Series> series;
  std::vector<std::uint64_t> offsets;
};

}  // namespace cgc::store::schema
