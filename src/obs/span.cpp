#include "obs/span.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <ostream>
#include <vector>

#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/mutex.hpp"

namespace cgc::obs {
namespace {

/// One finished span, ready for export.
struct SpanEvent {
  std::string name;
  std::uint32_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Per-thread event buffer. Its mutex is uncontended in steady state —
/// the owning thread appends; only export_now() contends, briefly.
struct ThreadBuffer {
  util::Mutex mutex;
  std::uint32_t tid = 0;  // written once at registration, then read-only
  std::vector<SpanEvent> events CGC_GUARDED_BY(mutex);
};

/// All buffers ever created, kept alive past thread exit by shared
/// ownership so export after a pool shuts down still sees its spans.
struct BufferRegistry {
  util::Mutex mutex;
  std::uint32_t next_tid CGC_GUARDED_BY(mutex) = 1;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers CGC_GUARDED_BY(mutex);
};

/// Leaked: export runs from atexit and must not race static teardown.
BufferRegistry& buffer_registry() {
  static auto* r = new BufferRegistry;
  return *r;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    BufferRegistry& r = buffer_registry();
    util::MutexLock lock(r.mutex);
    b->tid = r.next_tid++;
    r.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

void write_us(std::ostream& out, std::uint64_t ns) {
  // Microseconds with nanosecond precision kept in the fraction.
  out << ns / 1000 << '.';
  char frac[4];
  std::snprintf(frac, sizeof frac, "%03u",
                static_cast<unsigned>(ns % 1000));
  out << frac;
}

}  // namespace

namespace detail {

void record_span(std::string name, std::uint64_t start_ns,
                 std::uint64_t dur_ns) {
  ThreadBuffer& b = local_buffer();
  util::MutexLock lock(b.mutex);
  b.events.push_back(SpanEvent{std::move(name), b.tid, start_ns, dur_ns});
}

}  // namespace detail

void write_chrome_trace(std::ostream& out) {
  std::vector<SpanEvent> events;
  {
    BufferRegistry& r = buffer_registry();
    util::MutexLock registry_lock(r.mutex);
    for (const auto& buffer : r.buffers) {
      util::MutexLock buffer_lock(buffer->mutex);
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.tid < b.tid;
            });
  std::uint64_t origin_ns = events.empty() ? 0 : events.front().start_ns;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  const char* sep = "";
  for (const SpanEvent& e : events) {
    out << sep << "\n{\"name\": \"" << util::json::escape(e.name)
        << "\", \"cat\": \"cgc\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << e.tid << ", \"ts\": ";
    write_us(out, e.start_ns - origin_ns);
    out << ", \"dur\": ";
    write_us(out, e.dur_ns);
    out << "}";
    sep = ",";
  }
  out << "\n]}\n";
}

ScopedTimer::ScopedTimer(const char* name) : name_(name) {
  if (metrics_enabled()) {
    histogram_ = &histogram(name_);
  }
  span_armed_ = trace_enabled();
  if (histogram_ != nullptr || span_armed_) {
    start_ns_ = now_ns();
  }
}

ScopedTimer::~ScopedTimer() {
  if (histogram_ == nullptr && !span_armed_) {
    return;
  }
  const std::uint64_t dur_ns = now_ns() - start_ns_;
  if (histogram_ != nullptr) {
    histogram_->observe(dur_ns);
  }
  if (span_armed_) {
    detail::record_span(name_, start_ns_, dur_ns);
  }
}

}  // namespace cgc::obs
