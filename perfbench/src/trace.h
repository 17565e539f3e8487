// Benchmark-side trace: one span per layer call the benchmark makes (timed on
// the host clock), merged with the program's own simulated-time phase spans
// (SpanTracer). Spans belonging to one checkpoint share its id. Kept in
// memory and written once, as Chrome trace-event JSON (chrome://tracing,
// Perfetto), with host spans under pid 1 and simulated spans under pid 2.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Trace {
 public:
  // Host span [begin_ns, end_ns) on the host clock.
  void Host(const char* layer, const char* call, uint64_t id, uint64_t begin_ns,
            uint64_t end_ns);
  // Simulated span [begin, end) in simulated nanoseconds.
  void Sim(const std::string& name, uint64_t id, uint64_t begin, uint64_t end);

  size_t size() const { return events_.size(); }
  uint64_t dropped() const { return dropped_; }

  // Writes the trace; false if the file cannot be written.
  [[nodiscard]] bool WriteChromeJson(const std::string& path, const std::string& label) const;

 private:
  // A traced kv_periodic round makes close to a million application calls.
  // Past this many, per-operation host spans (apps, vm, posix) are counted
  // as dropped instead of stored; checkpoint, restore and simulated phase
  // spans are always kept, so every checkpoint stays complete in the trace.
  static constexpr size_t kMaxOpEvents = 50000;

  struct Event {
    std::string name;
    const char* layer;
    uint64_t id;
    bool sim;
    uint64_t begin;  // ns on the span's own clock
    uint64_t end;
  };
  std::vector<Event> events_;
  uint64_t dropped_ = 0;
  size_t op_events_ = 0;
  uint64_t host_origin_ = 0;  // first host timestamp, so host spans start near 0
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
