#include "perfbench/src/trace.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

void Trace::Host(const char* layer, const char* call, uint64_t id, uint64_t begin_ns,
                 uint64_t end_ns) {
  if (host_origin_ == 0) {
    host_origin_ = begin_ns;
  }
  if (std::strcmp(layer, "core") != 0 && op_events_++ >= kMaxOpEvents) {
    dropped_++;
    return;
  }
  events_.push_back(Event{call, layer, id, false, begin_ns - host_origin_, end_ns - host_origin_});
}

void Trace::Sim(const std::string& name, uint64_t id, uint64_t begin, uint64_t end) {
  events_.push_back(Event{name, "sim", id, true, begin, end < begin ? begin : end});
}

bool Trace::WriteChromeJson(const std::string& path, const std::string& label) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":\"%s\",\"dropped\":%llu},",
               label.c_str(), static_cast<unsigned long long>(dropped_));
  std::fprintf(f, "\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"host clock (benchmark layer calls)\"}},\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,"
               "\"args\":{\"name\":\"sim clock (program phase spans)\"}}");
  for (const Event& e : events_) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                 e.name.c_str(), e.layer, e.sim ? 2 : 1, static_cast<double>(e.begin) / 1000.0,
                 static_cast<double>(e.end - e.begin) / 1000.0,
                 static_cast<unsigned long long>(e.id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
