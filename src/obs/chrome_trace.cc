#include "src/obs/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>

#include "src/common/json_writer.h"

namespace midway {
namespace obs {
namespace {

// Trace Event Format timestamps are microseconds; keep nanosecond resolution as a
// three-decimal fraction so back-to-back protocol steps do not collapse onto one tick.
std::string Micros(uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03u", static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}

}  // namespace

std::string ChromeTraceJson(std::vector<ChromeTraceEvent> events, int num_nodes) {
  std::sort(events.begin(), events.end(),
            [](const ChromeTraceEvent& a, const ChromeTraceEvent& b) {
              return std::tie(a.start_ns, a.lamport, a.node, a.sequence) <
                     std::tie(b.start_ns, b.lamport, b.node, b.sequence);
            });
  uint64_t base_ns = events.empty() ? 0 : events.front().start_ns;

  JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();
  for (int node = 0; node < num_nodes; ++node) {
    w.BeginObject().Field("ph", "M").Field("pid", 0).Field("tid", node);
    w.Field("name", "thread_name").Key("args").BeginObject();
    w.Field("name", "node " + std::to_string(node)).EndObject().EndObject();
    w.BeginObject().Field("ph", "M").Field("pid", 0).Field("tid", node);
    w.Field("name", "thread_sort_index").Key("args").BeginObject();
    w.Field("sort_index", node).EndObject().EndObject();
  }
  for (const ChromeTraceEvent& e : events) {
    const bool span = e.dur_ns > 0;
    w.BeginObject().Field("name", e.name).Field("ph", span ? "X" : "i");
    w.Field("pid", 0).Field("tid", e.node).Key("ts").RawNumber(Micros(e.start_ns - base_ns));
    if (span) {
      w.Key("dur").RawNumber(Micros(e.dur_ns));
    } else {
      w.Field("s", "t");  // instant scoped to its thread (track)
    }
    w.Key("args").BeginObject().Field("lamport", e.lamport).Field("object", e.object);
    if (e.peer >= 0) w.Field("peer", e.peer);
    if (e.detail_label != nullptr) w.Field(e.detail_label, e.detail);
    w.EndObject().EndObject();
  }
  w.EndArray().Field("displayTimeUnit", "ns").EndObject();
  return w.str();
}

}  // namespace obs
}  // namespace midway
