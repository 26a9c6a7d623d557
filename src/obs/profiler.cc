#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "obs/flight_recorder.h"

namespace samya::obs {

namespace {

struct TypeRow {
  uint32_t type;
  uint64_t count;
  int64_t ns;
};

}  // namespace

static std::vector<TypeRow> SortedRows(const uint64_t* counts,
                                       const int64_t* ns, uint32_t slots) {
  std::vector<TypeRow> rows;
  for (uint32_t i = 0; i < slots; ++i) {
    if (counts[i] > 0) rows.push_back({i, counts[i], ns[i]});
  }
  std::sort(rows.begin(), rows.end(), [](const TypeRow& a, const TypeRow& b) {
    if (a.ns != b.ns) return a.ns > b.ns;
    return a.type < b.type;
  });
  return rows;
}

JsonValue EventLoopProfiler::ToJson() const {
  JsonValue out = JsonValue::MakeObject();
  out.Set("events", static_cast<int64_t>(events_));
  out.Set("loop_ns", loop_ns_);
  out.Set("timer_count", static_cast<int64_t>(timer_count_));
  out.Set("timer_ns", timer_ns_);

  int64_t attributed = timer_ns_;
  JsonValue by_type = JsonValue::MakeArray();
  for (const TypeRow& row : SortedRows(type_count_, type_ns_, kTypeSlots)) {
    attributed += row.ns;
    JsonValue t = JsonValue::MakeObject();
    t.Set("type", static_cast<int64_t>(row.type));
    t.Set("name", MessageTypeName(row.type));
    t.Set("count", static_cast<int64_t>(row.count));
    t.Set("ns", row.ns);
    by_type.Append(std::move(t));
  }
  out.Set("other_ns", loop_ns_ > attributed ? loop_ns_ - attributed : 0);
  out.Set("by_type", std::move(by_type));
  return out;
}

std::string EventLoopProfiler::Report() const {
  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line),
                "event loop: %llu events, %.1f ms wall (%.0f ns/event)\n",
                static_cast<unsigned long long>(events_), loop_ns_ / 1e6,
                events_ > 0 ? static_cast<double>(loop_ns_) / events_ : 0.0);
  out += line;
  std::snprintf(line, sizeof(line), "  %-24s %12s %12s %10s\n", "handler",
                "count", "wall ms", "ns/call");
  out += line;

  auto row_line = [&](const char* name, uint64_t count, int64_t ns) {
    std::snprintf(line, sizeof(line), "  %-24s %12llu %12.2f %10.0f\n", name,
                  static_cast<unsigned long long>(count), ns / 1e6,
                  count > 0 ? static_cast<double>(ns) / count : 0.0);
    out += line;
  };

  int64_t attributed = timer_ns_;
  for (const TypeRow& row : SortedRows(type_count_, type_ns_, kTypeSlots)) {
    attributed += row.ns;
    row_line(MessageTypeName(row.type), row.count, row.ns);
  }
  if (timer_count_ > 0) row_line("timer", timer_count_, timer_ns_);
  int64_t other = loop_ns_ - attributed;
  if (other > 0 && events_ > 0) {
    std::snprintf(line, sizeof(line), "  %-24s %12s %12.2f %10s\n", "other",
                  "-", other / 1e6, "-");
    out += line;
  }
  return out;
}

}  // namespace samya::obs
