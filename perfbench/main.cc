// samya_perfbench — the measuring half of the repository benchmark.
//
// Usage:
//   samya_perfbench --workload fig3b|contended-rw|real-loopback --seed N
//                   --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints a human summary on stderr and, as the last line of stdout, one
// JSON object: {"attempted", "failed", "metrics", "gates", "facts"}.
// perfbench/run.py builds this binary, runs it, adds the cross-check
// against samya_bench, and turns the gates into the final verdict.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "perfbench.h"

namespace perfbench {

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out->push_back('\\');
    out->push_back(ch);
  }
  out->push_back('"');
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::ToJson() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(&out, metrics[i].name);
    out += ":{\"value\":" + FormatNumber(metrics[i].value) + ",\"unit\":";
    AppendJsonString(&out, metrics[i].unit);
    out += "}";
  }
  out += "},\"gates\":{";
  for (size_t i = 0; i < gates.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(&out, gates[i].first);
    out += gates[i].second ? ":true" : ":false";
  }
  out += "},\"facts\":{";
  for (size_t i = 0; i < facts.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(&out, facts[i].first);
    out += ":";
    AppendJsonString(&out, facts[i].second);
  }
  out += "}}";
  return out;
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

void AddRtLayersNotExercised(Report* out) {
  for (const char* name :
       {"rt.cpu_us_per_op", "rt.self_cpu_us_per_op", "rt.site.handler_us_per_op",
        "rt.am.handler_us_per_op", "rt.client.handler_us_per_op"}) {
    out->Add(name, 0, "us");
  }
  out->Add("rt.issue_lag_p50_ms", 0, "ms");
  out->Add("rt.issue_lag_p99_ms", 0, "ms");
  out->Add("rt.added_latency_p50_ms", 0, "ms");
  out->Add("rt.msgs_per_op", 0, "count");
  out->Add("rt.frames_rejected", 0, "count");
  out->Fact("rt_layers", "not exercised: this workload never starts the real backend");
}

void WriteSpans(const Args& args, const SpanRecorder& rec) {
  if (args.out_dir.empty()) return;
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".spans.jsonl";
  const size_t n = rec.WriteJsonLines(path);
  std::fprintf(stderr, "spans: %zu written to %s\n", n, path.c_str());
}

}  // namespace perfbench

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: samya_perfbench --workload fig3b|contended-rw|"
               "real-loopback --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (args.seconds <= 0) {
    Usage();
    return 2;
  }
  samya::Logger::set_level(samya::LogLevel::kWarn);

  perfbench::Report report;
  if (args.workload == "fig3b" || args.workload == "contended-rw") {
    report = perfbench::RunSimWorkload(args);
  } else if (args.workload == "real-loopback") {
    report = perfbench::RunRealLoopback(args);
  } else {
    Usage();
    return 2;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
