// samya_postmortem — capture, render, diff, and export post-mortem bundles.
//
// A bundle ("samya-postmortem-v1", written by samya_search or this tool's
// capture command) is the self-contained record of one run: the reproducer
// case, the violation list, a metrics snapshot, and the flight-recorder
// history (DESIGN.md §8). Spans, message flights and every table below are
// derived from that history.
//
// Subcommands:
//   capture --case FILE [--out FILE]
//     Re-runs a chaos or explore corpus case (auto-detected from its
//     "format" field) with the flight recorder armed and dumps the bundle
//     (default: "<case>_postmortem.json"). Works on clean cases too — a
//     clean bundle is the baseline side of a diff.
//   capture --out FILE [--system NAME] [--duration-s N] [--sites N]
//           [--max-tokens N] [--seed N] [--read-ratio X] [--load-scale X]
//     Runs one experiment with every obs component on (metrics, profiler,
//     an unbounded flight recorder) and writes its bundle.
//   report FILE [--last N] [--site S]
//     Span latency by name, the slowest rounds with their phases, message
//     counts / drops / in-flight / flight time by type, Avantan messages per
//     leader round (the Table 3 view), then the causally-ordered timeline
//     (canonical (at, site, seq) order). --last N keeps the N timeline
//     events up to and including the first violation marker (end of history
//     when none); --site S filters the timeline to one site's lane.
//   diff A B
//     First-divergence comparison of two bundles' protocol histories,
//     after trimming both to max(complete_from). Exit 0 when identical,
//     1 at the first divergent event (printed with its index).
//   export FILE [--out FILE]
//     Chrome trace-event JSON ("<FILE minus .json>_perfetto.json" by
//     default), loadable in ui.perfetto.dev: spans, message flights, and
//     every other flight event as an instant.
//
// Exit status: 0 ok / histories identical, 1 diff divergence, 2 usage or
// I/O error.
//
// Examples:
//   samya_postmortem capture --case tests/integration/chaos_corpus/x.json
//   samya_postmortem capture --system samya_any --duration-s 60 --out b.json
//   samya_postmortem report /tmp/corpus/chaos_..._postmortem.json --last 40
//   samya_postmortem diff clean_postmortem.json mutated_postmortem.json

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "harness/postmortem.h"

using namespace samya;           // NOLINT — tool code
using namespace samya::harness;  // NOLINT

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: samya_postmortem capture --case FILE [--out FILE]\n"
      "       samya_postmortem capture --out FILE [--system NAME]\n"
      "                        [--duration-s N] [--sites N] [--max-tokens N]\n"
      "                        [--seed N] [--read-ratio X] [--load-scale X]\n"
      "       samya_postmortem report FILE [--last N] [--site S]\n"
      "       samya_postmortem diff A B\n"
      "       samya_postmortem export FILE [--out FILE]\n"
      "systems: samya_majority samya_any samya_majority_no_predict\n"
      "         samya_any_no_predict ...\n");
}

[[noreturn]] void UsageExit() {
  Usage();
  std::exit(2);
}

/// The whole of `text` as an integer in [lo, hi]; usage + exit 2 otherwise.
int64_t ParseInt(const char* text, int64_t lo, int64_t hi) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || v < lo || v > hi) {
    UsageExit();
  }
  return v;
}

/// The whole of `text` as a finite number in [lo, hi]; usage + exit 2
/// otherwise.
double ParseReal(const char* text, double lo, double hi) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 || !(v >= lo && v <= hi)) {
    UsageExit();
  }
  return v;
}

/// "<x>.json" -> "<x><suffix>.json"; appends when FILE has no .json tail.
std::string DerivedPath(const std::string& path, const std::string& suffix) {
  std::string base = path;
  if (base.size() > 5 && base.compare(base.size() - 5, 5, ".json") == 0) {
    base.erase(base.size() - 5);
  }
  return base + suffix + ".json";
}

int LoadOrDie(const std::string& path, PostmortemBundle* out) {
  auto loaded = LoadPostmortem(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 loaded.status().message().c_str());
    return 2;
  }
  *out = std::move(loaded.value());
  return 0;
}

int WriteOrDie(const PostmortemBundle& b, const std::string& out_path) {
  const Status st = WritePostmortem(b, out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int RunCaseCapture(const std::string& case_path, std::string out_path) {
  auto replayed = ReplayCaseFile(case_path, "samya_postmortem");
  if (!replayed.ok()) {
    std::fprintf(stderr, "%s: %s\n", case_path.c_str(),
                 replayed.status().message().c_str());
    return 2;
  }
  const CaseReplay& r = replayed.value();
  std::printf("capture: %s case, %s, %zu violation(s)\n", r.kind,
              r.failed_check.empty() ? "clean" : r.failed_check.c_str(),
              r.bundle.violations.size());
  if (out_path.empty()) out_path = DerivedPath(case_path, "_postmortem");
  return WriteOrDie(r.bundle, out_path);
}

int RunExperimentCapture(ExperimentOptions opts, const std::string& out_path) {
  opts.obs = obs::ObsOptions::All();
  Experiment experiment(opts);
  experiment.Setup();
  const ExperimentResult r = experiment.Run();
  std::printf("captured: %llu committed, %llu instances, %llu events\n",
              static_cast<unsigned long long>(r.aggregate.TotalCommitted()),
              static_cast<unsigned long long>(r.instances_completed),
              static_cast<unsigned long long>(r.events_executed));
  return WriteOrDie(
      MakePostmortem("samya_postmortem", /*failed_check=*/"", JsonValue(), r),
      out_path);
}

int RunReport(const std::string& path, int64_t last, int32_t site_filter) {
  PostmortemBundle b;
  if (int rc = LoadOrDie(path, &b); rc != 0) return rc;

  std::printf("bundle: %s\n", path.c_str());
  std::printf("  source: %s\n", b.source.c_str());
  std::printf("  failed check: %s\n",
              b.failed_check.empty() ? "(none — clean run)"
                                     : b.failed_check.c_str());
  std::printf("  violations: %zu (+%llu dropped past the auditor cap)\n",
              b.violations.size(),
              static_cast<unsigned long long>(b.dropped_violations));
  for (const AuditViolation& v : b.violations) {
    std::printf("    t=%s [%s] %s\n", FormatDuration(v.at).c_str(),
                v.check.c_str(), v.detail.c_str());
  }

  auto events = FlightEventsOf(b);
  if (!events.ok()) {
    std::fprintf(stderr, "bad flight section: %s\n",
                 events.status().message().c_str());
    return 2;
  }
  if (events.value().empty()) {
    std::printf("  (no flight history)\n");
    return 0;
  }
  std::vector<obs::FlightEvent> evs = std::move(events.value());
  const FlightViews views = FlightViewsOf(b, evs);
  for (const auto& [id, name] : views.nodes) {
    std::printf("  node %d: %s\n", id, name.c_str());
  }
  std::printf("\n%s\n", RenderFlightViews(views).c_str());

  if (site_filter >= 0) {
    size_t keep = 0;
    for (const obs::FlightEvent& ev : evs) {
      if (ev.site == site_filter) evs[keep++] = ev;
    }
    evs.resize(keep);
  }
  // The tail that matters: everything up to and including the first
  // violation marker (end of history when the bundle carries none).
  size_t end = evs.size();
  for (size_t i = 0; i < evs.size(); ++i) {
    if (evs[i].kind == obs::FlightKind::kViolation) {
      end = i + 1;
      break;
    }
  }
  size_t begin = 0;
  if (last > 0 && static_cast<size_t>(last) < end) {
    begin = end - static_cast<size_t>(last);
  }
  const SimTime complete_from = FlightCompleteFrom(b);
  std::printf("  flight: %zu event(s) retained, complete from t=%s\n",
              evs.size(), FormatDuration(complete_from).c_str());
  if (begin > 0) std::printf("  ... %zu earlier event(s) elided\n", begin);
  for (size_t i = begin; i < end; ++i) {
    const bool marker = evs[i].kind == obs::FlightKind::kViolation;
    std::printf("  %s %s\n", marker ? ">>" : "  ",
                FormatFlightEvent(evs[i]).c_str());
  }
  if (end < evs.size()) {
    std::printf("  ... %zu event(s) after the first violation elided\n",
                evs.size() - end);
  }
  return 0;
}

int RunDiff(const std::string& path_a, const std::string& path_b) {
  PostmortemBundle a, b;
  if (int rc = LoadOrDie(path_a, &a); rc != 0) return rc;
  if (int rc = LoadOrDie(path_b, &b); rc != 0) return rc;
  const PostmortemDiff d = DiffPostmortems(a, b);
  if (!d.comparable) {
    std::fprintf(stderr,
                 "bundles are not comparable (a flight section is missing "
                 "or corrupt)\n");
    return 2;
  }
  std::printf("diff: comparing from t=%s (%llu event(s) match)\n",
              FormatDuration(d.compare_from).c_str(),
              static_cast<unsigned long long>(d.compared));
  if (!d.diverged) {
    std::printf("histories identical — no divergence\n");
    return 0;
  }
  std::printf("FIRST DIVERGENCE at canonical index %llu:\n",
              static_cast<unsigned long long>(d.divergence_index));
  std::printf("  a: %s\n", d.event_a.c_str());
  std::printf("  b: %s\n", d.event_b.c_str());
  return 1;
}

int RunExport(const std::string& path, std::string out_path) {
  PostmortemBundle b;
  if (int rc = LoadOrDie(path, &b); rc != 0) return rc;
  if (out_path.empty()) out_path = DerivedPath(path, "_perfetto");
  const Status st = ExportFlightChromeTrace(b, out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string cmd = argv[1];
  constexpr int64_t kIntMax = std::numeric_limits<int32_t>::max();
  std::vector<std::string> positional;
  std::string case_path;
  std::string out_path;
  int64_t last = 0;
  int32_t site = -1;
  // Experiment capture defaults to 60 s of the Fig 3b run.
  ExperimentOptions opts;
  opts.duration = Seconds(60);
  bool experiment_flags = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) UsageExit();
      return argv[++i];
    };
    const bool experiment_flag =
        arg == "--system" || arg == "--duration-s" || arg == "--sites" ||
        arg == "--max-tokens" || arg == "--seed" || arg == "--read-ratio" ||
        arg == "--load-scale";
    if (experiment_flag) {
      if (cmd != "capture") UsageExit();
      experiment_flags = true;
    }
    if (arg == "--case") {
      case_path = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--last") {
      last = ParseInt(next(), 0, std::numeric_limits<int64_t>::max());
    } else if (arg == "--site") {
      site = static_cast<int32_t>(ParseInt(next(), 0, kIntMax));
    } else if (arg == "--system") {
      const std::string name = next();
      if (!SystemKindFromId(name, &opts.system)) {
        std::fprintf(stderr, "unknown system: %s\n", name.c_str());
        return 2;
      }
    } else if (arg == "--duration-s") {
      opts.duration = Seconds(ParseInt(next(), 1, kIntMax));
    } else if (arg == "--sites") {
      opts.num_sites = static_cast<int>(ParseInt(next(), 1, 1024));
    } else if (arg == "--max-tokens") {
      opts.max_tokens =
          ParseInt(next(), 0, std::numeric_limits<int64_t>::max());
    } else if (arg == "--seed") {
      opts.seed = static_cast<uint64_t>(
          ParseInt(next(), 0, std::numeric_limits<int64_t>::max()));
    } else if (arg == "--read-ratio") {
      opts.read_ratio = ParseReal(next(), 0.0, 1.0);
    } else if (arg == "--load-scale") {
      opts.load_scale =
          ParseReal(next(), 0.0, std::numeric_limits<double>::max());
    } else if (arg == "--help") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      UsageExit();
    } else {
      positional.push_back(arg);
    }
  }

  if (cmd == "capture") {
    if (case_path.empty() && positional.size() == 1) {
      case_path = positional[0];
    }
    if (!case_path.empty() && !experiment_flags) {
      return RunCaseCapture(case_path, out_path);
    }
    if (case_path.empty() && positional.empty() && !out_path.empty()) {
      return RunExperimentCapture(opts, out_path);
    }
    UsageExit();
  }
  if (cmd == "report" && positional.size() == 1) {
    return RunReport(positional[0], last, site);
  }
  if (cmd == "diff" && positional.size() == 2) {
    return RunDiff(positional[0], positional[1]);
  }
  if (cmd == "export" && positional.size() == 1) {
    return RunExport(positional[0], out_path);
  }
  Usage();
  return 2;
}
