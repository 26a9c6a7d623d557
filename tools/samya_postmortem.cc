// samya_postmortem — render, diff, and export post-mortem bundles.
//
// A bundle ("samya-postmortem-v1", written by samya_search or this tool's
// capture command) is the self-contained record of one violating run: the
// reproducer case, the violation list, a metrics snapshot, and the
// flight-recorder tail (DESIGN.md §13).
//
// Subcommands:
//   capture --case FILE [--out FILE]
//     Re-runs a chaos or explore corpus case (auto-detected from its
//     "format" field) with the flight recorder armed and dumps the bundle
//     (default: "<case>_postmortem.json"). Works on clean cases too — a
//     clean bundle is the baseline side of a diff.
//   report FILE [--last N] [--site S]
//     Causally-ordered timeline of the flight history (canonical
//     (at, site, seq) order). --last N keeps the N events up to and
//     including the first violation marker (end of history when none);
//     --site S filters to one site's lane.
//   diff A B
//     First-divergence comparison of two bundles' protocol histories,
//     after trimming both to max(complete_from). Exit 0 when identical,
//     1 at the first divergent event (printed with its index).
//   export FILE [--out FILE]
//     Chrome trace-event JSON of the flight history ("<FILE minus
//     .json>_perfetto.json" by default), loadable in ui.perfetto.dev.
//
// Exit status: 0 ok / histories identical, 1 diff divergence, 2 usage or
// I/O error.
//
// Examples:
//   samya_postmortem capture --case tests/integration/chaos_corpus/x.json
//   samya_postmortem report /tmp/corpus/chaos_..._postmortem.json --last 40
//   samya_postmortem diff serial_postmortem.json pdes_postmortem.json

#include <cstdio>
#include <cstdlib>
#include <cstring>
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
      "       samya_postmortem report FILE [--last N] [--site S]\n"
      "       samya_postmortem diff A B\n"
      "       samya_postmortem export FILE [--out FILE]\n");
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

int RunCapture(const std::string& case_path, std::string out_path) {
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
  const Status st = WritePostmortem(r.bundle, out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
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
  std::vector<std::string> positional;
  std::string case_path;
  std::string out_path;
  int64_t last = 0;
  int32_t site = -1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--case") {
      case_path = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--last") {
      last = std::atoll(next());
    } else if (arg == "--site") {
      site = std::atoi(next());
    } else if (arg == "--help") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      Usage();
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  if (cmd == "capture") {
    if (case_path.empty() && positional.size() == 1) {
      case_path = positional[0];
    }
    if (case_path.empty()) {
      Usage();
      return 2;
    }
    return RunCapture(case_path, out_path);
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
