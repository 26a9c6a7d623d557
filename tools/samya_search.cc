// samya_search — searches for violations of the safety properties (Eq. 1
// conservation, Avantan agreement, linearizability) and pins them as
// replayable corpus cases.
//
// Subcommands:
//
//   chaos: seeds x systems x fault intensities. Each configuration derives a
//     seed-deterministic nemesis fault schedule (crash churn, rolling
//     partitions, one-way link cuts, loss spikes, delay storms,
//     duplication) and runs the system under it with the invariant auditor
//     armed.
//
//   explore: seeds x schedulers (random walk, PCT) x systems over a small
//     fixed-contention scenario (3 sites, scripted acquires/releases/reads
//     per region). Every run records its oracle decision trace and feeds
//     the client/server history to the linearizability checker (or the
//     bounded-safety checker for escrow-style baselines).
//
//   dfs: bounded exhaustive search over the explore scenario: every
//     schedule within --max-depth deviations from FIFO (state-hash pruned).
//
//   replay: re-runs a corpus case file of either format and verifies that
//     its recorded verdict (clean, or the named violation) reproduces.
//
// A violating chaos or explore run is delta-debugged (ddmin) to a minimal
// fault schedule / choice trace; with --corpus the reproducer is written as
// a JSON case named after the configuration that found it, next to its
// post-mortem bundle (for chaos, with the re-run's full flight history).
//
// Usage:
//   samya_search chaos [--seeds N] [--seed-base N] [--systems a,b]
//                      [--intensities x,y] [--duration-s N] [--sites N]
//                      [--max-tokens N] [--corpus DIR] [--emit-corpus]
//                      [--no-shrink] [--no-quiescence-guard] [--isolate W]
//                      [--disconnected] [--threads N] [--list]
//   samya_search explore [--seeds N] [--seed-base N] [--systems a,b]
//                        [--schedulers random,pct] [--pct-depth N]
//                        [--sites N] [--max-tokens N] [--window-ms N]
//                        [--duration-s N] [--mutation NAME] [--corpus DIR]
//                        [--emit-corpus] [--no-shrink] [--threads N] [--list]
//   samya_search dfs [--seed-base N] [--systems a] [--sites N]
//                    [--max-tokens N] [--window-ms N] [--duration-s N]
//                    [--mutation NAME] [--max-depth N] [--max-runs N]
//   samya_search replay --case FILE
//
// Exit status: 0 when every configuration matched expectations (under
// --mutation: when the sweep caught the bug), 1 otherwise, 2 on usage or
// I/O errors, including a flag the subcommand does not take.
//
// Examples:
//   samya_search chaos --seeds 4 --intensities 2 --duration-s 30
//   samya_search chaos --no-quiescence-guard --seeds 1 --corpus /tmp/corpus
//   samya_search explore --mutation alloc_remainder --seeds 1   # must violate
//   samya_search dfs --max-tokens 7 --max-depth 6 --max-runs 3000
//   samya_search replay --case tests/integration/schedule_corpus/x.json

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "flag_parse.h"
#include "harness/chaos.h"
#include "harness/explore.h"
#include "harness/parallel_runner.h"
#include "harness/postmortem.h"

using namespace samya;           // NOLINT — tool code
using namespace samya::harness;  // NOLINT

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: samya_search chaos|explore|dfs|replay [flags]\n"
      "  chaos:   --seeds --seed-base --systems --intensities --duration-s\n"
      "           --sites --max-tokens --corpus --emit-corpus --no-shrink\n"
      "           --no-quiescence-guard --isolate --disconnected --threads\n"
      "           --list\n"
      "  explore: --seeds --seed-base --systems --schedulers --pct-depth\n"
      "           --sites --max-tokens --window-ms --duration-s --mutation\n"
      "           --corpus --emit-corpus --no-shrink --threads --list\n"
      "  dfs:     --seed-base --systems --sites --max-tokens --window-ms\n"
      "           --duration-s --mutation --max-depth --max-runs\n"
      "  replay:  --case FILE\n"
      "systems: samya_majority samya_any samya_majority_no_predict\n"
      "         samya_any_no_predict multipaxsys cockroach_like demarcation\n"
      "         bounded_counter ...  schedulers: fifo random pct\n"
      "--isolate W adds W site-isolation waves (x intensity) per schedule;\n"
      "--disconnected arms Samya's degraded mode so isolated sites keep\n"
      "serving from their local pool behind a durable op-log.\n");
}

/// Simulated sites per run, and sweep workers (0 = the hardware default).
constexpr int64_t kMaxSites = 1024;
constexpr int64_t kMaxThreads = 256;

enum Command : unsigned { kChaos = 1, kExplore = 2, kDfs = 4, kReplay = 8 };

struct FlagSpec {
  const char* name;
  unsigned commands;  ///< bitmask of the subcommands that take the flag
  bool takes_value;
};

constexpr FlagSpec kFlags[] = {
    {"--seeds", kChaos | kExplore, true},
    {"--seed-base", kChaos | kExplore | kDfs, true},
    {"--systems", kChaos | kExplore | kDfs, true},
    {"--sites", kChaos | kExplore | kDfs, true},
    {"--max-tokens", kChaos | kExplore | kDfs, true},
    {"--duration-s", kChaos | kExplore | kDfs, true},
    {"--corpus", kChaos | kExplore, true},
    {"--emit-corpus", kChaos | kExplore, false},
    {"--no-shrink", kChaos | kExplore, false},
    {"--threads", kChaos | kExplore, true},
    {"--list", kChaos | kExplore, false},
    {"--intensities", kChaos, true},
    {"--no-quiescence-guard", kChaos, false},
    {"--isolate", kChaos, true},
    {"--disconnected", kChaos, false},
    {"--schedulers", kExplore, true},
    {"--pct-depth", kExplore, true},
    {"--window-ms", kExplore | kDfs, true},
    {"--mutation", kExplore | kDfs, true},
    {"--max-depth", kDfs, true},
    {"--max-runs", kDfs, true},
    {"--case", kReplay, true},
};

/// Parsed flags; each subcommand reads them with its own defaults.
class Flags {
 public:
  bool Has(const char* name) const { return values_.count(name) != 0; }
  std::string Str(const char* name, const std::string& def = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }
  /// A present value must lie in [lo, hi] (tools/flag_parse.h).
  int64_t Int(const char* name, int64_t def, int64_t lo, int64_t hi) const {
    return Has(name) ? tools::ParseInt(Str(name).c_str(), lo, hi, Usage)
                     : def;
  }
  double Real(const char* name, double def, double lo, double hi) const {
    return Has(name) ? tools::ParseReal(Str(name).c_str(), lo, hi, Usage)
                     : def;
  }
  void Set(const std::string& name, std::string value) {
    values_[name] = std::move(value);
  }

 private:
  std::map<std::string, std::string> values_;
};

uint64_t SeedBase(const Flags& f) {
  return static_cast<uint64_t>(f.Int("--seed-base", 1, 0, tools::kInt64Max));
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Parses a CSV flag through `from_id` (SystemKindFromId, ...); exits 2 on
/// an unknown name.
template <typename Kind>
std::vector<Kind> ParseKinds(const Flags& f, const char* flag,
                             const char* def, const char* what,
                             bool (*from_id)(const std::string&, Kind*)) {
  std::vector<Kind> out;
  for (const std::string& name : SplitCsv(f.Str(flag, def))) {
    Kind kind;
    if (!from_id(name, &kind)) {
      std::fprintf(stderr, "unknown %s: %s\n", what, name.c_str());
      std::exit(2);
    }
    out.push_back(kind);
  }
  return out;
}

std::vector<SystemKind> ParseSystems(const Flags& f) {
  return ParseKinds(f, "--systems", "samya_majority,samya_any", "system",
                    SystemKindFromId);
}

void PrintViolations(const std::vector<AuditViolation>& violations,
                     uint64_t dropped, const char* indent) {
  for (const AuditViolation& v : violations) {
    std::printf("%st=%s [%s] %s\n", indent, FormatDuration(v.at).c_str(),
                v.check.c_str(), v.detail.c_str());
  }
  if (dropped > 0) {
    std::printf("%s... and %llu more violation(s) past the auditor cap\n",
                indent, static_cast<unsigned long long>(dropped));
  }
}

void WriteBundle(const PostmortemBundle& bundle, const std::string& path) {
  const Status st = WritePostmortem(bundle, path);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot write bundle: %s\n", st.message().c_str());
    return;
  }
  std::printf("  wrote %s (%llu flight events, %zu violation(s))\n",
              path.c_str(),
              static_cast<unsigned long long>(
                  bundle.flight.is_object() ? bundle.flight.GetInt("total", 0)
                                            : 0),
              bundle.violations.size());
}

// --- chaos -----------------------------------------------------------------

std::string IntensityTag(double intensity) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", intensity);
  std::string tag = buf;
  for (char& c : tag) {
    if (c == '.') c = 'p';
  }
  return tag;
}

std::string CaseBasename(const std::string& corpus_dir, const ChaosCase& c) {
  std::string base = corpus_dir + "/chaos_" + SystemIdName(c.system) +
                     "_seed" + std::to_string(c.seed) + "_i" +
                     IntensityTag(c.intensity);
  if (c.isolate != 0.0) base += "_iso" + IntensityTag(c.isolate);
  if (c.disconnected_mode) base += "_dm";
  return base;
}

ExperimentResult Run(const ChaosCase& c) {
  return RunChaosCase(c, AuditOptions());
}

std::string FailedCheck(const ExperimentResult& r) {
  return r.violations.empty() ? "" : r.violations.front().check;
}

void PrintRun(const ChaosCase& c, const ExperimentResult& r) {
  if (r.violations.empty()) return;
  std::printf("\nVIOLATION %s seed=%llu intensity=%g (%zu violation(s), "
              "%llu audit ticks)\n",
              SystemIdName(c.system), static_cast<unsigned long long>(c.seed),
              c.intensity, r.violations.size(),
              static_cast<unsigned long long>(r.audit_ticks));
  PrintViolations(r.violations, r.dropped_violations, "  ");
}

void PrintListed(const ChaosCase& c) {
  std::printf("  %s seed=%llu intensity=%g schedule_ops=%zu\n",
              SystemIdName(c.system), static_cast<unsigned long long>(c.seed),
              c.intensity, c.schedule.size());
}

ChaosCase Replayable(const ChaosCase& c, const ExperimentResult&) { return c; }

size_t ItemCount(const ChaosCase& c) { return c.schedule.size(); }
const char* ItemNoun(const ChaosCase&) { return "ops"; }

ChaosCase Shrink(const ChaosCase& c, int* runs_used) {
  return ShrinkCase(c, AuditOptions(), /*max_runs=*/300, runs_used);
}

/// Re-runs the minimized case with an unbounded flight recorder and ships
/// the post-mortem bundle with the run's full history. The recorder is a
/// pure observer, so the re-run replays the identical event sequence the
/// case file pins.
void WriteArtifacts(const ChaosCase& c, const std::string& base) {
  ExperimentOptions opts = MakeChaosOptions(c, AuditOptions());
  opts.obs.flight_capacity = obs::FlightRecorder::kUnbounded;
  Experiment experiment(opts);
  experiment.Setup();
  const ExperimentResult r = experiment.Run();
  WriteBundle(MakePostmortem("samya_search", c.violation_check, c.ToJson(), r),
              base + "_postmortem.json");
}

// --- explore ---------------------------------------------------------------

std::string CaseBasename(const std::string& corpus_dir, const ExploreCase& c) {
  std::string name = corpus_dir + "/explore_" + SystemIdName(c.system) +
                     "_" + SchedulerIdName(c.scheduler) + "_seed" +
                     std::to_string(c.seed);
  if (!c.mutation.empty()) name += "_mut_" + c.mutation;
  return name;
}

ExploreRunResult Run(const ExploreCase& c) { return RunExploreCase(c); }

std::string FailedCheck(const ExploreRunResult& r) { return r.failed_check; }

void PrintRun(const ExploreCase& c, const ExploreRunResult& r) {
  std::printf("%-24s %-7s seed=%-4llu decisions=%-5zu ops=%-3llu %s",
              SystemIdName(c.system), SchedulerIdName(c.scheduler),
              static_cast<unsigned long long>(c.seed), r.trace.size(),
              static_cast<unsigned long long>(r.ops_recorded),
              r.violated() ? "VIOLATION" : "ok");
  if (r.violated()) {
    std::printf(" [%s]", r.failed_check.c_str());
  }
  std::printf(" (checker: %llu states, %llu cached%s)\n",
              static_cast<unsigned long long>(r.check.states_explored),
              static_cast<unsigned long long>(r.check.cache_hits),
              r.check.complete ? "" : ", budget hit");
  PrintViolations(r.violations, r.dropped_violations, "    ");
  if (!r.check.ok) {
    std::printf("    checker: %s\n", r.check.violation.c_str());
  }
}

void PrintListed(const ExploreCase& c) {
  std::printf("  %s %s seed=%llu\n", SystemIdName(c.system),
              SchedulerIdName(c.scheduler),
              static_cast<unsigned long long>(c.seed));
}

/// Corpus cases replay a recorded trace, so pin the schedule and the
/// scenario regardless of which scheduler found it.
ExploreCase Replayable(const ExploreCase& c, const ExploreRunResult& r) {
  ExploreCase out = c;
  out.scheduler = SchedulerKind::kReplay;
  out.choices = r.choices;
  while (!out.choices.empty() && out.choices.back() == 0) {
    out.choices.pop_back();
  }
  if (out.scripts.empty()) out.scripts = DefaultExploreScripts(out.max_tokens);
  return out;
}

size_t ItemCount(const ExploreCase& c) { return c.choices.size(); }
const char* ItemNoun(const ExploreCase&) { return "choices"; }

ExploreCase Shrink(const ExploreCase& c, int* runs_used) {
  return ShrinkChoices(c, /*max_runs=*/300, runs_used);
}

/// Re-runs the minimized reproducer so the bundle's flight history matches
/// the exact case written to the corpus.
void WriteArtifacts(const ExploreCase& c, const std::string& base) {
  WriteBundle(MakePostmortem("samya_search", c.ToJson(), RunExploreCase(c)),
              base + "_postmortem.json");
}

ExploreCase MakeExploreCase(const Flags& f, SystemKind system,
                            SchedulerKind scheduler, uint64_t seed) {
  ExploreCase c;
  c.system = system;
  c.scheduler = scheduler;
  c.seed = seed;
  c.num_sites =
      static_cast<int>(f.Int("--sites", c.num_sites, 1, kMaxSites));
  c.max_tokens = f.Int("--max-tokens", c.max_tokens, 1, tools::kInt64Max);
  c.duration = Seconds(
      f.Int("--duration-s", c.duration / kSecond, 1, tools::kIntMax));
  c.window = Millis(
      f.Int("--window-ms", c.window / kMillisecond, 0, tools::kIntMax));
  c.pct_depth = static_cast<int>(
      f.Int("--pct-depth", c.pct_depth, 1, tools::kIntMax));
  c.mutation = f.Str("--mutation");
  return c;
}

// --- the shared sweep --------------------------------------------------------

bool WriteCase(const JsonValue& doc, const std::string& base) {
  const std::string path = base + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << JsonDump(doc, /*indent=*/2);
  std::printf("  wrote %s\n", path.c_str());
  return true;
}

/// Runs every config, then walks the results in order: a clean config
/// optionally becomes a regression-guard case (--emit-corpus); a violating
/// one is ddmin-shrunk, written as a case named after the config that found
/// it, and shipped with its post-mortem bundle. Returns the violating count.
template <typename Case>
int Sweep(const Flags& f, const std::string& cmd, const std::string& header,
          const char* verdict, const std::vector<Case>& cases) {
  // Test-only mutations are process-global flags, so mutated sweeps must
  // not share the process with concurrent runs.
  const int threads =
      f.Has("--mutation")
          ? 1
          : static_cast<int>(f.Int("--threads", 0, 0, kMaxThreads));
  std::printf("samya_search %s: %zu configs %s\n", cmd.c_str(), cases.size(),
              header.c_str());
  if (f.Has("--list")) {
    for (const Case& c : cases) PrintListed(c);
    return 0;
  }
  std::vector<decltype(Run(cases.front()))> results(cases.size());
  RunIndexed(cases.size(), threads,
             [&](size_t i) { results[i] = Run(cases[i]); });

  const std::string corpus = f.Str("--corpus");
  int violating = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    PrintRun(cases[i], results[i]);
    const std::string failed = FailedCheck(results[i]);
    const std::string base = CaseBasename(corpus, cases[i]);
    Case repro = Replayable(cases[i], results[i]);
    if (failed.empty()) {
      if (f.Has("--emit-corpus") && !corpus.empty()) {
        repro.note = "regression guard: swept clean by samya_search " + cmd;
        WriteCase(repro.ToJson(), base);
      }
      continue;
    }
    ++violating;
    repro.violation_check = failed;
    if (!f.Has("--no-shrink")) {
      int runs_used = 0;
      const size_t before = ItemCount(repro);
      repro = Shrink(repro, &runs_used);
      std::printf("  shrunk %zu -> %zu %s in %d runs\n", before,
                  ItemCount(repro), ItemNoun(repro), runs_used);
    }
    if (!corpus.empty()) {
      repro.note = "found by samya_search " + cmd + "; minimized by ddmin";
      if (WriteCase(repro.ToJson(), base)) WriteArtifacts(repro, base);
    }
  }
  std::printf("\nsamya_search %s: %d/%zu configs %s\n", cmd.c_str(),
              violating, cases.size(), verdict);
  return violating;
}

int RunChaos(const Flags& f) {
  const std::vector<SystemKind> systems = ParseSystems(f);
  std::vector<double> intensities;
  for (const std::string& v : SplitCsv(f.Str("--intensities", "0.5,1,2,3"))) {
    intensities.push_back(
        tools::ParseReal(v.c_str(), 0.0, tools::kRealMax, Usage));
  }
  const int seeds = static_cast<int>(f.Int("--seeds", 25, 1, tools::kIntMax));
  const uint64_t seed_base = SeedBase(f);
  const ChaosCase defaults;
  const int sites =
      static_cast<int>(f.Int("--sites", defaults.num_sites, 1, kMaxSites));
  const int64_t duration_s =
      f.Int("--duration-s", defaults.duration / kSecond, 1, tools::kIntMax);
  const double isolate = f.Real("--isolate", 0.0, 0.0, tools::kRealMax);
  const bool guard = !f.Has("--no-quiescence-guard");
  std::vector<ChaosCase> cases;
  for (SystemKind system : systems) {
    for (double intensity : intensities) {
      for (int s = 0; s < seeds; ++s) {
        ChaosCase c = MakeNemesisCase(
            system, seed_base + static_cast<uint64_t>(s), intensity, sites,
            isolate, f.Has("--disconnected"));
        c.max_tokens =
            f.Int("--max-tokens", c.max_tokens, 1, tools::kInt64Max);
        c.duration = Seconds(duration_s);
        c.quiescence_guard = guard;
        cases.push_back(c);
      }
    }
  }
  char header[160];
  std::snprintf(header, sizeof(header),
                "(%zu systems x %zu intensities x %d seeds), duration %llds%s",
                systems.size(), intensities.size(), seeds,
                static_cast<long long>(duration_s),
                guard ? "" : " [quiescence guard OFF]");
  return Sweep(f, "chaos", header, "violated invariants", cases) == 0 ? 0 : 1;
}

int RunExplore(const Flags& f) {
  const std::vector<SystemKind> systems = ParseSystems(f);
  const std::vector<SchedulerKind> schedulers = ParseKinds(
      f, "--schedulers", "random,pct", "scheduler", SchedulerKindFromId);
  const int seeds = static_cast<int>(f.Int("--seeds", 10, 1, tools::kIntMax));
  const uint64_t seed_base = SeedBase(f);
  std::vector<ExploreCase> cases;
  for (SystemKind system : systems) {
    for (SchedulerKind sched : schedulers) {
      for (int s = 0; s < seeds; ++s) {
        cases.push_back(MakeExploreCase(
            f, system, sched, seed_base + static_cast<uint64_t>(s)));
      }
    }
  }
  const ExploreCase shape = MakeExploreCase(f, systems.front(),
                                            SchedulerKind::kReplay, seed_base);
  const std::string mutation = f.Str("--mutation");
  const std::string tag =
      mutation.empty() ? "" : " [mutation " + mutation + "]";
  char header[200];
  std::snprintf(header, sizeof(header),
                "(%zu systems x %zu schedulers x %d seeds), %d sites, M=%lld%s",
                systems.size(), schedulers.size(), seeds, shape.num_sites,
                static_cast<long long>(shape.max_tokens), tag.c_str());
  const int violating = Sweep(f, "explore", header, "violated", cases);
  if (f.Has("--list")) return 0;
  // Under a mutation the sweep *must* catch the bug somewhere in the
  // budget; clean code must never flag at all.
  if (!mutation.empty()) return violating > 0 ? 0 : 1;
  return violating == 0 ? 0 : 1;
}

int RunDfs(const Flags& f) {
  const ExploreCase base =
      MakeExploreCase(f, ParseSystems(f).front(), SchedulerKind::kReplay,
                      SeedBase(f));
  DfsOptions dopts;
  dopts.max_depth = static_cast<uint32_t>(
      f.Int("--max-depth", dopts.max_depth, 0, tools::kIntMax));
  dopts.max_runs = static_cast<uint64_t>(
      f.Int("--max-runs", static_cast<int64_t>(dopts.max_runs), 1,
            tools::kInt64Max));
  std::printf("dfs: %s seed=%llu sites=%d M=%lld depth<=%u runs<=%llu\n",
              SystemIdName(base.system),
              static_cast<unsigned long long>(base.seed), base.num_sites,
              static_cast<long long>(base.max_tokens), dopts.max_depth,
              static_cast<unsigned long long>(dopts.max_runs));
  const DfsStats st = ExploreDfs(base, dopts);
  std::printf("dfs: %llu runs, %llu states, %llu pruned, deepest branch %u, "
              "%s, %llu violating run(s)\n",
              static_cast<unsigned long long>(st.runs),
              static_cast<unsigned long long>(st.states),
              static_cast<unsigned long long>(st.prunes), st.deepest_branch,
              st.exhausted ? "EXHAUSTED" : "budget hit",
              static_cast<unsigned long long>(st.violations));
  if (st.failing_choices.empty() && st.failed_check.empty()) return 0;
  std::printf("dfs: first violation [%s] choices = [", st.failed_check.c_str());
  for (size_t i = 0; i < st.failing_choices.size(); ++i) {
    std::printf("%s%u", i == 0 ? "" : ",", st.failing_choices[i]);
  }
  std::printf("]\n");
  return 1;
}

int RunReplay(const std::string& path) {
  if (path.empty()) {
    std::fprintf(stderr, "replay needs --case FILE\n");
    return 2;
  }
  auto replayed = ReplayCaseFile(path, "samya_search");
  if (!replayed.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 replayed.status().message().c_str());
    return 2;
  }
  const CaseReplay& r = replayed.value();
  const std::string expected =
      r.expected_check.empty() ? "clean" : r.expected_check;
  const std::string got = r.failed_check.empty() ? "clean" : r.failed_check;
  std::printf("replay: %s case, %llu events, %llu ops, %s\n", r.kind,
              static_cast<unsigned long long>(r.events_executed),
              static_cast<unsigned long long>(r.ops), got.c_str());
  PrintViolations(r.bundle.violations, r.bundle.dropped_violations, "    ");
  if (!r.failed_check.empty()) {
    // "<case>.json" -> "<case>_postmortem.json", next to the case file.
    std::string base = path;
    if (base.size() > 5 && base.compare(base.size() - 5, 5, ".json") == 0) {
      base.erase(base.size() - 5);
    }
    WriteBundle(r.bundle, base + "_postmortem.json");
  }
  if (!r.as_recorded) {
    std::printf("replay MISMATCH: expected %s, got %s\n", expected.c_str(),
                got.c_str());
    return 1;
  }
  std::printf("replay ok: %s reproduced\n",
              r.expected_check.empty() ? "clean run" : expected.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc >= 2 ? argv[1] : "";
  const std::map<std::string, Command> commands = {
      {"chaos", kChaos}, {"explore", kExplore}, {"dfs", kDfs},
      {"replay", kReplay}};
  if (cmd == "--help") {
    Usage();
    return 0;
  }
  const auto command = commands.find(cmd);
  if (command == commands.end()) {
    Usage();
    return 2;
  }
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      Usage();
      return 0;
    }
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& s : kFlags) {
      if (arg == s.name && (s.commands & command->second) != 0) spec = &s;
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "samya_search %s does not take %s\n", cmd.c_str(),
                   arg.c_str());
      Usage();
      return 2;
    }
    if (spec->takes_value && i + 1 >= argc) {
      Usage();
      return 2;
    }
    flags.Set(arg, spec->takes_value ? argv[++i] : "");
  }
  switch (command->second) {
    case kChaos:
      return RunChaos(flags);
    case kExplore:
      return RunExplore(flags);
    case kDfs:
      return RunDfs(flags);
    case kReplay:
      return RunReplay(flags.Str("--case"));
  }
  return 2;
}
