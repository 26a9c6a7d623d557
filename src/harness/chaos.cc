#include "harness/chaos.h"

#include <algorithm>

#include "common/logging.h"
#include "common/macros.h"
#include "harness/ddmin.h"

namespace samya::harness {

namespace {

struct SystemIdEntry {
  const char* id;
  SystemKind kind;
};

constexpr SystemIdEntry kSystemIds[] = {
    {"samya_majority", SystemKind::kSamyaMajority},
    {"samya_any", SystemKind::kSamyaAny},
    {"multipaxsys", SystemKind::kMultiPaxSys},
    {"cockroach_like", SystemKind::kCockroachLike},
    {"demarcation", SystemKind::kDemarcation},
    {"samya_no_constraint", SystemKind::kSamyaNoConstraint},
    {"samya_no_redistribution", SystemKind::kSamyaNoRedistribution},
    {"samya_majority_no_predict", SystemKind::kSamyaMajorityNoPredict},
    {"samya_any_no_predict", SystemKind::kSamyaAnyNoPredict},
    {"bounded_counter", SystemKind::kBoundedCounter},
};

}  // namespace

const char* SystemIdName(SystemKind kind) {
  for (const auto& e : kSystemIds) {
    if (e.kind == kind) return e.id;
  }
  return "unknown";
}

bool SystemKindFromId(const std::string& id, SystemKind* out) {
  for (const auto& e : kSystemIds) {
    if (id == e.id) {
      *out = e.kind;
      return true;
    }
  }
  return false;
}

JsonValue ChaosCase::ToJson() const {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("format", "samya-chaos-case-v1");
  doc.Set("system", SystemIdName(system));
  doc.Set("seed", static_cast<int64_t>(seed));
  doc.Set("num_sites", static_cast<int64_t>(num_sites));
  doc.Set("max_tokens", max_tokens);
  doc.Set("duration_us", duration);
  doc.Set("intensity", intensity);
  // Written only when non-default so pre-existing corpus files (and their
  // byte-for-byte round-trips) stay untouched.
  if (isolate != 0.0) doc.Set("isolate", isolate);
  if (disconnected_mode) doc.Set("disconnected_mode", true);
  if (!quiescence_guard) doc.Set("quiescence_guard", false);
  if (!violation_check.empty()) doc.Set("violation_check", violation_check);
  if (!note.empty()) doc.Set("note", note);
  doc.Set("schedule", schedule.ToJson());
  return doc;
}

Result<ChaosCase> ChaosCase::FromJson(const JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("chaos case: not an object");
  }
  const std::string format = v.GetString("format", "");
  if (format != "samya-chaos-case-v1") {
    return Status::InvalidArgument("chaos case: unknown format '" + format +
                                   "'");
  }
  ChaosCase c;
  if (!SystemKindFromId(v.GetString("system", ""), &c.system)) {
    return Status::InvalidArgument("chaos case: unknown system '" +
                                   v.GetString("system", "") + "'");
  }
  c.seed = static_cast<uint64_t>(v.GetInt("seed", 1));
  c.num_sites = static_cast<int>(v.GetInt("num_sites", 5));
  c.max_tokens = v.GetInt("max_tokens", 5000);
  c.duration = v.GetInt("duration_us", Seconds(50));
  c.intensity = v.GetDouble("intensity", 1.0);
  c.isolate = v.GetDouble("isolate", 0.0);
  c.disconnected_mode = v.GetBool("disconnected_mode", false);
  c.quiescence_guard = v.GetBool("quiescence_guard", true);
  c.violation_check = v.GetString("violation_check", "");
  c.note = v.GetString("note", "");
  const JsonValue* sched = v.Find("schedule");
  if (sched == nullptr) {
    return Status::InvalidArgument("chaos case: missing schedule");
  }
  SAMYA_ASSIGN_OR_RETURN(c.schedule, sim::FaultSchedule::FromJson(*sched));
  return c;
}

ExperimentOptions MakeChaosOptions(const ChaosCase& c, AuditOptions audit) {
  ExperimentOptions o;
  o.system = c.system;
  o.num_sites = c.num_sites;
  o.max_tokens = c.max_tokens;
  o.duration = c.duration;
  o.seed = c.seed;
  o.fault_schedule = c.schedule;
  o.site_template.enable_disconnected_mode = c.disconnected_mode;
  audit.enabled = true;
  audit.require_quiescence = audit.require_quiescence && c.quiescence_guard;
  // The terminal heal block is the last scheduled op; with it gone (e.g. a
  // shrunken schedule) the latest remaining op still bounds the fault era.
  audit.heal_time = 0;
  for (const sim::FaultOp& op : c.schedule.ops) {
    audit.heal_time = std::max(audit.heal_time, op.at);
  }
  audit.load_end = c.duration;
  o.audit = audit;
  // Always-armed flight recorder (DESIGN.md §8): a violating run's own
  // result then carries the protocol history the post-mortem bundle needs,
  // with no second run. Pure observer — replays stay bit-identical.
  o.obs.flight_capacity = obs::FlightRecorder::kDefaultCapacity;
  return o;
}

ExperimentResult RunChaosCase(const ChaosCase& c, const AuditOptions& audit) {
  Experiment e(MakeChaosOptions(c, audit));
  e.Setup();
  return e.Run();
}

ChaosCase MakeNemesisCase(SystemKind system, uint64_t seed, double intensity,
                          int num_sites, double isolate,
                          bool disconnected_mode) {
  ChaosCase c;
  c.system = system;
  c.seed = seed;
  c.intensity = intensity;
  c.num_sites = num_sites;
  c.isolate = isolate;
  c.disconnected_mode = disconnected_mode;
  sim::NemesisOptions nopts;
  nopts.horizon = Seconds(40);
  nopts.heal_margin = Seconds(8);
  nopts.intensity = intensity;
  nopts.isolate_waves = isolate;
  for (int i = 0; i < c.num_sites; ++i) {
    nopts.nodes.push_back(static_cast<sim::NodeId>(i));
    // Isolation cuts the whole region island: the site, its co-located app
    // manager (id n + region) and client (id n + 5 + region), matching the
    // deployment layout every Setup* builder produces. Load keeps flowing
    // to the cut-off site, which is the scenario disconnected mode serves.
    nopts.isolate_islands.push_back(
        {static_cast<sim::NodeId>(i), static_cast<sim::NodeId>(num_sites + i % 5),
         static_cast<sim::NodeId>(num_sites + 5 + i % 5)});
  }
  c.schedule = sim::GenerateSchedule(nopts, seed);
  return c;
}

ChaosCase ShrinkCase(const ChaosCase& c, const AuditOptions& audit,
                     int max_runs, int* runs_used) {
  ChaosCase out = c;
  out.schedule.ops = Ddmin(
      c.schedule.ops,
      [&](const std::vector<sim::FaultOp>& ops) {
        ChaosCase candidate = c;
        candidate.schedule.ops = ops;
        return FailsCheck(RunChaosCase(candidate, audit).violations,
                          /*history_failure=*/"", c.violation_check);
      },
      max_runs, runs_used);
  return out;
}

}  // namespace samya::harness
