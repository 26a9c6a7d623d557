#include "harness/explore.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/macros.h"
#include "common/testonly_mutation.h"
#include "core/site.h"
#include "harness/chaos.h"
#include "harness/ddmin.h"
#include "harness/history.h"

namespace samya::harness {

namespace {

struct SchedulerIdEntry {
  const char* id;
  SchedulerKind kind;
};

constexpr SchedulerIdEntry kSchedulerIds[] = {
    {"fifo", SchedulerKind::kFifo},
    {"random", SchedulerKind::kRandom},
    {"pct", SchedulerKind::kPct},
    {"replay", SchedulerKind::kReplay},
};

const char* RequestTypeName(workload::Request::Type t) {
  switch (t) {
    case workload::Request::Type::kAcquire:
      return "acquire";
    case workload::Request::Type::kRelease:
      return "release";
    case workload::Request::Type::kRead:
      return "read";
  }
  return "acquire";
}

bool RequestTypeFromName(const std::string& name,
                         workload::Request::Type* out) {
  if (name == "acquire") {
    *out = workload::Request::Type::kAcquire;
  } else if (name == "release") {
    *out = workload::Request::Type::kRelease;
  } else if (name == "read") {
    *out = workload::Request::Type::kRead;
  } else {
    return false;
  }
  return true;
}

/// FNV-1a fold of the live system state, installed as the oracle's state
/// function: decision contexts that agree on it (and on the candidate set)
/// lead to identical subtrees, which is what DFS pruning keys on. Only
/// counters that are stable between events go in — nothing clock-derived.
uint64_t DigestState(const Experiment& e) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const core::Site* s : e.samya_sites()) {
    mix(static_cast<uint64_t>(s->tokens_left()));
    mix(s->frozen() ? 0x9e3779b97f4a7c15ull : 0);
    mix(s->queue_depth());
    mix(s->stats().committed_acquires);
    mix(s->stats().committed_releases);
    mix(s->stats().rejected);
    mix(s->stats().instances_completed);
    mix(s->stats().instances_aborted);
  }
  return h;
}

std::unique_ptr<sim::ScheduleOracle> MakeOracle(const ExploreCase& c) {
  switch (c.scheduler) {
    case SchedulerKind::kFifo:
      return std::make_unique<sim::FifoOracle>();
    case SchedulerKind::kRandom:
      return std::make_unique<sim::RandomWalkOracle>(c.seed);
    case SchedulerKind::kPct: {
      uint64_t ops = 0;
      const auto& scripts =
          c.scripts.empty() ? DefaultExploreScripts(c.max_tokens) : c.scripts;
      for (const auto& s : scripts) ops += s.size();
      // Every client op fans out into a handful of request/response and
      // redistribution messages; 16x is a generous decision-count estimate
      // (PCT only needs the order of magnitude).
      return std::make_unique<sim::PctOracle>(
          c.seed, c.pct_depth, 32 + 16 * ops);
    }
    case SchedulerKind::kReplay:
      return std::make_unique<sim::ReplayOracle>(c.choices);
  }
  SAMYA_CHECK(false);
  return nullptr;
}

ExperimentOptions MakeExploreOptions(const ExploreCase& c) {
  ExperimentOptions o;
  o.system = c.system;
  o.num_sites = c.num_sites;
  o.max_tokens = c.max_tokens;
  o.duration = c.duration;
  o.seed = c.seed;
  o.scripts_override =
      c.scripts.empty() ? DefaultExploreScripts(c.max_tokens) : c.scripts;
  // Reactive-only: proactive prediction would schedule epoch redistributions
  // unrelated to the scripted ops, bloating the schedule space under DFS.
  o.site_template.enable_prediction = false;
  if (IsSamyaVariant(c.system) && c.system != SystemKind::kSamyaNoConstraint) {
    o.audit.enabled = true;
    o.audit.heal_time = 0;  // no faults: liveness checks stay disarmed
    o.audit.load_end = c.duration;
  }
  // Always-armed flight recorder (DESIGN.md §8): violating schedules dump
  // a post-mortem bundle straight from the run's own recorder.
  o.obs.flight_capacity = obs::FlightRecorder::kDefaultCapacity;
  return o;
}

void TrimTrailingZeros(std::vector<uint32_t>* v) {
  while (!v->empty() && v->back() == 0) v->pop_back();
}

}  // namespace

const char* SchedulerIdName(SchedulerKind kind) {
  for (const auto& e : kSchedulerIds) {
    if (e.kind == kind) return e.id;
  }
  return "unknown";
}

bool SchedulerKindFromId(const std::string& id, SchedulerKind* out) {
  for (const auto& e : kSchedulerIds) {
    if (id == e.id) {
      *out = e.kind;
      return true;
    }
  }
  return false;
}

std::vector<std::vector<workload::Request>> DefaultExploreScripts(
    int64_t max_tokens) {
  using workload::Request;
  // All requests are unit-amount, like the Azure trace the rest of the
  // harness plays (1 request == 1 token): the auditor's conservation ledger
  // and the client balance guard both count committed requests.
  //
  // Each site starts with ~share tokens; region 0's second burst overdraws
  // its local pool, forcing a reactive Avantan round right while the other
  // regions' traffic is in flight. Scaling with M keeps the scenario small
  // for DFS exhaustion (e.g. M=7 => 13 ops) and contended for sweeps
  // (M=31 => 45 ops).
  const int64_t share = std::max<int64_t>(max_tokens / 3, 2);
  const auto burst = [](std::vector<Request>* s, SimTime start, int64_t count,
                        Request::Type type) {
    for (int64_t k = 0; k < count; ++k) {
      s->push_back(Request{start + Millis(2) * k, type, 1});
    }
  };
  std::vector<std::vector<Request>> scripts(3);
  burst(&scripts[0], Millis(50), share - 1, Request::Type::kAcquire);
  burst(&scripts[0], Millis(600), share, Request::Type::kAcquire);
  burst(&scripts[0], Millis(1500), 2, Request::Type::kRelease);
  burst(&scripts[0], Millis(2500), 1, Request::Type::kRead);
  burst(&scripts[1], Millis(55), share / 2, Request::Type::kAcquire);
  burst(&scripts[1], Millis(1200), share / 2, Request::Type::kRelease);
  burst(&scripts[1], Millis(2600), 1, Request::Type::kRead);
  burst(&scripts[2], Millis(60), share - 1, Request::Type::kAcquire);
  burst(&scripts[2], Millis(800), 2, Request::Type::kAcquire);
  burst(&scripts[2], Millis(1600), 1, Request::Type::kRelease);
  return scripts;
}

bool CheckPresetFor(SystemKind kind, int64_t max_tokens, CheckOptions* out) {
  switch (kind) {
    case SystemKind::kMultiPaxSys:
    case SystemKind::kCockroachLike:
      *out = CheckOptions::Replicated(max_tokens);
      return true;
    case SystemKind::kDemarcation:
    case SystemKind::kBoundedCounter:
      *out = CheckOptions::Bounded(max_tokens);
      return true;
    case SystemKind::kSamyaNoConstraint:
      return false;  // promises no bound at all (Fig 3e upper line)
    default:
      *out = CheckOptions::Samya(max_tokens);
      return true;
  }
}

JsonValue ExploreCase::ToJson() const {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("format", "samya-explore-case-v1");
  doc.Set("system", SystemIdName(system));
  doc.Set("scheduler", SchedulerIdName(scheduler));
  doc.Set("seed", static_cast<int64_t>(seed));
  doc.Set("num_sites", static_cast<int64_t>(num_sites));
  doc.Set("max_tokens", max_tokens);
  doc.Set("duration_us", duration);
  doc.Set("window_us", window);
  doc.Set("pct_depth", static_cast<int64_t>(pct_depth));
  if (!mutation.empty()) doc.Set("mutation", mutation);
  if (!violation_check.empty()) doc.Set("violation_check", violation_check);
  if (!note.empty()) doc.Set("note", note);
  if (!scripts.empty()) {
    JsonValue regions = JsonValue::MakeArray();
    for (const auto& script : scripts) {
      JsonValue ops = JsonValue::MakeArray();
      for (const workload::Request& q : script) {
        JsonValue op = JsonValue::MakeObject();
        op.Set("at_us", q.at);
        op.Set("type", RequestTypeName(q.type));
        op.Set("amount", q.amount);
        ops.Append(std::move(op));
      }
      regions.Append(std::move(ops));
    }
    doc.Set("scripts", std::move(regions));
  }
  JsonValue ch = JsonValue::MakeArray();
  for (uint32_t x : choices) ch.Append(static_cast<int64_t>(x));
  doc.Set("choices", std::move(ch));
  return doc;
}

Result<ExploreCase> ExploreCase::FromJson(const JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("explore case: not an object");
  }
  const std::string format = v.GetString("format", "");
  if (format != "samya-explore-case-v1") {
    return Status::InvalidArgument("explore case: unknown format '" + format +
                                   "'");
  }
  ExploreCase c;
  if (!SystemKindFromId(v.GetString("system", ""), &c.system)) {
    return Status::InvalidArgument("explore case: unknown system '" +
                                   v.GetString("system", "") + "'");
  }
  if (!SchedulerKindFromId(v.GetString("scheduler", "replay"),
                           &c.scheduler)) {
    return Status::InvalidArgument("explore case: unknown scheduler '" +
                                   v.GetString("scheduler", "") + "'");
  }
  c.seed = static_cast<uint64_t>(v.GetInt("seed", 1));
  c.num_sites = static_cast<int>(v.GetInt("num_sites", 3));
  c.max_tokens = v.GetInt("max_tokens", 31);
  c.duration = v.GetInt("duration_us", Seconds(3));
  c.window = v.GetInt("window_us", Millis(5));
  c.pct_depth = static_cast<int>(v.GetInt("pct_depth", 3));
  c.mutation = v.GetString("mutation", "");
  c.violation_check = v.GetString("violation_check", "");
  c.note = v.GetString("note", "");
  if (const JsonValue* regions = v.Find("scripts")) {
    if (!regions->is_array()) {
      return Status::InvalidArgument("explore case: scripts not an array");
    }
    for (const JsonValue& script : regions->as_array()) {
      if (!script.is_array()) {
        return Status::InvalidArgument("explore case: script not an array");
      }
      std::vector<workload::Request> ops;
      for (const JsonValue& op : script.as_array()) {
        workload::Request q;
        q.at = op.GetInt("at_us", 0);
        const int64_t amount = op.GetInt("amount", 1);
        if (amount < INT32_MIN || amount > INT32_MAX) {
          return Status::InvalidArgument("explore case: amount out of range");
        }
        q.amount = static_cast<int32_t>(amount);
        if (!RequestTypeFromName(op.GetString("type", ""), &q.type)) {
          return Status::InvalidArgument("explore case: unknown op type '" +
                                         op.GetString("type", "") + "'");
        }
        ops.push_back(q);
      }
      c.scripts.push_back(std::move(ops));
    }
  }
  if (const JsonValue* ch = v.Find("choices")) {
    if (!ch->is_array()) {
      return Status::InvalidArgument("explore case: choices not an array");
    }
    for (const JsonValue& x : ch->as_array()) {
      if (!x.is_int() || x.as_int() < 0) {
        return Status::InvalidArgument("explore case: bad choice entry");
      }
      c.choices.push_back(static_cast<uint32_t>(x.as_int()));
    }
  }
  return c;
}

ExploreRunResult RunExploreCase(const ExploreCase& c,
                                sim::ScheduleOracle* oracle) {
  std::unique_ptr<sim::ScheduleOracle> owned;
  if (oracle == nullptr) {
    owned = MakeOracle(c);
    oracle = owned.get();
  }
  oracle->set_window(c.window);

  if (!c.mutation.empty()) SetMutationForTest(c.mutation.c_str(), true);
  HistoryRecorder history;
  ExperimentOptions opts = MakeExploreOptions(c);
  opts.oracle = oracle;
  opts.history = &history;
  Experiment e(opts);
  e.Setup();
  oracle->set_state_hash_fn([&e]() { return DigestState(e); });
  const ExperimentResult r = e.Run();
  oracle->set_state_hash_fn(nullptr);
  if (!c.mutation.empty()) SetMutationForTest(c.mutation.c_str(), false);

  ExploreRunResult out;
  out.trace = oracle->trace();
  out.choices.reserve(out.trace.size());
  for (const sim::ChoicePoint& cp : out.trace) out.choices.push_back(cp.chosen);
  out.violations = r.violations;
  out.dropped_violations = r.dropped_violations;
  out.events_executed = r.events_executed;
  out.ops_recorded = history.size();
  out.obs = r.obs;

  CheckOptions copts;
  const bool checkable = CheckPresetFor(c.system, c.max_tokens, &copts);
  if (checkable) {
    out.check = CheckHistory(history.History(/*entity=*/0), copts);
  }
  if (checkable && !out.check.ok) {
    out.history_failure = copts.mode == CheckOptions::Mode::kBoundedSafety
                              ? "bounded_safety"
                              : "linearizability";
  }
  out.failed_check = out.violations.empty() ? out.history_failure
                                            : out.violations.front().check;
  return out;
}

DfsStats ExploreDfs(const ExploreCase& base, const DfsOptions& dopts) {
  DfsStats st;
  std::vector<std::vector<uint32_t>> frontier;
  frontier.push_back({});
  std::unordered_set<uint64_t> seen_runs;
  std::unordered_set<uint64_t> seen_states;

  while (!frontier.empty() && st.runs < dopts.max_runs) {
    std::vector<uint32_t> prefix = std::move(frontier.back());
    frontier.pop_back();

    ExploreCase c = base;
    c.scheduler = SchedulerKind::kReplay;
    c.choices = prefix;
    sim::ReplayOracle oracle(prefix);
    const ExploreRunResult r = RunExploreCase(c, &oracle);
    ++st.runs;

    uint64_t sig = 1469598103934665603ull;
    for (const sim::ChoicePoint& cp : r.trace) {
      sig ^= cp.state_hash + cp.chosen;
      sig *= 1099511628211ull;
      seen_states.insert(cp.state_hash);
    }
    st.states = seen_states.size();

    if (r.violated()) {
      ++st.violations;
      if (st.failing_choices.empty() && st.failed_check.empty()) {
        st.failed_check = r.failed_check;
        st.failing_choices = r.choices;
        TrimTrailingZeros(&st.failing_choices);
      }
    }

    if (dopts.prune_states && !seen_runs.insert(sig).second) {
      ++st.prunes;
      continue;
    }

    // Branch at every decision index past the forced prefix (the recorded
    // choices up to index j are the prefix plus FIFO zeros, so each child
    // prefix pins a distinct first deviation — every bounded choice
    // sequence is generated exactly once).
    const size_t lo = prefix.size();
    const size_t hi =
        std::min<size_t>(r.trace.size(), dopts.max_depth);
    for (size_t j = lo; j < hi; ++j) {
      for (uint32_t alt = 1; alt < r.trace[j].num_candidates; ++alt) {
        std::vector<uint32_t> child(r.choices.begin(),
                                    r.choices.begin() +
                                        static_cast<ptrdiff_t>(j));
        child.push_back(alt);
        frontier.push_back(std::move(child));
        st.deepest_branch =
            std::max(st.deepest_branch, static_cast<uint32_t>(j + 1));
      }
    }
  }
  st.exhausted = frontier.empty();
  return st;
}

ExploreCase ShrinkChoices(const ExploreCase& c, int max_runs,
                          int* runs_used) {
  ExploreCase out = c;
  out.scheduler = SchedulerKind::kReplay;
  TrimTrailingZeros(&out.choices);
  // Removing a choice shifts the later decisions earlier, which
  // ReplayOracle tolerates (clamping), so every candidate is runnable.
  out.choices = Ddmin(
      out.choices,
      [&](const std::vector<uint32_t>& choices) {
        ExploreCase candidate = out;
        candidate.choices = choices;
        const ExploreRunResult r = RunExploreCase(candidate);
        return FailsCheck(r.violations, r.history_failure, c.violation_check);
      },
      max_runs, runs_used);
  return out;
}

}  // namespace samya::harness
