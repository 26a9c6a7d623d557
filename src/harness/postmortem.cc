#include "harness/postmortem.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace samya::harness {

namespace {

JsonValue ViolationToJson(const AuditViolation& v) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("at", v.at);
  doc.Set("check", v.check);
  doc.Set("detail", v.detail);
  return doc;
}

AuditViolation ViolationFromJson(const JsonValue& v) {
  AuditViolation out;
  out.at = v.GetInt("at", 0);
  out.check = v.GetString("check", "");
  out.detail = v.GetString("detail", "");
  return out;
}

/// Integer field `key` of a flight event, which must lie in [lo, hi]. A
/// missing field reads as 0 unless `required`.
Result<int64_t> EventField(const JsonValue& v, const char* key, int64_t lo,
                           int64_t hi, bool required) {
  const JsonValue* f = v.Find(key);
  if (f == nullptr) {
    if (!required) return int64_t{0};
    return Status::InvalidArgument(std::string("flight event: missing '") +
                                   key + "'");
  }
  if (!f->is_int() || f->as_int() < lo || f->as_int() > hi) {
    return Status::InvalidArgument(std::string("flight event: '") + key +
                                   "' out of range");
  }
  return f->as_int();
}

/// A bundle is outside input: every field is range-checked before the
/// derivation indexes by it.
Result<obs::FlightEvent> FlightEventFromJson(const JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("flight event: not an object");
  }
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  obs::FlightEvent ev;
  SAMYA_ASSIGN_OR_RETURN(ev.at, EventField(v, "at", kMin, kMax, true));
  SAMYA_ASSIGN_OR_RETURN(
      const int64_t site,
      EventField(v, "site", 0, std::numeric_limits<int32_t>::max(), true));
  SAMYA_ASSIGN_OR_RETURN(
      const int64_t seq,
      EventField(v, "seq", 0, std::numeric_limits<uint32_t>::max(), false));
  SAMYA_ASSIGN_OR_RETURN(
      const int64_t code,
      EventField(v, "code", 0, std::numeric_limits<uint16_t>::max(), false));
  ev.site = static_cast<int32_t>(site);
  ev.seq = static_cast<uint32_t>(seq);
  ev.code = static_cast<uint16_t>(code);
  const JsonValue* kind = v.Find("kind");
  if (kind == nullptr || !kind->is_string()) {
    return Status::InvalidArgument("flight event: missing 'kind'");
  }
  if (!obs::FlightRecorder::KindFromName(kind->as_string(), &ev.kind)) {
    return Status::InvalidArgument("flight event: unknown kind '" +
                                   kind->as_string() + "'");
  }
  SAMYA_ASSIGN_OR_RETURN(ev.a, EventField(v, "a", kMin, kMax, false));
  SAMYA_ASSIGN_OR_RETURN(ev.b, EventField(v, "b", kMin, kMax, false));
  SAMYA_ASSIGN_OR_RETURN(ev.c, EventField(v, "c", kMin, kMax, false));
  return ev;
}

Result<JsonValue> ReadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::Unavailable("cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return JsonParse(buf.str());
}

}  // namespace

JsonValue PostmortemBundle::ToJson() const {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("format", "samya-postmortem-v1");
  doc.Set("source", source);
  doc.Set("failed_check", failed_check);
  doc.Set("dropped_violations", static_cast<int64_t>(dropped_violations));
  JsonValue vs = JsonValue::MakeArray();
  for (const AuditViolation& v : violations) vs.Append(ViolationToJson(v));
  doc.Set("violations", std::move(vs));
  // Sections are emitted even when null so a loaded-and-rewritten bundle is
  // byte-identical regardless of which sections the producer had.
  doc.Set("reproducer", reproducer);
  doc.Set("metrics", metrics);
  doc.Set("flight", flight);
  return doc;
}

Result<PostmortemBundle> PostmortemBundle::FromJson(const JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("postmortem: not an object");
  }
  const std::string format = v.GetString("format", "");
  if (format != "samya-postmortem-v1") {
    return Status::InvalidArgument("postmortem: unknown format '" + format +
                                   "'");
  }
  PostmortemBundle b;
  b.source = v.GetString("source", "");
  b.failed_check = v.GetString("failed_check", "");
  b.dropped_violations =
      static_cast<uint64_t>(v.GetInt("dropped_violations", 0));
  if (const JsonValue* vs = v.Find("violations"); vs != nullptr) {
    if (!vs->is_array()) {
      return Status::InvalidArgument("postmortem: violations not an array");
    }
    for (const JsonValue& item : vs->as_array()) {
      b.violations.push_back(ViolationFromJson(item));
    }
  }
  if (const JsonValue* r = v.Find("reproducer")) b.reproducer = *r;
  if (const JsonValue* m = v.Find("metrics")) b.metrics = *m;
  if (const JsonValue* f = v.Find("flight")) b.flight = *f;
  return b;
}

PostmortemBundle MakePostmortem(const std::string& source,
                                const std::string& failed_check,
                                JsonValue reproducer,
                                const ExperimentResult& r) {
  PostmortemBundle b;
  b.source = source;
  b.failed_check = failed_check;
  if (b.failed_check.empty() && !r.violations.empty()) {
    b.failed_check = r.violations.front().check;
  }
  b.reproducer = std::move(reproducer);
  b.violations = r.violations;
  b.dropped_violations = r.dropped_violations;
  if (r.obs != nullptr) {
    b.metrics = BuildMetricsSnapshot(r);
    if (const obs::FlightRecorder* flight = r.obs->flight()) {
      b.flight = flight->ToJson();
    }
  }
  return b;
}

PostmortemBundle MakePostmortem(const std::string& source,
                                JsonValue reproducer,
                                const ExploreRunResult& r) {
  PostmortemBundle b;
  b.source = source;
  b.failed_check = r.failed_check;
  b.reproducer = std::move(reproducer);
  b.violations = r.violations;
  b.dropped_violations = r.dropped_violations;
  if (!r.check.ok) {
    AuditViolation v;
    // With no auditor violations, failed_check IS the checker's verdict
    // name ("linearizability" / "bounded_safety"); otherwise it names the
    // auditor check and the history verdict is a second, distinct finding.
    v.check = r.violations.empty() ? r.failed_check : "history_check";
    v.detail = r.check.violation;
    b.violations.push_back(std::move(v));
  }
  if (r.obs != nullptr) {
    if (const obs::FlightRecorder* flight = r.obs->flight()) {
      b.flight = flight->ToJson();
    }
  }
  return b;
}

Status WritePostmortem(const PostmortemBundle& b, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Unavailable("cannot open " + path + " for writing");
  out << JsonDump(b.ToJson(), 2) << "\n";
  if (!out) return Status::Unavailable("short write to " + path);
  return Status::OK();
}

Result<PostmortemBundle> LoadPostmortem(const std::string& path) {
  SAMYA_ASSIGN_OR_RETURN(JsonValue doc, ReadJsonFile(path));
  return PostmortemBundle::FromJson(doc);
}

Result<CaseReplay> ReplayCaseFile(const std::string& path,
                                  const std::string& source) {
  SAMYA_ASSIGN_OR_RETURN(JsonValue doc, ReadJsonFile(path));
  CaseReplay out;
  const auto judge = [&out](const std::vector<AuditViolation>& violations,
                            const std::string& history_failure) {
    out.failed_check =
        violations.empty() ? history_failure : violations.front().check;
    out.as_recorded =
        out.expected_check.empty()
            ? out.failed_check.empty()
            : FailsCheck(violations, history_failure, out.expected_check);
  };
  const std::string format = doc.GetString("format", "");
  if (format == "samya-chaos-case-v1") {
    SAMYA_ASSIGN_OR_RETURN(ChaosCase c, ChaosCase::FromJson(doc));
    const ExperimentResult r = RunChaosCase(c, AuditOptions());
    out.kind = "chaos";
    out.expected_check = c.violation_check;
    judge(r.violations, /*history_failure=*/"");
    out.events_executed = r.events_executed;
    out.ops = r.aggregate.TotalCommitted();
    out.bundle = MakePostmortem(source, c.violation_check, c.ToJson(), r);
  } else if (format == "samya-explore-case-v1") {
    SAMYA_ASSIGN_OR_RETURN(ExploreCase c, ExploreCase::FromJson(doc));
    ExploreRunResult r = RunExploreCase(c);
    out.kind = "explore";
    out.expected_check = c.violation_check;
    judge(r.violations, r.history_failure);
    out.events_executed = r.events_executed;
    out.ops = r.ops_recorded;
    out.bundle = MakePostmortem(source, c.ToJson(), r);
    out.decisions = std::move(r.trace);
  } else {
    return Status::InvalidArgument("unknown case format '" + format + "'");
  }
  return out;
}

Result<std::vector<obs::FlightEvent>> FlightEventsOf(
    const PostmortemBundle& b) {
  std::vector<obs::FlightEvent> out;
  if (b.flight.is_null()) return out;
  if (!b.flight.is_object()) {
    return Status::InvalidArgument("postmortem: flight not an object");
  }
  const JsonValue* events = b.flight.Find("events");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument("postmortem: flight has no events array");
  }
  out.reserve(events->as_array().size());
  for (const JsonValue& item : events->as_array()) {
    SAMYA_ASSIGN_OR_RETURN(obs::FlightEvent ev, FlightEventFromJson(item));
    out.push_back(ev);
  }
  return out;
}

SimTime FlightCompleteFrom(const PostmortemBundle& b) {
  if (!b.flight.is_object()) return 0;
  return b.flight.GetInt("complete_from", 0);
}

std::string FormatFlightEvent(const obs::FlightEvent& ev) {
  char buf[192];
  const char* kind = obs::FlightRecorder::KindName(ev.kind);
  const char* code = obs::FlightRecorder::CodeName(ev.kind, ev.code);
  int n = std::snprintf(buf, sizeof(buf), "t=%" PRId64 "us site=%d %s", ev.at,
                        ev.site, kind);
  if (code[0] != '\0') {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n), "/%s",
                       code);
  } else if (ev.code != 0) {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                       "/code%u", ev.code);
  }
  // Trailing zero payload fields carry no information; keep lines short.
  const int fields = ev.c != 0 ? 3 : (ev.b != 0 ? 2 : (ev.a != 0 ? 1 : 0));
  const char* names[] = {"a", "b", "c"};
  const int64_t values[] = {ev.a, ev.b, ev.c};
  for (int i = 0; i < fields; ++i) {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                       " %s=%" PRId64, names[i], values[i]);
  }
  return std::string(buf, static_cast<size_t>(n));
}

PostmortemDiff DiffPostmortems(const PostmortemBundle& a,
                               const PostmortemBundle& b) {
  PostmortemDiff d;
  Result<std::vector<obs::FlightEvent>> ea = FlightEventsOf(a);
  Result<std::vector<obs::FlightEvent>> eb = FlightEventsOf(b);
  if (!ea.ok() || !eb.ok() || a.flight.is_null() || b.flight.is_null()) {
    return d;  // not comparable
  }
  d.comparable = true;
  // A wrapped ring is complete only from complete_from on; comparing the
  // union of both windows would flag the missing prefix as divergence.
  d.compare_from = std::max(FlightCompleteFrom(a), FlightCompleteFrom(b));
  const auto trim = [&](std::vector<obs::FlightEvent>& evs) {
    size_t keep = 0;
    for (const obs::FlightEvent& ev : evs) {
      if (ev.at >= d.compare_from) evs[keep++] = ev;
    }
    evs.resize(keep);
  };
  std::vector<obs::FlightEvent>& va = ea.value();
  std::vector<obs::FlightEvent>& vb = eb.value();
  trim(va);
  trim(vb);
  const size_t common = std::min(va.size(), vb.size());
  for (size_t i = 0; i < common; ++i) {
    if (!(va[i] == vb[i])) {
      d.diverged = true;
      d.divergence_index = i;
      d.event_a = FormatFlightEvent(va[i]);
      d.event_b = FormatFlightEvent(vb[i]);
      d.compared = i;
      return d;
    }
  }
  d.compared = common;
  if (va.size() != vb.size()) {
    d.diverged = true;
    d.divergence_index = common;
    d.event_a = common < va.size() ? FormatFlightEvent(va[common])
                                   : std::string("<end of history>");
    d.event_b = common < vb.size() ? FormatFlightEvent(vb[common])
                                   : std::string("<end of history>");
  }
  return d;
}

namespace {

/// Avantan wire types, election_get_value (200) through status_reply (207).
bool IsAvantanType(uint32_t type) { return type >= 200 && type <= 207; }

/// Nearest-rank percentile of sorted durations (0 when empty).
int64_t PercentileOf(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t idx = static_cast<size_t>(rank + 0.5);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

const char* FateName(MessageFate fate) {
  switch (fate) {
    case MessageFate::kInFlight: return "in_flight";
    case MessageFate::kDelivered: return "delivered";
    case MessageFate::kDropped: return "dropped";
  }
  return "?";
}

int64_t SpanDuration(const FlightSpan& s) { return s.end - s.start; }

}  // namespace

FlightViews DeriveFlightViews(const std::vector<obs::FlightEvent>& evs,
                              SimTime end) {
  FlightViews v;
  v.end = end != 0 || evs.empty() ? end : evs.back().at;
  constexpr size_t kNone = ~size_t{0};
  struct Open {
    size_t round = kNone;
    size_t phase = kNone;
  };
  std::unordered_map<int32_t, Open> sites;
  std::map<std::pair<int32_t, int64_t>, size_t> waits;   // (site, request)
  std::map<std::pair<int32_t, int64_t>, size_t> epochs;  // (site, epoch)
  std::map<std::pair<int32_t, int64_t>, size_t> reconciles;
  std::unordered_map<uint64_t, size_t> sends;  // (from, seq) -> message
  const auto open = [&v](const char* name, const char* category,
                         const obs::FlightEvent& ev) {
    v.spans.push_back(FlightSpan{name, category, ev.site, ev.a, ev.at, -1});
    return v.spans.size() - 1;
  };
  const auto close = [&v](size_t* idx, SimTime at) {
    if (*idx != kNone) v.spans[*idx].end = at;
    *idx = kNone;
  };
  const auto close_keyed = [&](std::map<std::pair<int32_t, int64_t>, size_t>*
                                   keyed,
                               const obs::FlightEvent& ev) {
    auto it = keyed->find({ev.site, ev.a});
    if (it == keyed->end()) return;
    close(&it->second, ev.at);
    keyed->erase(it);
  };

  for (const obs::FlightEvent& ev : evs) {
    switch (ev.kind) {
      case obs::FlightKind::kPhase: {
        Open& o = sites[ev.site];
        switch (ev.code) {
          case obs::kPhaseEngage:
            // A round still open here lost its end to a crash.
            close(&o.phase, ev.at);
            close(&o.round, ev.at);
            o.round = open("avantan.engage", "round", ev);
            break;
          case obs::kPhaseElectionStart: {
            close(&o.phase, ev.at);
            // A leader engages itself just before its election_start, so
            // that engage is where its round begins.
            FlightSpan* r = o.round != kNone ? &v.spans[o.round] : nullptr;
            if (r != nullptr && r->start == ev.at && r->key == ev.a) {
              r->name = "avantan.round";
            } else {
              close(&o.round, ev.at);
              o.round = open("avantan.round", "round", ev);
            }
            o.phase = open("election", "phase", ev);
            break;
          }
          case obs::kPhaseRecoveryStart:
            close(&o.phase, ev.at);
            o.phase = open("recovery", "phase", ev);
            break;
          case obs::kPhaseAcceptStart:
            close(&o.phase, ev.at);
            o.phase = open("accept", "phase", ev);
            break;
          case obs::kPhaseDecided:
            close(&o.phase, ev.at);
            break;
          case obs::kPhaseFinish:
          case obs::kPhaseAbort:
            close(&o.phase, ev.at);
            close(&o.round, ev.at);
            break;
          default:
            break;
        }
        break;
      }
      case obs::FlightKind::kRequest:
        if (ev.code == obs::kRequestAnswered) {
          close_keyed(&waits, ev);
        } else {
          waits[{ev.site, ev.a}] = open(
              ev.code == obs::kRequestRead ? "request.read" : "request.queued",
              "request", ev);
        }
        break;
      case obs::FlightKind::kEpochEnter:
        epochs[{ev.site, ev.a}] = open("disconnected", "epoch", ev);
        break;
      case obs::FlightKind::kEpochExit:
        close_keyed(&epochs, ev);
        break;
      case obs::FlightKind::kReconcileOffer:
        // A re-sent offer keeps the first one's start; the first ack ends it.
        if (reconciles.count({ev.site, ev.a}) == 0) {
          reconciles[{ev.site, ev.a}] = open("reconcile", "epoch", ev);
        }
        break;
      case obs::FlightKind::kReconcileAck:
        close_keyed(&reconciles, ev);
        break;
      case obs::FlightKind::kMsgSend: {
        MessageFlight m;
        m.sent = ev.at;
        m.from = ev.site;
        m.to = static_cast<int32_t>(ev.b);
        m.type = static_cast<uint32_t>(ev.a);
        m.bytes = ev.c;
        if (ev.code == obs::kSendDroppedAtSend) {
          m.fate = MessageFate::kDropped;
          m.arrived = ev.at;
        } else {
          sends[(static_cast<uint64_t>(ev.site) << 32) | ev.seq] =
              v.messages.size();
        }
        v.messages.push_back(m);
        break;
      }
      case obs::FlightKind::kMsgDeliver: {
        if (ev.c < 0 || ev.c > std::numeric_limits<uint32_t>::max()) break;
        auto it = sends.find((static_cast<uint64_t>(ev.b) << 32) |
                             static_cast<uint64_t>(ev.c));
        if (it == sends.end()) break;
        MessageFlight& m = v.messages[it->second];
        if (m.type != static_cast<uint32_t>(ev.a) || m.to != ev.site) break;
        m.arrived = ev.at;
        m.fate = ev.code == obs::kDeliverOk ? MessageFate::kDelivered
                                            : MessageFate::kDropped;
        sends.erase(it);
        break;
      }
      default:
        break;
    }
  }
  for (FlightSpan& span : v.spans) {
    if (span.end < 0) span.end = std::max(v.end, span.start);
  }
  return v;
}

FlightViews FlightViewsOf(const PostmortemBundle& b,
                          const std::vector<obs::FlightEvent>& evs) {
  FlightViews v = DeriveFlightViews(
      evs, b.flight.is_object() ? b.flight.GetInt("end", 0) : 0);
  if (const JsonValue* nodes =
          b.flight.is_object() ? b.flight.Find("nodes") : nullptr;
      nodes != nullptr && nodes->is_array()) {
    for (const JsonValue& n : nodes->as_array()) {
      if (!n.is_object()) continue;
      v.nodes[static_cast<int32_t>(n.GetInt("id", -1))] =
          n.GetString("name", "");
    }
  }
  return v;
}

std::string RenderFlightViews(const FlightViews& v) {
  std::string out;
  char line[256];
  const auto emit = [&out, &line](int n) {
    if (n > 0) {
      out.append(line, std::min(static_cast<size_t>(n), sizeof(line) - 1));
    }
  };

  struct SpanAgg {
    const char* category = "";
    std::vector<int64_t> durs;
  };
  std::map<std::string, SpanAgg> by_name;
  std::vector<const FlightSpan*> rounds;
  std::multimap<std::pair<int32_t, int64_t>, const FlightSpan*> phases;
  std::set<std::pair<int32_t, SimTime>> request_starts;
  size_t leader_rounds = 0;
  for (const FlightSpan& s : v.spans) {
    SpanAgg& agg = by_name[s.name];
    agg.category = s.category;
    agg.durs.push_back(SpanDuration(s));
    const std::string_view cat = s.category;
    if (cat == "round") rounds.push_back(&s);
    if (cat == "phase") phases.emplace(std::make_pair(s.site, s.key), &s);
    if (std::string_view(s.name) == "request.queued") {
      request_starts.emplace(s.site, s.start);
    }
    if (std::string_view(s.name) == "avantan.round") ++leader_rounds;
  }
  if (!by_name.empty()) {
    out += "spans (sim-time µs):\n";
    emit(std::snprintf(line, sizeof(line), "  %-28s %-8s %8s %10s %10s %10s\n",
                       "name", "cat", "count", "p50", "p99", "max"));
    for (auto& [name, agg] : by_name) {
      std::sort(agg.durs.begin(), agg.durs.end());
      emit(std::snprintf(line, sizeof(line),
                         "  %-28s %-8s %8zu %10" PRId64 " %10" PRId64
                         " %10" PRId64 "\n",
                         name.c_str(), agg.category, agg.durs.size(),
                         PercentileOf(agg.durs, 50), PercentileOf(agg.durs, 99),
                         agg.durs.back()));
    }
  }

  if (!rounds.empty()) {
    std::stable_sort(rounds.begin(), rounds.end(),
                     [](const FlightSpan* a, const FlightSpan* b) {
                       return SpanDuration(*a) > SpanDuration(*b);
                     });
    const size_t n = std::min<size_t>(5, rounds.size());
    emit(std::snprintf(line, sizeof(line),
                       "\nslowest %zu rounds (critical path):\n", n));
    for (size_t i = 0; i < n; ++i) {
      const FlightSpan& r = *rounds[i];
      emit(std::snprintf(line, sizeof(line),
                         "  %-26s site=%d instance=%" PRId64 " dur=%" PRId64
                         "us%s\n",
                         r.name, r.site, r.key, SpanDuration(r),
                         request_starts.count({r.site, r.start}) != 0
                             ? " (reactive)"
                             : ""));
      auto range = phases.equal_range({r.site, r.key});
      for (auto it = range.first; it != range.second; ++it) {
        const FlightSpan& ph = *it->second;
        if (ph.start < r.start || ph.start > r.end) continue;
        emit(std::snprintf(line, sizeof(line),
                           "    +%-8" PRId64 " %-20s %" PRId64 "us\n",
                           ph.start - r.start, ph.name, SpanDuration(ph)));
      }
    }
  }

  struct MsgAgg {
    uint64_t count = 0;
    uint64_t dropped = 0;
    uint64_t in_flight = 0;
    int64_t bytes = 0;
    std::vector<int64_t> flight;
  };
  std::map<std::string, MsgAgg> by_type;
  std::map<std::string, uint64_t> avantan;
  for (const MessageFlight& m : v.messages) {
    MsgAgg& a = by_type[obs::MessageTypeName(m.type)];
    ++a.count;
    a.bytes += m.bytes;
    switch (m.fate) {
      case MessageFate::kDelivered:
        a.flight.push_back(m.arrived - m.sent);
        break;
      case MessageFate::kDropped:
        ++a.dropped;
        break;
      case MessageFate::kInFlight:
        ++a.in_flight;
        break;
    }
    if (IsAvantanType(m.type)) ++avantan[obs::MessageTypeName(m.type)];
  }
  if (!by_type.empty()) {
    out += "\nmessages:\n";
    emit(std::snprintf(line, sizeof(line), "  %-24s %10s %8s %9s %12s %12s\n",
                       "type", "count", "dropped", "in_flight", "bytes",
                       "flight p50"));
    for (auto& [name, a] : by_type) {
      std::sort(a.flight.begin(), a.flight.end());
      emit(std::snprintf(line, sizeof(line),
                         "  %-24s %10" PRIu64 " %8" PRIu64 " %9" PRIu64
                         " %12" PRId64 " %10" PRId64 "us\n",
                         name.c_str(), a.count, a.dropped, a.in_flight,
                         a.bytes, PercentileOf(a.flight, 50)));
    }
  }

  if (leader_rounds > 0) {
    emit(std::snprintf(line, sizeof(line),
                       "\nAvantan messages per leader round (%zu rounds):\n",
                       leader_rounds));
    for (const auto& [name, count] : avantan) {
      emit(std::snprintf(line, sizeof(line), "  %-24s %8.2f\n", name.c_str(),
                         static_cast<double>(count) /
                             static_cast<double>(leader_rounds)));
    }
  }
  return out;
}

Status ExportFlightChromeTrace(const PostmortemBundle& b,
                               const std::string& path) {
  SAMYA_ASSIGN_OR_RETURN(std::vector<obs::FlightEvent> evs,
                         FlightEventsOf(b));
  const FlightViews v = FlightViewsOf(b, evs);
  JsonValue events = JsonValue::MakeArray();
  // Name each node's process so Perfetto tracks read "site 3 (...)", not
  // "pid 3"; sites the bundle does not name fall back to "site N".
  std::map<int32_t, std::string> names = v.nodes;
  for (const obs::FlightEvent& ev : evs) {
    if (names.count(ev.site) == 0) {
      names[ev.site] = "site " + std::to_string(ev.site);
    }
  }
  for (const auto& [pid, name] : names) {
    JsonValue m = JsonValue::MakeObject();
    m.Set("name", "process_name");
    m.Set("ph", "M");
    m.Set("pid", int64_t{pid});
    JsonValue args = JsonValue::MakeObject();
    args.Set("name", name);
    m.Set("args", std::move(args));
    events.Append(std::move(m));
  }
  for (const FlightSpan& s : v.spans) {
    // Async pair keyed by (cat, id): a round and its phases share the
    // instance id, so they stack on one track per site.
    for (const bool begin : {true, false}) {
      JsonValue e = JsonValue::MakeObject();
      e.Set("name", s.name);
      e.Set("cat", s.category);
      e.Set("ph", begin ? "b" : "e");
      e.Set("id", s.key);
      e.Set("pid", int64_t{s.site});
      e.Set("tid", int64_t{0});
      e.Set("ts", begin ? s.start : s.end);
      events.Append(std::move(e));
    }
  }
  for (const MessageFlight& m : v.messages) {
    JsonValue x = JsonValue::MakeObject();
    x.Set("name", obs::MessageTypeName(m.type));
    x.Set("cat", "msg");
    x.Set("ph", "X");
    x.Set("pid", int64_t{m.from});
    x.Set("tid", int64_t{1});
    x.Set("ts", m.sent);
    x.Set("dur", m.arrived >= m.sent ? m.arrived - m.sent : int64_t{0});
    JsonValue args = JsonValue::MakeObject();
    args.Set("to", int64_t{m.to});
    args.Set("type", int64_t{m.type});
    args.Set("bytes", m.bytes);
    args.Set("fate", FateName(m.fate));
    x.Set("args", std::move(args));
    events.Append(std::move(x));
  }
  for (const obs::FlightEvent& ev : evs) {
    // Message events are already the "X" flights above.
    if (ev.kind == obs::FlightKind::kMsgSend ||
        ev.kind == obs::FlightKind::kMsgDeliver) {
      continue;
    }
    JsonValue i = JsonValue::MakeObject();
    const char* code = obs::FlightRecorder::CodeName(ev.kind, ev.code);
    std::string name = obs::FlightRecorder::KindName(ev.kind);
    if (code[0] != '\0') {
      name += '/';
      name += code;
    }
    i.Set("name", std::move(name));
    i.Set("cat", "flight");
    i.Set("ph", "i");
    i.Set("s", "p");
    i.Set("pid", int64_t{ev.site});
    // Violations get their own thread track so they stand out in the UI.
    i.Set("tid", ev.kind == obs::FlightKind::kViolation ? int64_t{9}
                                                        : int64_t{0});
    i.Set("ts", ev.at);
    JsonValue args = JsonValue::MakeObject();
    args.Set("a", ev.a);
    args.Set("b", ev.b);
    args.Set("c", ev.c);
    args.Set("seq", int64_t{ev.seq});
    i.Set("args", std::move(args));
    events.Append(std::move(i));
  }
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  std::ofstream out(path);
  if (!out) return Status::Unavailable("cannot open " + path + " for writing");
  out << JsonDump(doc) << "\n";
  if (!out) return Status::Unavailable("short write to " + path);
  return Status::OK();
}

}  // namespace samya::harness
