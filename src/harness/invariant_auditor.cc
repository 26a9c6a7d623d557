#include "harness/invariant_auditor.h"

#include <algorithm>

#include "common/codec.h"
#include "common/logging.h"
#include "common/macros.h"
#include "core/site.h"
#include "harness/experiment.h"

namespace samya::harness {

bool FailsCheck(const std::vector<AuditViolation>& violations,
                const std::string& history_failure, const std::string& check) {
  if (check.empty()) return !violations.empty() || !history_failure.empty();
  for (const AuditViolation& v : violations) {
    if (v.check == check) return true;
  }
  return history_failure == check;
}

InvariantAuditor::InvariantAuditor(Experiment* experiment, AuditOptions opts)
    : experiment_(experiment), opts_(opts) {}

bool InvariantAuditor::Quiescent() const {
  for (const core::Site* site : experiment_->samya_sites()) {
    // A disconnected site's pool is locally exact, but its op-log window
    // has not been folded back yet, so the fleet-wide equality only becomes
    // checkable again after the reconcile handshake (DESIGN.md §12).
    if (!site->alive() || site->frozen() || site->disconnected()) {
      return false;
    }
  }
  for (const baselines::BoundedCounterSite* site :
       experiment_->bounded_sites()) {
    // A crashed bounded-counter site reads balance 0 while its committed
    // stats stay in the ledger; the equality is exact whenever all alive.
    if (!site->alive()) return false;
  }
  return true;
}

namespace {

uint16_t ViolationCode(const std::string& check) {
  if (check == "conservation") return obs::kViolationConservation;
  if (check == "constraint") return obs::kViolationConstraint;
  if (check == "non_negative") return obs::kViolationNonNegative;
  if (check == "agreement") return obs::kViolationAgreement;
  if (check == "liveness") return obs::kViolationLiveness;
  if (check == "reconcile") return obs::kViolationReconcile;
  return obs::kViolationOther;
}

}  // namespace

void InvariantAuditor::Report(const std::string& check, std::string detail,
                              int32_t site) {
  if (violations_.size() >= kMaxViolations) {
    // Past the cap: keep counting instead of silently vanishing, so a
    // violation flood is visible in the results JSON and the run summary.
    ++dropped_violations_;
    return;
  }
  const SimTime now = experiment_->cluster().env().Now();
  SAMYA_LOG_ERROR("AUDIT t=%s %s: %s", FormatDuration(now).c_str(),
                  check.c_str(), detail.c_str());
  // Drop a marker into the flight recorder so the post-mortem timeline
  // shows exactly where in the protocol history the check fired.
  if (obs::FlightRecorder* flight = experiment_->cluster().net().flight()) {
    flight->Record(now, std::max(site, 0), obs::FlightKind::kViolation,
                   ViolationCode(check),
                   static_cast<int64_t>(violations_.size()));
  }
  violations_.push_back({now, check, std::move(detail)});
}

void InvariantAuditor::OnInstanceEvent(const core::Site& site,
                                       core::InstanceId instance,
                                       const core::StateList* value) {
  if (!opts_.check_agreement) return;
  const int32_t site_id = site.id();
  if (value == nullptr) {
    // Abort. In any mode a durable abort by a *participant* of a decided
    // value is a Theorem 2 violation: the deciders reallocate the aborter's
    // pooled tokens while the aborter keeps them. Aborts by sites outside
    // the decided R_t are routine (a cohort probed during the election but
    // left out of the participant list gives up via its watchdog). In
    // majority mode aborted elections legitimately re-run and commit, so
    // the conflict check does not apply at all.
    if (!any_mode_) return;
    any_mode_aborts_.insert({instance, site_id});
    auto decided = decided_participants_.find(instance);
    if (decided != decided_participants_.end() &&
        std::find(decided->second.begin(), decided->second.end(), site_id) !=
            decided->second.end()) {
      Report("agreement",
             "participant site " + std::to_string(site_id) +
                 " aborted instance " + std::to_string(instance) +
                 " already decided by site " +
                 std::to_string(first_decider_[instance]),
           site_id);
    }
    return;
  }

  BufferWriter w;
  value->EncodeTo(w);
  auto [it, inserted] = decided_encodings_.try_emplace(instance, w.buffer());
  if (inserted) {
    first_decider_[instance] = site_id;
    std::vector<int32_t> participants;
    for (sim::NodeId p : value->Participants()) {
      participants.push_back(static_cast<int32_t>(p));
    }
    decided_participants_[instance] = std::move(participants);
  } else if (it->second != w.buffer()) {
    Report("agreement",
           "divergent decisions for instance " + std::to_string(instance) +
               ": site " + std::to_string(site_id) + " decided " +
               value->ToString() + ", site " +
               std::to_string(first_decider_[instance]) +
               " decided differently",
           site_id);
  }
  if (any_mode_) {
    const auto& participants = decided_participants_[instance];
    for (const auto& [aborted_instance, aborter] : any_mode_aborts_) {
      if (aborted_instance != instance) continue;
      if (std::find(participants.begin(), participants.end(), aborter) ==
          participants.end()) {
        continue;  // non-participant abort: routine
      }
      Report("agreement",
             "site " + std::to_string(site_id) + " decided instance " +
                 std::to_string(instance) +
                 " durably aborted by participant site " +
                 std::to_string(aborter),
             site_id);
    }
  }
}

void InvariantAuditor::CheckTokenInvariants(bool final_audit) {
  const int64_t ledger = experiment_->ServerNetAcquires();
  if (opts_.check_constraint) {
    // Eq. 1 as an inequality holds continuously: committed-and-unreleased
    // acquires can never exceed M_e, regardless of crashes or freezes.
    if (ledger > max_tokens_) {
      Report("constraint", "net committed acquires " + std::to_string(ledger) +
                               " exceed M_e " + std::to_string(max_tokens_));
    }
    for (const core::Site* site : experiment_->samya_sites()) {
      if (site->tokens_left() < 0) {
        Report("non_negative",
               "site " + std::to_string(site->id()) + " pool is " +
                   std::to_string(site->tokens_left()),
               site->id());
      }
    }
    bool all_bounded_alive = !experiment_->bounded_sites().empty();
    int64_t rights_sum = 0;
    for (const baselines::BoundedCounterSite* site :
         experiment_->bounded_sites()) {
      if (!site->alive()) {
        all_bounded_alive = false;
        continue;
      }
      if (site->local_rights() < 0) {
        Report("non_negative",
               "bounded-counter site " + std::to_string(site->id()) +
                   " local rights are " +
                   std::to_string(site->local_rights()),
               site->id());
      }
      rights_sum += site->local_rights();
    }
    // Rights views are stale-*low* (incoming credits under-counted, own
    // debits exact), so the consumable total can never exceed the real
    // remainder. The bound only composes when every row owner is up.
    if (all_bounded_alive && rights_sum > max_tokens_ - ledger) {
      Report("constraint",
             "bounded-counter rights sum " + std::to_string(rights_sum) +
                 " exceeds remaining tokens " +
                 std::to_string(max_tokens_ - ledger));
    }
  }
  if (opts_.check_conservation) {
    // The equality needs a quiescent instant unless the guard is off.
    if (opts_.require_quiescence && !Quiescent()) return;
    const int64_t pools = experiment_->TotalSiteTokens();
    if (pools + ledger != max_tokens_) {
      Report("conservation",
             "site pools " + std::to_string(pools) + " + net acquires " +
                 std::to_string(ledger) + " != M_e " +
                 std::to_string(max_tokens_) +
                 (final_audit ? " (final)" : ""));
    }
  }
}

void InvariantAuditor::Tick() {
  ++ticks_;
  CheckTokenInvariants(/*final_audit=*/false);
}

void InvariantAuditor::Install() {
  SAMYA_CHECK(opts_.enabled);
  const ExperimentOptions& eopts = experiment_->options();
  any_mode_ = eopts.system == SystemKind::kSamyaAny ||
              eopts.system == SystemKind::kSamyaAnyNoPredict;
  max_tokens_ = eopts.max_tokens;
  // Keep ticking through the post-load drain, then stop so the event queue
  // empties (RunUntilIdle in tests must terminate).
  stop_ticking_after_ = eopts.duration + Seconds(9);

  for (core::Site* site : experiment_->samya_sites()) {
    site->set_instance_observer(
        [this](const core::Site& s, core::InstanceId instance,
               const core::StateList* value) {
          OnInstanceEvent(s, instance, value);
        });
  }

  sim::SimEnvironment& env = experiment_->cluster().env();
  ScheduleNextTick();

  if (opts_.check_liveness && opts_.heal_time > 0 &&
      opts_.heal_time + opts_.liveness_grace < opts_.load_end) {
    probe_armed_ = true;
    env.ScheduleAt(opts_.heal_time + opts_.liveness_grace, [this] {
      probe_fired_ = true;
      committed_at_probe_ = CommittedOps();
    });
  }
}

uint64_t InvariantAuditor::CommittedOps() const {
  uint64_t total = 0;
  for (const core::Site* site : experiment_->samya_sites()) {
    total += site->stats().committed_acquires +
             site->stats().committed_releases + site->stats().committed_reads;
  }
  for (const baselines::BoundedCounterSite* site :
       experiment_->bounded_sites()) {
    total += site->stats().committed_acquires +
             site->stats().committed_releases + site->stats().committed_reads;
  }
  return total;
}

void InvariantAuditor::ScheduleNextTick() {
  sim::SimEnvironment& env = experiment_->cluster().env();
  if (env.Now() >= stop_ticking_after_) return;
  env.Schedule(opts_.period, [this] {
    Tick();
    ScheduleNextTick();
  });
}

void InvariantAuditor::FinalAudit() {
  CheckTokenInvariants(/*final_audit=*/true);
  if (!opts_.check_liveness || opts_.heal_time == 0) return;

  const SimTime now = experiment_->cluster().env().Now();
  // A site still frozen long after the final heal is stuck: its engaged
  // instance should have decided or aborted within the grace window.
  for (const core::Site* site : experiment_->samya_sites()) {
    if (!site->alive()) {
      Report("liveness",
             "site " + std::to_string(site->id()) +
                 " still crashed after the terminal heal",
             site->id());
      continue;
    }
    if (site->frozen() &&
        now - site->frozen_since() > opts_.liveness_grace) {
      Report("liveness",
             "site " + std::to_string(site->id()) + " frozen since " +
                 FormatDuration(site->frozen_since()) +
                 ", past the post-heal grace window",
             site->id());
    }
    // After the terminal heal every peer beacons again, so a site still in
    // a disconnected epoch past the grace window never completed (or never
    // started) its reconcile handshake — its op-log window is unfolded.
    if (site->disconnected()) {
      Report("reconcile",
             "site " + std::to_string(site->id()) +
                 " still in disconnected epoch " +
                 std::to_string(site->disconnected_epoch()) +
                 " after the terminal heal",
             site->id());
    }
  }
  for (const baselines::BoundedCounterSite* site :
       experiment_->bounded_sites()) {
    if (!site->alive()) {
      Report("liveness",
             "bounded-counter site " + std::to_string(site->id()) +
                 " still crashed after the terminal heal",
             site->id());
    } else if (site->disconnected()) {
      Report("reconcile",
             "bounded-counter site " + std::to_string(site->id()) +
                 " still marked disconnected after the terminal heal",
             site->id());
    }
  }
  if (probe_armed_ && probe_fired_) {
    const uint64_t committed_now = CommittedOps();
    if (committed_now == committed_at_probe_) {
      Report("liveness",
             "no operation committed after heal+grace (" +
                 std::to_string(committed_at_probe_) + " ops at probe)");
    }
  }
}

}  // namespace samya::harness
