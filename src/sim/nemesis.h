#ifndef SAMYA_SIM_NEMESIS_H_
#define SAMYA_SIM_NEMESIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "common/time.h"
#include "sim/network.h"

namespace samya::sim {

/// \brief One timed fault operation against a `Network`.
///
/// A `FaultSchedule` is a time-sorted list of these; every field is plain
/// data so a schedule serializes to JSON, replays bit-identically, and can
/// be delta-debugged op by op.
struct FaultOp {
  enum class Kind : uint8_t {
    kCrash,               ///< crash node `a`
    kRecover,             ///< recover node `a`
    kPartition,           ///< install partition `groups`
    kHeal,                ///< clear any partition
    kCutLink,             ///< cut directed link `a -> b`
    kRestoreLink,         ///< restore directed link `a -> b`
    kSetLossRate,         ///< global Bernoulli loss <- `value`
    kSetDelayFactor,      ///< global latency multiplier <- `value`
    kSetLinkDelayFactor,  ///< latency multiplier for `a -> b` <- `value`
    kSetDuplicateRate,    ///< global duplication probability <- `value`
    kClearLinkFaults,     ///< drop all link cuts + per-link delay overrides
    kIsolateSite,         ///< cut island `groups[0]` (around site `a`) off
                          ///< from every other node; heal with kHeal
  };

  SimTime at = 0;
  Kind kind = Kind::kCrash;
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  double value = 0.0;
  // `{}` like the fields above, so ops brace-initialised without `groups`
  // stay clean under -Wmissing-field-initializers.
  std::vector<std::vector<NodeId>> groups{};

  bool operator==(const FaultOp& o) const {
    return at == o.at && kind == o.kind && a == o.a && b == o.b &&
           value == o.value && groups == o.groups;
  }
};

const char* FaultKindName(FaultOp::Kind kind);

/// Renders "t=12.5s crash node 3" style lines for violation reports.
std::string FormatFaultOp(const FaultOp& op);

/// \brief A serializable, replayable fault schedule.
struct FaultSchedule {
  std::vector<FaultOp> ops;

  bool empty() const { return ops.empty(); }
  size_t size() const { return ops.size(); }

  /// Stable-sorts ops by time, preserving generation order within a tick so
  /// replay matches generation exactly.
  void SortByTime();

  JsonValue ToJson() const;
  static Result<FaultSchedule> FromJson(const JsonValue& v);
};

/// Applies every op at its scheduled time. Call after nodes are registered
/// and before the run starts; current env time must be <= the first op's
/// time. The schedule object may be destroyed after this returns (ops are
/// copied into the event closures).
void ApplySchedule(const FaultSchedule& schedule, Network* net);

/// Tuning knobs for `GenerateSchedule`. Counts scale linearly with
/// `intensity`; severities (loss rate, delay factor, downtime) interpolate
/// toward their maxima.
struct NemesisOptions {
  SimTime horizon = Seconds(45);   ///< faults occur in [0, horizon - heal_margin)
  double intensity = 1.0;          ///< 0 disables everything; ~3 is brutal
  Duration heal_margin = Seconds(8);  ///< quiet tail: all faults healed

  // Baseline event counts at intensity 1.0 (scaled and rounded).
  double crash_cycles = 2.0;       ///< crash/recover pairs per node (expected)
  double partition_waves = 1.5;    ///< partition/heal pairs across the run
  double link_cut_waves = 2.0;     ///< one-way cut/restore pairs
  double loss_spikes = 1.5;        ///< loss-rate raise/drop pairs
  double delay_storms = 1.0;       ///< delay-factor raise/drop pairs
  double duplicate_spikes = 1.0;   ///< duplicate-rate raise/drop pairs
  /// Site-isolation/heal pairs (kIsolateSite). Default 0 keeps every
  /// schedule generated before this op family existed bit-identical.
  double isolate_waves = 0.0;

  Duration min_downtime = Millis(800);
  Duration max_downtime = Seconds(6);
  double max_loss = 0.4;
  double max_delay_factor = 12.0;
  double max_duplicate = 0.3;

  /// Nodes eligible for crash churn / partitions / link cuts. Typically the
  /// Samya sites; app managers and clients stay up so load keeps arriving.
  std::vector<NodeId> nodes;

  /// Isolation islands, parallel to `nodes`: when an isolation wave picks
  /// `nodes[i]`, the whole island `isolate_islands[i]` (typically the site
  /// plus its co-located app manager and client, so the site keeps
  /// receiving load while cut off) goes behind the partition together.
  /// Missing/empty entries isolate just the node itself.
  std::vector<std::vector<NodeId>> isolate_islands;
};

/// \brief Derives a fault schedule from (options, seed) deterministically.
///
/// The same (options, seed) pair always yields the identical schedule, and
/// the schedule alone is sufficient to replay the faults — the generator
/// RNG is independent of the simulation RNG, so shrinking a schedule does
/// not perturb the workload it runs against.
///
/// Structure: each fault class books disjoint windows inside
/// [0, horizon - heal_margin) (crash windows are per-node disjoint, in the
/// `RandomChurn` style); a deterministic terminal heal block at
/// `horizon - heal_margin` recovers every node, heals partitions, restores
/// links, and zeroes loss/delay/duplication so liveness-after-heal is always
/// checkable.
FaultSchedule GenerateSchedule(const NemesisOptions& opts, uint64_t seed);

}  // namespace samya::sim

#endif  // SAMYA_SIM_NEMESIS_H_
