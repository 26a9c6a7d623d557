#ifndef SAMYA_WORKLOAD_REQUEST_STREAM_H_
#define SAMYA_WORKLOAD_REQUEST_STREAM_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/time.h"
#include "workload/trace.h"

namespace samya::workload {

/// A single client request against the token store. A run's scripts hold
/// every request up front (about 95k per region per 30-min §5.1.2 run), so
/// the fields are packed to 16 bytes.
struct Request {
  enum class Type : uint8_t { kAcquire, kRelease, kRead };
  SimTime at = 0;
  Type type = Type::kAcquire;
  int32_t amount = 1;
};
static_assert(sizeof(Request) == 16);

/// Options for turning a demand trace into a timed request stream.
struct RequestStreamOptions {
  /// Fraction of *additional* read-only transactions injected (Fig 3h):
  /// read_ratio r means reads make up fraction r of all requests.
  double read_ratio = 0.0;
  /// Horizon cap: requests after this time are not generated (0 = no cap).
  SimTime horizon = 0;
  uint64_t seed = 7;
};

/// \brief Expands a `DemandTrace` into individual timed requests for one
/// region's client: each creation becomes acquireTokens(VM, 1) and each
/// deletion releaseTokens(VM, 1), spread uniformly within their interval
/// (§5.1.2). Reads are interleaved per `read_ratio`. Output is time-sorted.
std::vector<Request> GenerateRequests(const DemandTrace& trace,
                                      const RequestStreamOptions& opts);

}  // namespace samya::workload

#endif  // SAMYA_WORKLOAD_REQUEST_STREAM_H_
