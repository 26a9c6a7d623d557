#ifndef SAMYA_CONSENSUS_TYPES_H_
#define SAMYA_CONSENSUS_TYPES_H_

#include <cstdint>
#include <string>

#include "common/codec.h"
#include "rt/node.h"

namespace samya::consensus {

/// A Paxos-style ballot: a monotonically increasing round number broken by
/// proposer id. Also used by Avantan (Table 1c: BallotNum = <num, id>).
struct Ballot {
  int64_t num = 0;
  rt::NodeId id = rt::kInvalidNode;

  bool operator==(const Ballot& o) const { return num == o.num && id == o.id; }
  bool operator!=(const Ballot& o) const { return !(*this == o); }
  bool operator<(const Ballot& o) const {
    if (num != o.num) return num < o.num;
    return id < o.id;
  }
  bool operator<=(const Ballot& o) const { return *this < o || *this == o; }
  bool operator>(const Ballot& o) const { return o < *this; }
  bool operator>=(const Ballot& o) const { return o <= *this; }

  void EncodeTo(BufferWriter& w) const {
    w.PutVarintSigned(num);
    w.PutVarintSigned(id);
  }
  static Result<Ballot> DecodeFrom(BufferReader& r) {
    Ballot b;
    SAMYA_ASSIGN_OR_RETURN(b.num, r.GetVarintSigned());
    SAMYA_ASSIGN_OR_RETURN(int64_t id, r.GetVarintSigned());
    b.id = static_cast<rt::NodeId>(id);
    return b;
  }

  std::string ToString() const {
    // Appends to the "<" rather than `"<" + std::string`: GCC 12 at -O3
    // flags that insert-at-front with a false -Wrestrict.
    std::string s = "<";
    s += std::to_string(num) + "," + std::to_string(id) + ">";
    return s;
  }
};

}  // namespace samya::consensus

#endif  // SAMYA_CONSENSUS_TYPES_H_
