#include "core/types.h"

namespace samya::core {

void EntityState::EncodeTo(BufferWriter& w) const {
  w.PutVarintSigned(site);
  w.PutVarintSigned(tokens_left);
  w.PutVarintSigned(tokens_wanted);
}

Result<EntityState> EntityState::DecodeFrom(BufferReader& r) {
  EntityState s;
  SAMYA_ASSIGN_OR_RETURN(int64_t site, r.GetVarintSigned());
  s.site = static_cast<rt::NodeId>(site);
  SAMYA_ASSIGN_OR_RETURN(s.tokens_left, r.GetVarintSigned());
  SAMYA_ASSIGN_OR_RETURN(s.tokens_wanted, r.GetVarintSigned());
  return s;
}

std::vector<rt::NodeId> StateList::Participants() const {
  std::vector<rt::NodeId> ids;
  ids.reserve(entries.size());
  for (const auto& e : entries) ids.push_back(e.site);
  return ids;
}

bool StateList::Contains(rt::NodeId site) const {
  for (const auto& e : entries) {
    if (e.site == site) return true;
  }
  return false;
}

void StateList::EncodeTo(BufferWriter& w) const {
  w.PutVarint(entries.size());
  for (const auto& e : entries) e.EncodeTo(w);
}

Result<StateList> StateList::DecodeFrom(BufferReader& r) {
  StateList list;
  SAMYA_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  list.entries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SAMYA_ASSIGN_OR_RETURN(EntityState e, EntityState::DecodeFrom(r));
    list.entries.push_back(e);
  }
  return list;
}

std::string StateList::ToString() const {
  std::string s = "[";
  for (const auto& e : entries) {
    s += '(';  // appended alone: see Ballot::ToString on GCC 12 -Wrestrict
    s += std::to_string(e.site) + ":" + std::to_string(e.tokens_left) + "/" +
         std::to_string(e.tokens_wanted) + ")";
  }
  s += "]";
  return s;
}

}  // namespace samya::core
