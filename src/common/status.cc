#include "common/status.h"

namespace samya {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kTimedOut:
      return "TIMED_OUT";
    case StatusCode::kAborted:
      return "ABORTED";
    case StatusCode::kCorruption:
      return "CORRUPTION";
    case StatusCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

const std::string& Status::message() const {
  static const std::string* const kEmpty = new std::string();
  return rep_ == nullptr ? *kEmpty : rep_->msg;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string s = StatusCodeName(rep_->code);
  if (!rep_->msg.empty()) {
    s += ": ";
    s += rep_->msg;
  }
  return s;
}

}  // namespace samya
