// Forwarding timing decorators over the two interfaces the program
// exposes: policy::SchedulingPolicy (what the simulator drives) and
// net::RequestHandler (what the server core dispatches into). Each call
// is forwarded unchanged and its duration booked, so a traced run makes
// the same decisions as an untraced one.
#pragma once

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include "measure.hpp"
#include "net/server_core.hpp"
#include "policy/scheduling_policy.hpp"

namespace perfbench {

/// Every call is counted; every kPolicyTimingStride-th call is timed, so
/// the clock reads do not swamp calls that take a few hundred ns.
inline constexpr std::uint64_t kPolicyTimingStride = 8;

struct PolicyBooks {
  Samples decide_ns;
  Samples observe_ns;
  std::uint64_t decisions = 0;
  std::uint64_t observations = 0;
  std::uint64_t prewarm_requests = 0;
  /// Estimated time inside the policy, every entry point included: the
  /// timed calls scaled by the stride.
  std::int64_t inside_ns = 0;
};

class TimedPolicy final : public defuse::policy::SchedulingPolicy {
 public:
  TimedPolicy(defuse::policy::SchedulingPolicy& inner, PolicyBooks& books)
      : inner_(inner), books_(books) {}

  [[nodiscard]] const defuse::graph::UnitMap& unit_map()
      const noexcept override {
    return inner_.unit_map();
  }

  [[nodiscard]] defuse::policy::UnitDecision OnInvocation(
      defuse::UnitId unit, defuse::Minute now) override {
    if (++books_.decisions % kPolicyTimingStride != 0) {
      return inner_.OnInvocation(unit, now);
    }
    const std::int64_t start = NowNs();
    const defuse::policy::UnitDecision decision =
        inner_.OnInvocation(unit, now);
    const std::int64_t took = NowNs() - start;
    books_.decide_ns.Add(static_cast<double>(took));
    books_.inside_ns += took * static_cast<std::int64_t>(kPolicyTimingStride);
    return decision;
  }

  void ObserveIdleTime(defuse::UnitId unit, defuse::MinuteDelta gap) override {
    if (++books_.observations % kPolicyTimingStride != 0) {
      inner_.ObserveIdleTime(unit, gap);
      return;
    }
    const std::int64_t start = NowNs();
    inner_.ObserveIdleTime(unit, gap);
    const std::int64_t took = NowNs() - start;
    books_.observe_ns.Add(static_cast<double>(took));
    books_.inside_ns += took * static_cast<std::int64_t>(kPolicyTimingStride);
  }

  void CollectTriggeredPrewarms(
      defuse::UnitId invoked, defuse::Minute now,
      std::vector<defuse::policy::PrewarmRequest>& out) override {
    const std::size_t before = out.size();
    // Timed on the same stride as decisions (one collect per decision).
    if (books_.decisions % kPolicyTimingStride != 0) {
      inner_.CollectTriggeredPrewarms(invoked, now, out);
    } else {
      const std::int64_t start = NowNs();
      inner_.CollectTriggeredPrewarms(invoked, now, out);
      books_.inside_ns +=
          (NowNs() - start) * static_cast<std::int64_t>(kPolicyTimingStride);
    }
    books_.prewarm_requests += out.size() - before;
  }

  [[nodiscard]] const char* name() const noexcept override {
    return inner_.name();
  }

 private:
  defuse::policy::SchedulingPolicy& inner_;
  PolicyBooks& books_;
};

struct HandlerBooks {
  /// Timing is booked only while set (flipped by another thread between
  /// steps, while the server is idle).
  std::atomic<bool> recording{true};
  Samples handle_us;
};

class TimedHandler final : public defuse::net::RequestHandler {
 public:
  TimedHandler(defuse::net::RequestHandler& inner, HandlerBooks& books)
      : inner_(inner), books_(books) {}

  [[nodiscard]] std::string HandleRequest(std::string_view request) override {
    if (!books_.recording.load(std::memory_order_relaxed)) {
      return inner_.HandleRequest(request);
    }
    const std::int64_t start = NowNs();
    std::string reply = inner_.HandleRequest(request);
    books_.handle_us.Add(static_cast<double>(NowNs() - start) * 1e-3);
    return reply;
  }
  [[nodiscard]] std::string EncodeTransportError(
      const defuse::Error& error) override {
    return inner_.EncodeTransportError(error);
  }
  [[nodiscard]] std::optional<defuse::net::RequestEnvelope> InspectRequest(
      std::string_view request) override {
    return inner_.InspectRequest(request);
  }
  [[nodiscard]] std::string EncodeRetryableError(
      const defuse::Error& error, defuse::MinuteDelta retry_after) override {
    return inner_.EncodeRetryableError(error, retry_after);
  }
  [[nodiscard]] bool HasCachedReply(std::uint64_t request_id) override {
    return inner_.HasCachedReply(request_id);
  }
  [[nodiscard]] defuse::Minute ClockMinute() override {
    return inner_.ClockMinute();
  }

 private:
  defuse::net::RequestHandler& inner_;
  HandlerBooks& books_;
};

}  // namespace perfbench
