// The policy arena: a registry mapping policy names to factories and
// parameter schemas, so every scheduler in the tree — the hybrid family
// (SPES tiers included, as hybrid presets), the diurnal/predictor
// extensions, and the Hiku/forecast-slot competitors — is constructible
// from a spec string like `hybrid:coarse` or `spes:tier=balanced`.
//
// Construction is deterministic: a factory is a pure function of
// (PolicyBuildContext, SpecValues). Factories never touch clocks, RNGs,
// or the environment (enforced by defuse-lint over src/arena). Every
// seeded policy is built by the core:: factories the experiment driver
// also calls, so a registry-built policy is byte-identical to the
// directly-constructed one — the arena determinism suite pins
// `hybrid:set` against core::MakeDefuseScheduler to keep it that way.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arena/spec.hpp"
#include "common/result.hpp"
#include "core/defuse.hpp"
#include "policy/scheduling_policy.hpp"
#include "trace/invocation_trace.hpp"
#include "trace/model.hpp"

namespace defuse::arena {

/// Everything a policy factory may consume. `model` and `trace` are
/// always required; `mining` only by dependency-guided policies (the
/// factory rejects with kFailedPrecondition when it is missing).
struct PolicyBuildContext {
  const trace::WorkloadModel* model = nullptr;
  const trace::InvocationTrace* trace = nullptr;
  /// Training window: histogram/day-profile seeding reads trace events
  /// inside it, never outside.
  TimeRange train;
  const core::MiningOutput* mining = nullptr;
};

using PolicyFactory =
    std::function<Result<std::unique_ptr<policy::SchedulingPolicy>>(
        const PolicyBuildContext&, const SpecValues&)>;

struct PolicyEntry {
  std::string name;
  std::string description;
  /// True when the factory needs PolicyBuildContext::mining.
  bool needs_mining = false;
  std::vector<ParamInfo> params;
  PolicyFactory factory;
};

/// A spec string parsed, matched to its entry, and schema-checked —
/// everything short of construction.
struct ResolvedPolicySpec {
  ParsedSpec spec;
  SpecValues values;
  const PolicyEntry* entry = nullptr;
};

class PolicyRegistry {
 public:
  /// The built-in registry (function-local static; construction is
  /// data-only and thread-safe).
  [[nodiscard]] static const PolicyRegistry& Builtin();

  /// Entries sorted by name.
  [[nodiscard]] const std::vector<PolicyEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] const PolicyEntry* Find(std::string_view name) const;

  /// Parses + schema-checks a spec string. kInvalidArgument (naming the
  /// offending token) on grammar errors, unknown policies, unknown/
  /// duplicate/out-of-range parameters.
  [[nodiscard]] Result<ResolvedPolicySpec> Resolve(
      std::string_view spec_text) const;

  /// Resolve + construct.
  [[nodiscard]] Result<std::unique_ptr<policy::SchedulingPolicy>> Build(
      const PolicyBuildContext& context, std::string_view spec_text) const;

  /// Registers an entry (tests and out-of-tree extensions). Keeps the
  /// entry list sorted; rejects duplicate names.
  [[nodiscard]] Result<bool> Register(PolicyEntry entry);

 private:
  std::vector<PolicyEntry> entries_;
};

}  // namespace defuse::arena
