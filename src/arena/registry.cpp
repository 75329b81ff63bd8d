#include "arena/registry.hpp"

#include <algorithm>
#include <utility>

#include "policy/forecast_slot.hpp"
#include "policy/hiku.hpp"
#include "policy/hybrid.hpp"

namespace defuse::arena {
namespace {

[[nodiscard]] Error MissingMining(const std::string& name) {
  return Error{.code = ErrorCode::kFailedPrecondition,
               .message = "policy '" + name +
                          "' needs mined dependencies (PolicyBuildContext::"
                          "mining is null)"};
}

/// The SPES trade-off tiers (arXiv:2403.17574) as hybrid-policy presets:
/// the latency tier covers more of the idle-time tail with a wider margin
/// and twice the residency; the cost tier does the reverse; balanced is
/// the hybrid policy's own defaults.
[[nodiscard]] policy::HybridConfig SpesTierConfig(const std::string& tier) {
  policy::HybridConfig config;
  if (tier == "latency") {
    config.hist_threshold = 0.02;
    config.margin = 0.25;
    config.amplification = 2.0;
  } else if (tier == "cost") {
    config.hist_threshold = 0.10;
    config.margin = 0.05;
    config.amplification = 0.5;
  }
  return config;
}

[[nodiscard]] ParamInfo AmpParam() {
  return ParamInfo{.key = "amp",
                   .type = ParamType::kDouble,
                   .description = "keep-alive amplification factor a",
                   .min_value = 0.1,
                   .max_value = 20.0,
                   .default_value = "1"};
}

[[nodiscard]] std::vector<PolicyEntry> BuildEntries() {
  std::vector<PolicyEntry> entries;

  entries.push_back(PolicyEntry{
      .name = "ar",
      .description = "hybrid at dependency-set granularity with the AR(1) "
                     "idle-time forecast branch enabled",
      .needs_mining = true,
      .params = {ParamInfo{.key = "band",
                           .type = ParamType::kDouble,
                           .description =
                               "residency half-width in residual sigmas",
                           .min_value = 0.25,
                           .max_value = 10.0,
                           .default_value = "2"},
                 AmpParam()},
      .factory = [](const PolicyBuildContext& ctx, const SpecValues& values)
          -> Result<std::unique_ptr<policy::SchedulingPolicy>> {
        if (ctx.mining == nullptr) return MissingMining("ar");
        policy::HybridConfig config;
        config.use_ar_fallback = true;
        config.ar_sigma_band = values.GetDouble("band");
        config.amplification = values.GetDouble("amp");
        return std::unique_ptr<policy::SchedulingPolicy>{core::MakeDefuseScheduler(
            *ctx.trace, *ctx.mining, ctx.train, config)};
      }});

  entries.push_back(PolicyEntry{
      .name = "diurnal",
      .description = "day-profile residency over dependency sets, hybrid "
                     "fallback for units without daily rhythm",
      .needs_mining = true,
      .params = {AmpParam()},
      .factory = [](const PolicyBuildContext& ctx, const SpecValues& values)
          -> Result<std::unique_ptr<policy::SchedulingPolicy>> {
        if (ctx.mining == nullptr) return MissingMining("diurnal");
        policy::DiurnalConfig config;
        config.hybrid.amplification = values.GetDouble("amp");
        return std::unique_ptr<policy::SchedulingPolicy>{
            core::MakeDiurnalScheduler(*ctx.trace, *ctx.mining, ctx.train,
                                       config)};
      }});

  entries.push_back(PolicyEntry{
      .name = "fixed",
      .description = "fixed keep-alive per function (the production "
                     "10-minute baseline)",
      .needs_mining = false,
      .params = {ParamInfo{.key = "keepalive",
                           .type = ParamType::kInt,
                           .description = "keep-alive minutes",
                           .min_value = 1,
                           .max_value = 1440,
                           .default_value = "10"}},
      .factory = [](const PolicyBuildContext& ctx, const SpecValues& values)
          -> Result<std::unique_ptr<policy::SchedulingPolicy>> {
        return std::unique_ptr<policy::SchedulingPolicy>{
            core::MakeFixedScheduler(
                *ctx.model,
                static_cast<MinuteDelta>(values.GetInt("keepalive")))};
      }});

  entries.push_back(PolicyEntry{
      .name = "forecast",
      .description = "pluggable idle-time forecaster slot over dependency "
                     "sets (AR(1) occupant; swap in a learned model later)",
      .needs_mining = true,
      .params = {ParamInfo{.key = "band",
                           .type = ParamType::kDouble,
                           .description =
                               "residency half-width in uncertainty units",
                           .min_value = 0.25,
                           .max_value = 10.0,
                           .default_value = "2"},
                 ParamInfo{.key = "warm",
                           .type = ParamType::kInt,
                           .description =
                               "keep-alive minutes until the model is ready",
                           .min_value = 1,
                           .max_value = 240,
                           .default_value = "10"}},
      .factory = [](const PolicyBuildContext& ctx, const SpecValues& values)
          -> Result<std::unique_ptr<policy::SchedulingPolicy>> {
        if (ctx.mining == nullptr) return MissingMining("forecast");
        policy::ForecastSlotConfig config;
        config.sigma_band = values.GetDouble("band");
        config.fixed_keepalive =
            static_cast<MinuteDelta>(values.GetInt("warm"));
        return std::unique_ptr<policy::SchedulingPolicy>{
            std::make_unique<policy::ForecastSlotPolicy>(
                graph::UnitMap::FromDependencySets(ctx.mining->sets,
                                                 ctx.model->num_functions()),
                [] { return std::make_unique<policy::ArForecaster>(); },
                config)};
      }});

  entries.push_back(PolicyEntry{
      .name = "hiku",
      .description = "pull-based: no speculative residency, pre-warms only "
                     "dependency-graph successors of each invocation",
      .needs_mining = true,
      .params = {ParamInfo{.key = "delay",
                           .type = ParamType::kInt,
                           .description =
                               "minutes between trigger and target load",
                           .min_value = 1,
                           .max_value = 60,
                           .default_value = "1"},
                 ParamInfo{.key = "window",
                           .type = ParamType::kInt,
                           .description =
                               "triggered target residency minutes",
                           .min_value = 1,
                           .max_value = 240,
                           .default_value = "5"},
                 ParamInfo{.key = "self",
                           .type = ParamType::kInt,
                           .description =
                               "invoked unit's own linger minutes",
                           .min_value = 1,
                           .max_value = 240,
                           .default_value = "1"}},
      .factory = [](const PolicyBuildContext& ctx, const SpecValues& values)
          -> Result<std::unique_ptr<policy::SchedulingPolicy>> {
        if (ctx.mining == nullptr) return MissingMining("hiku");
        policy::HikuConfig config;
        config.trigger_delay = static_cast<MinuteDelta>(values.GetInt("delay"));
        config.trigger_keepalive =
            static_cast<MinuteDelta>(values.GetInt("window"));
        config.self_keepalive =
            static_cast<MinuteDelta>(values.GetInt("self"));
        // Function granularity: the mined graph's edges *are* the
        // function-level trigger edges (dependency sets would swallow
        // every edge into a single unit and leave nothing to trigger).
        return std::unique_ptr<policy::SchedulingPolicy>{
            std::make_unique<policy::HikuPullPolicy>(
                graph::UnitMap::PerFunction(ctx.model->num_functions()),
                ctx.mining->graph, config)};
      }});

  entries.push_back(PolicyEntry{
      .name = "hybrid",
      .description = "hybrid histogram policy (Shahrad et al.); variant "
                     "picks the unit granularity: set (Defuse), function "
                     "(fine), application (coarse)",
      .needs_mining = false,  // only the `set` variant needs mining
      .params = {ParamInfo{.key = "variant",
                           .type = ParamType::kEnum,
                           .description = "unit granularity",
                           .choices = {"set", "function", "application",
                                       "fine", "coarse", "app"},
                           .default_value = "set"},
                 AmpParam()},
      .factory = [](const PolicyBuildContext& ctx, const SpecValues& values)
          -> Result<std::unique_ptr<policy::SchedulingPolicy>> {
        policy::HybridConfig config;
        config.amplification = values.GetDouble("amp");
        const std::string& variant = values.GetEnum("variant");
        if (variant == "set") {
          if (ctx.mining == nullptr) return MissingMining("hybrid:set");
          return std::unique_ptr<policy::SchedulingPolicy>{
              core::MakeDefuseScheduler(*ctx.trace, *ctx.mining, ctx.train,
                                        config)};
        }
        if (variant == "function" || variant == "fine") {
          return std::unique_ptr<policy::SchedulingPolicy>{
              core::MakeHybridFunctionScheduler(*ctx.trace, *ctx.model,
                                                ctx.train, config)};
        }
        return std::unique_ptr<policy::SchedulingPolicy>{
            core::MakeHybridApplicationScheduler(*ctx.trace, *ctx.model,
                                                 ctx.train, config)};
      }});

  entries.push_back(PolicyEntry{
      .name = "predictor",
      .description = "periodicity predictor over dependency sets: tight "
                     "residency around the predicted next invocation",
      .needs_mining = true,
      .params = {AmpParam()},
      .factory = [](const PolicyBuildContext& ctx, const SpecValues& values)
          -> Result<std::unique_ptr<policy::SchedulingPolicy>> {
        if (ctx.mining == nullptr) return MissingMining("predictor");
        policy::PredictorConfig config;
        config.hybrid.amplification = values.GetDouble("amp");
        return std::unique_ptr<policy::SchedulingPolicy>{
            core::MakePredictorScheduler(*ctx.trace, *ctx.mining, ctx.train,
                                         config)};
      }});

  entries.push_back(PolicyEntry{
      .name = "spes",
      .description = "SPES-style cost/latency trade-off tiers: presets of "
                     "the hybrid policy per function (tail percentile, "
                     "margin, keep-alive scale)",
      .needs_mining = false,
      .params = {ParamInfo{.key = "tier",
                           .type = ParamType::kEnum,
                           .description = "trade-off tier",
                           .choices = {"latency", "balanced", "cost"},
                           .default_value = "balanced"}},
      .factory = [](const PolicyBuildContext& ctx, const SpecValues& values)
          -> Result<std::unique_ptr<policy::SchedulingPolicy>> {
        return std::unique_ptr<policy::SchedulingPolicy>{
            core::MakeHybridFunctionScheduler(
                *ctx.trace, *ctx.model, ctx.train,
                SpesTierConfig(values.GetEnum("tier")))};
      }});

  std::sort(entries.begin(), entries.end(),
            [](const PolicyEntry& a, const PolicyEntry& b) {
              return a.name < b.name;
            });
  return entries;
}

}  // namespace

const PolicyRegistry& PolicyRegistry::Builtin() {
  static const PolicyRegistry registry = [] {
    PolicyRegistry r;
    r.entries_ = BuildEntries();
    return r;
  }();
  return registry;
}

const PolicyEntry* PolicyRegistry::Find(std::string_view name) const {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [name](const PolicyEntry& e) { return e.name == name; });
  return it == entries_.end() ? nullptr : &*it;
}

Result<ResolvedPolicySpec> PolicyRegistry::Resolve(
    std::string_view spec_text) const {
  auto parsed = ParseSpec(spec_text);
  if (!parsed.ok()) return parsed.error();
  ResolvedPolicySpec resolved;
  resolved.spec = std::move(parsed).value();
  resolved.entry = Find(resolved.spec.name);
  if (resolved.entry == nullptr) {
    std::string known;
    for (const PolicyEntry& e : entries_) {
      if (!known.empty()) known += ", ";
      known += e.name;
    }
    return Error{.code = ErrorCode::kInvalidArgument,
                 .message = "unknown policy '" + resolved.spec.name +
                            "' (known: " + known + ")"};
  }
  auto values = ResolveSpec(resolved.spec, resolved.entry->params);
  if (!values.ok()) return values.error();
  resolved.values = std::move(values).value();
  return resolved;
}

Result<std::unique_ptr<policy::SchedulingPolicy>> PolicyRegistry::Build(
    const PolicyBuildContext& context, std::string_view spec_text) const {
  if (context.model == nullptr || context.trace == nullptr) {
    return Error{.code = ErrorCode::kFailedPrecondition,
                 .message = "PolicyBuildContext needs model and trace"};
  }
  auto resolved = Resolve(spec_text);
  if (!resolved.ok()) return resolved.error();
  const ResolvedPolicySpec& r = resolved.value();
  return r.entry->factory(context, r.values);
}

Result<bool> PolicyRegistry::Register(PolicyEntry entry) {
  if (Find(entry.name) != nullptr) {
    return Error{.code = ErrorCode::kInvalidArgument,
                 .message = "policy '" + entry.name + "' already registered"};
  }
  entries_.push_back(std::move(entry));
  std::sort(entries_.begin(), entries_.end(),
            [](const PolicyEntry& a, const PolicyEntry& b) {
              return a.name < b.name;
            });
  return true;
}

}  // namespace defuse::arena
