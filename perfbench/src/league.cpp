// Workload `league`: the arena league — every policy against every
// scenario — run to completion on one thread.
//
// Untraced passes call the program exactly as arena::RunLeague does
// (core::MineDependencies once per scenario, then PolicyRegistry::Build
// and sim::Simulate per cell), timing only whole cells. Traced passes
// drive the mining stages one by one through their public functions, in
// the order core::MineDependencies runs them, and wrap every policy in a
// TimedPolicy. Both must produce the table arena::RunLeague produces.
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "arena/league.hpp"
#include "arena/registry.hpp"
#include "arena/scenarios.hpp"
#include "common/rng.hpp"
#include "core/defuse.hpp"
#include "core/experiment.hpp"
#include "decorators.hpp"
#include "mining/cooccurrence.hpp"
#include "mining/fpgrowth.hpp"
#include "mining/predictability.hpp"
#include "mining/transactions.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace defuse;

const std::vector<std::string> kPolicies = {
    "fixed",     "hybrid:set", "hybrid:function",    "hybrid:application",
    "diurnal",   "predictor",  "ar",                 "spes:tier=balanced",
    "hiku",      "forecast"};
const std::vector<std::string> kScenarios = {
    "azure_like", "huawei_bursty", "huawei_diurnal", "skew_extreme",
    "flat_poisson"};
/// Defuse itself (dependency sets). Its row, averaged over the scenarios,
/// gives the end-to-end quality metrics; its azure_like cell is the
/// paper's headline and is printed as a note.
constexpr const char* kHeadlinePolicy = "hybrid:set";
constexpr const char* kHeadlineScenario = "azure_like";

/// "spes:tier=balanced" -> "spes_balanced": metric-name safe.
std::string MetricSuffix(const std::string& spec) {
  std::string out;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const char c = spec[i];
    if (c == ':' || c == ',') {
      out += '_';
    } else if (c == '=') {
      // Keep the value, drop the key: "tier=balanced" -> "balanced".
      const std::size_t key = out.find_last_of('_');
      out.erase(key == std::string::npos ? 0 : key + 1);
    } else {
      out += c;
    }
  }
  return out;
}

struct Scenario {
  std::string spec;
  trace::SyntheticWorkload workload;
  TimeRange train{0, 0};
  TimeRange eval{0, 0};
};

arena::LeagueConfig MakeConfig(const RunOptions& options) {
  arena::LeagueConfig config;
  config.policies = kPolicies;
  config.scenarios = kScenarios;
  config.seed = options.seed;
  config.num_users = options.tiny ? 6 : 120;
  config.horizon_minutes = (options.tiny ? 2 : 7) * kMinutesPerDay;
  return config;
}

/// Set-up: resolve the scenario specs and generate every workload.
std::vector<Scenario> Generate(const arena::LeagueConfig& config) {
  std::vector<Scenario> out;
  for (const std::string& spec : config.scenarios) {
    auto resolved = arena::ScenarioRegistry::Builtin().Resolve(spec, config.seed);
    if (!resolved.ok()) {
      std::cerr << "scenario " << spec << ": " << resolved.error().message
                << "\n";
      std::exit(2);
    }
    trace::ScenarioSpec s = std::move(resolved).value();
    if (s.num_users == 0) s.num_users = config.num_users;
    if (s.horizon_minutes == 0) s.horizon_minutes = config.horizon_minutes;
    const MinuteDelta horizon = trace::MakeScenarioConfig(s).horizon_minutes;
    const auto [train, eval] = core::SplitTrainEval(TimeRange{0, horizon});
    out.push_back(Scenario{spec, trace::GenerateScenario(s), train, eval});
  }
  return out;
}

/// The cell columns, computed exactly as arena::RunLeague computes them.
arena::LeagueCell MakeCell(const std::string& policy_spec,
                           const std::string& scenario_spec,
                           const policy::SchedulingPolicy& policy,
                           const sim::SimulationResult& result) {
  arena::LeagueCell cell;
  cell.policy = policy_spec;
  cell.scenario = scenario_spec;
  cell.policy_name = policy.name();
  cell.num_units = policy.unit_map().num_units();
  cell.invocation_minutes = result.function_invocation_minutes;
  cell.event_cold_fraction =
      result.function_invocation_minutes == 0
          ? 0.0
          : static_cast<double>(result.function_cold_minutes) /
                static_cast<double>(result.function_invocation_minutes);
  cell.p75_cold_rate = result.ColdStartRatePercentile(policy.unit_map(), 0.75);
  cell.avg_memory = result.AverageMemoryUsage();
  std::uint64_t resident = 0;
  for (const std::uint64_t loaded : result.loaded_functions) resident += loaded;
  cell.wasted_memory_minutes =
      resident <= result.function_invocation_minutes
          ? 0.0
          : static_cast<double>(resident - result.function_invocation_minutes);
  cell.p99_cold_latency_ms = sim::LatencyPercentileMs(result, 0.99);
  cell.avg_loads_per_minute = result.AverageLoadingFunctions();
  cell.triggered_prewarms = result.triggered_prewarms;
  return cell;
}

/// What a traced pass learns beyond the table.
struct LayerTimes {
  double classify_s = 0, transactions_s = 0, fpgrowth_s = 0, ppmi_s = 0;
  double components_s = 0, seed_s = 0, simulate_s = 0, sim_self_s = 0;
  std::uint64_t itemsets = 0, weak_deps = 0, units = 0;
  std::uint64_t invocation_minutes = 0;
  std::vector<double> mine_s;  // per scenario
  std::vector<double> cell_s;  // per policy, summed over scenarios
  PolicyBooks policy;
};

/// core::MineDependencies, serial path, stage by stage through the public
/// mining and graph functions. Stage timings accumulate into `times`.
core::MiningOutput MineStaged(const trace::SyntheticWorkload& w, TimeRange train,
                              const core::DefuseConfig& config,
                              LayerTimes& times, SpanLog& log, int parent,
                              int run) {
  const auto& model = w.model;
  const auto& trace = w.trace;
  core::MiningOutput output{.graph = graph::DependencyGraph{model.num_functions()},
                            .sets = {},
                            .predictability = {},
                            .num_frequent_itemsets = 0,
                            .num_weak_dependencies = 0};
  const auto& users = model.users();
  const std::size_t n = users.size();
  std::vector<std::vector<mining::Transaction>> transactions(n);
  std::vector<std::vector<mining::UniverseWindow>> windows(n);
  std::vector<std::vector<mining::Itemset>> itemsets(n);
  std::vector<std::vector<mining::WeakDependency>> weak(n);

  std::int64_t t = NowNs();
  output.predictability = mining::ClassifyFunctions(
      trace, model, train, config.MakePredictabilityConfig());
  std::int64_t u = NowNs();
  log.Add("mining.classify", t, u, parent, run);
  times.classify_s += static_cast<double>(u - t) * 1e-9;

  // Transactions, then the per-user universe shuffles (seeded from
  // (mining_seed, user id) exactly as MineDependencies seeds them).
  t = NowNs();
  if (config.use_strong) {
    for (std::size_t i = 0; i < n; ++i) {
      transactions[i] = mining::BuildUserTransactions(
          trace, model, users[i].id, train, config.MakeTransactionConfig());
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (transactions[i].empty()) continue;
      std::uint64_t stream =
          config.mining_seed ^
          (0x9e3779b97f4a7c15ULL *
           (static_cast<std::uint64_t>(users[i].id.value()) + 1));
      Rng rng{SplitMix64(stream)};
      auto split = mining::SplitUniverse(model.FunctionsOfUser(users[i].id),
                                         config.universe_window,
                                         config.universe_stride, rng);
      if (split.ok()) windows[i] = std::move(split).value();
    }
  }
  u = NowNs();
  log.Add("mining.transactions", t, u, parent, run);
  times.transactions_s += static_cast<double>(u - t) * 1e-9;

  t = NowNs();
  const auto fp_config = config.MakeFpGrowthConfig();
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& window : windows[i]) {
      const auto projected = mining::ProjectTransactions(transactions[i], window);
      if (projected.empty()) continue;
      auto found = mining::MineFrequentItemsets(projected, fp_config);
      itemsets[i].insert(itemsets[i].end(),
                         std::make_move_iterator(found.begin()),
                         std::make_move_iterator(found.end()));
    }
  }
  u = NowNs();
  log.Add("mining.fpgrowth", t, u, parent, run);
  times.fpgrowth_s += static_cast<double>(u - t) * 1e-9;

  t = NowNs();
  if (config.use_weak) {
    for (std::size_t i = 0; i < n; ++i) {
      weak[i] = mining::MineWeakDependencies(
          trace, model, users[i].id, output.predictability.predictable, train,
          config.MakePpmiConfig());
    }
  }
  u = NowNs();
  log.Add("mining.ppmi", t, u, parent, run);
  times.ppmi_s += static_cast<double>(u - t) * 1e-9;

  t = NowNs();
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& itemset : itemsets[i]) {
      output.graph.AddStrongItemset(itemset.items, itemset.support);
    }
    output.num_frequent_itemsets += itemsets[i].size();
    for (const auto& dep : weak[i]) {
      output.graph.AddWeakDependency(dep.from, dep.to, dep.ppmi);
    }
    output.num_weak_dependencies += weak[i].size();
  }
  output.graph.Canonicalize();
  output.sets = output.graph.ConnectedComponents();
  u = NowNs();
  log.Add("graph.components", t, u, parent, run);
  times.components_s += static_cast<double>(u - t) * 1e-9;
  times.itemsets += output.num_frequent_itemsets;
  times.weak_deps += output.num_weak_dependencies;
  return output;
}

bool SameMining(const core::MiningOutput& a, const core::MiningOutput& b) {
  if (a.graph.edges() != b.graph.edges()) return false;
  if (a.sets.size() != b.sets.size()) return false;
  for (std::size_t i = 0; i < a.sets.size(); ++i) {
    if (a.sets[i].id != b.sets[i].id ||
        a.sets[i].functions != b.sets[i].functions) {
      return false;
    }
  }
  return a.num_frequent_itemsets == b.num_frequent_itemsets &&
         a.num_weak_dependencies == b.num_weak_dependencies &&
         a.predictability.predictable == b.predictability.predictable;
}

struct PassOutcome {
  arena::LeagueTable table;
  double wall_s = 0;
};

/// One league. With `log`, the pass is traced: staged mining, decorated
/// policies, spans; `times` receives the per-layer figures and
/// `check_mining` compares the staged mining with MineDependencies.
PassOutcome RunPass(const std::vector<Scenario>& scenarios,
                    const arena::LeagueConfig& config, SpanLog* log, int run,
                    LayerTimes* times,
                    RunResult* check_mining) {
  const arena::PolicyRegistry& registry = arena::PolicyRegistry::Builtin();
  PassOutcome out;
  const std::int64_t start = NowNs();
  ScopedSpan pass_span{log, "league.pass", -1, run};
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const Scenario& s = scenarios[si];
    ScopedSpan scenario_span{log, "league.scenario." + s.spec, pass_span.id(),
                             run};
    const std::int64_t mine_start = NowNs();
    const core::MiningOutput mining = [&] {
      if (log == nullptr) {
        auto mined = core::MineDependencies(s.workload.trace, s.workload.model,
                                            s.train, config.mining);
        if (!mined.ok()) {
          std::cerr << "mining failed: " << mined.error().message << "\n";
          std::exit(2);
        }
        return std::move(mined).value();
      }
      ScopedSpan mine_span{log, "league.mine", scenario_span.id(), run};
      return MineStaged(s.workload, s.train, config.mining, *times, *log,
                        mine_span.id(), run);
    }();
    if (times != nullptr) {
      times->mine_s[si] += SecondsSince(mine_start);
      times->units += mining.sets.size();
    }
    if (check_mining != nullptr) {
      auto reference = core::MineDependencies(
          s.workload.trace, s.workload.model, s.train, config.mining);
      check_mining->Check(reference.ok() && SameMining(mining, reference.value()),
                          "staged mining equals core::MineDependencies on " +
                              s.spec);
    }

    arena::PolicyBuildContext context;
    context.model = &s.workload.model;
    context.trace = &s.workload.trace;
    context.train = s.train;
    context.mining = &mining;
    for (std::size_t pi = 0; pi < config.policies.size(); ++pi) {
      const std::string& spec = config.policies[pi];
      ScopedSpan cell_span{log, "league.cell", scenario_span.id(), run};
      const std::int64_t cell_start = NowNs();
      std::unique_ptr<policy::SchedulingPolicy> policy;
      {
        ScopedSpan build_span{log, "policy.seed", cell_span.id(), run};
        auto built = registry.Build(context, spec);
        if (!built.ok()) {
          std::cerr << "policy " << spec << ": " << built.error().message
                    << "\n";
          std::exit(2);
        }
        policy = std::move(built).value();
      }
      const std::int64_t sim_start = NowNs();
      sim::SimulationResult result;
      if (times == nullptr) {
        result = sim::Simulate(s.workload.trace, s.eval, *policy,
                               config.sim_options);
      } else {
        times->seed_s += static_cast<double>(sim_start - cell_start) * 1e-9;
        ScopedSpan sim_span{log, "sim.simulate", cell_span.id(), run};
        TimedPolicy timed{*policy, times->policy};
        const std::int64_t inside_before = times->policy.inside_ns;
        result = sim::Simulate(s.workload.trace, s.eval, timed,
                               config.sim_options);
        const double simulate_s = SecondsSince(sim_start);
        const double policy_s =
            static_cast<double>(times->policy.inside_ns - inside_before) * 1e-9;
        // Aggregate span: the decorated policy time inside this simulate,
        // laid out from its start (sim.self_s is the rest).
        log->Add("policy.decide", sim_start, sim_start +
                     static_cast<std::int64_t>(policy_s * 1e9),
                 sim_span.id(), run);
        times->simulate_s += simulate_s;
        times->sim_self_s += simulate_s - policy_s;
        times->invocation_minutes += result.function_invocation_minutes;
      }
      out.table.cells.push_back(MakeCell(spec, s.spec, *policy, result));
      if (times != nullptr) times->cell_s[pi] += SecondsSince(cell_start);
    }
  }
  out.wall_s = SecondsSince(start);
  return out;
}

const arena::LeagueCell* FindCell(const arena::LeagueTable& table,
                                  const std::string& policy,
                                  const std::string& scenario) {
  for (const auto& cell : table.cells) {
    if (cell.policy == policy && cell.scenario == scenario) return &cell;
  }
  return nullptr;
}

}  // namespace

RunResult RunLeagueWorkload(const RunOptions& options) {
  RunResult run;
  const arena::LeagueConfig config = MakeConfig(options);

  std::vector<double> setup_s;
  std::vector<Scenario> scenarios;
  for (int i = 0; i < kSetupRepeats; ++i) {
    scenarios.clear();
    const std::int64_t start = NowNs();
    scenarios = Generate(config);
    setup_s.push_back(SecondsSince(start));
  }
  std::uint64_t invocation_events = 0;
  for (const Scenario& s : scenarios) {
    invocation_events += s.workload.trace.TotalInvocations(s.eval);
  }
  invocation_events *= config.policies.size();

  // Measured passes. Traced runs alternate untraced and traced passes so
  // both see the same machine state; the gap is the tracing overhead.
  std::vector<double> untraced_wall, traced_wall;
  std::vector<LayerTimes> layer;
  SpanLog log;
  std::string untraced_csv, traced_csv;
  const std::int64_t start = NowNs();
  int passes = 0;
  double last_pass_s = 0;
  while (AnotherPass(start, options.seconds, passes, options.trace ? 2 : 1,
                     last_pass_s)) {
    const bool traced = options.trace && passes % 2 == 1;
    PassOutcome pass;
    if (traced) {
      LayerTimes times;
      times.mine_s.assign(config.scenarios.size(), 0.0);
      times.cell_s.assign(config.policies.size(), 0.0);
      const int run_id = static_cast<int>(layer.size());
      pass = RunPass(scenarios, config, &log, run_id, &times,
                     run_id == 0 ? &run : nullptr);
      layer.push_back(std::move(times));
      traced_wall.push_back(pass.wall_s);
      traced_csv = arena::RenderLeagueCsv(pass.table);
    } else {
      pass = RunPass(scenarios, config, nullptr, 0, nullptr, nullptr);
      untraced_wall.push_back(pass.wall_s);
      const std::string csv = arena::RenderLeagueCsv(pass.table);
      if (!untraced_csv.empty()) {
        run.Check(csv == untraced_csv, "league table identical across passes");
      }
      untraced_csv = csv;
    }
    run.attempted += pass.table.cells.size();
    last_pass_s = pass.wall_s;
    ++passes;
  }

  // Output checks: the program's own league equals the measured tables.
  auto reference = arena::RunLeague(config);
  run.Check(reference.ok(), "arena::RunLeague succeeds");
  const std::string reference_csv =
      reference.ok() ? arena::RenderLeagueCsv(reference.value()) : "";
  run.Check(untraced_csv == reference_csv,
            "untraced league table equals arena::RunLeague");
  if (options.trace) {
    run.Check(traced_csv == untraced_csv,
              "traced league table equals the untraced table");
  }
  char digest[64];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(Fnv1a(untraced_csv)));
  run.notes.push_back(std::string{"league table digest fnv1a64="} + digest +
                      " cells=" + std::to_string(reference.ok()
                                                     ? reference.value().cells.size()
                                                     : 0));

  const double wall = Median(untraced_wall);
  run.notes.push_back("league_s=" + std::to_string(wall) + " passes=" +
                      std::to_string(untraced_wall.size()) +
                      " simulated_invocations=" + std::to_string(invocation_events));
  run.metrics.Set("setup_s", Median(setup_s), "s");
  run.metrics.Set("inv_per_s", static_cast<double>(invocation_events) / wall,
                  "1/s");
  // Quality: Defuse's row, averaged over the scenarios.
  if (reference.ok()) {
    double p75 = 0, cold = 0, memory = 0;
    for (const Scenario& s : scenarios) {
      const std::string& scenario = s.spec;
      const arena::LeagueCell* cell =
          FindCell(reference.value(), kHeadlinePolicy, scenario);
      if (cell == nullptr) continue;
      p75 += cell->p75_cold_rate;
      cold += cell->event_cold_fraction;
      memory += cell->avg_memory /
                static_cast<double>(s.workload.model.num_functions());
      if (scenario == kHeadlineScenario) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "headline %s x %s: p75_cold_rate=%.6f avg_memory=%.3f "
                      "loads_per_min=%.3f",
                      kHeadlinePolicy, kHeadlineScenario, cell->p75_cold_rate,
                      cell->avg_memory, cell->avg_loads_per_minute);
        run.notes.push_back(line);
      }
    }
    const auto n = static_cast<double>(config.scenarios.size());
    run.metrics.Set("p75_cold_rate", p75 / n, "ratio");
    run.metrics.Set("cold_fraction", cold / n, "ratio");
    run.metrics.Set("memory_share", memory / n, "ratio");
  }

  if (options.trace && !layer.empty()) {
    auto median_of = [&](auto field) {
      std::vector<double> v;
      for (const LayerTimes& t : layer) v.push_back(field(t));
      return Median(v);
    };
    const LayerTimes& first = layer.front();
    Metrics& m = run.metrics;
    m.Set("mining.classify_s", median_of([](const LayerTimes& t) { return t.classify_s; }), "s");
    m.Set("mining.transactions_s", median_of([](const LayerTimes& t) { return t.transactions_s; }), "s");
    m.Set("mining.fpgrowth_s", median_of([](const LayerTimes& t) { return t.fpgrowth_s; }), "s");
    m.Set("mining.ppmi_s", median_of([](const LayerTimes& t) { return t.ppmi_s; }), "s");
    m.Set("mining.itemsets", static_cast<double>(first.itemsets), "count");
    m.Set("mining.weak_deps", static_cast<double>(first.weak_deps), "count");
    m.Set("graph.components_s", median_of([](const LayerTimes& t) { return t.components_s; }), "s");
    m.Set("graph.units", static_cast<double>(first.units), "count");
    m.Set("policy.seed_s", median_of([](const LayerTimes& t) { return t.seed_s; }), "s");
    m.Set("policy.decide_ns_p50", first.policy.decide_ns.SmoothedPercentile(0.50), "ns");
    m.Set("policy.decide_ns_p99", first.policy.decide_ns.SmoothedPercentile(0.99), "ns");
    m.Set("policy.observe_ns_p50", first.policy.observe_ns.SmoothedPercentile(0.50), "ns");
    m.Set("policy.decisions", static_cast<double>(first.policy.decisions), "count");
    m.Set("policy.prewarm_requests", static_cast<double>(first.policy.prewarm_requests), "count");
    m.Set("sim.simulate_s", median_of([](const LayerTimes& t) { return t.simulate_s; }), "s");
    m.Set("sim.self_s", median_of([](const LayerTimes& t) { return t.sim_self_s; }), "s");
    m.Set("sim.invocation_minutes", static_cast<double>(first.invocation_minutes), "count");
    for (std::size_t si = 0; si < config.scenarios.size(); ++si) {
      m.Set("league.mine_s." + config.scenarios[si],
            median_of([si](const LayerTimes& t) { return t.mine_s[si]; }), "s");
    }
    for (std::size_t pi = 0; pi < config.policies.size(); ++pi) {
      m.Set("league.cell_s." + MetricSuffix(config.policies[pi]),
            median_of([pi](const LayerTimes& t) { return t.cell_s[pi]; }), "s");
    }
    if (reference.ok()) {
      const arena::LeagueCell* cell =
          FindCell(reference.value(), kHeadlinePolicy, kHeadlineScenario);
      if (cell != nullptr) {
        m.Set("league.loads_per_min", cell->avg_loads_per_minute, "loads/min");
      }
    }
    m.Set("tracing.overhead", Median(traced_wall) / wall - 1.0, "ratio");
    const std::string path = options.out_dir + "/spans-league-" +
                             std::to_string(options.seed) + ".jsonl";
    run.Check(log.WriteJsonl(path), "span log written to " + path);
  }
  return run;
}

}  // namespace perfbench
