// Workload `replay`: what `defuse replay` does, on one thread. An
// azure_like trace is ingested from an in-memory long-format CSV, then
// streamed through platform::Platform minute by minute with daily serial
// full-rebuild re-mines over a 4-day window, taking an in-memory
// SaveDurableState checkpoint at every day boundary.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "trace/azure_csv.hpp"
#include "trace/generator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace defuse;

/// Resident functions are sampled every this many minutes (avg_memory).
constexpr Minute kMemoryStride = 10;

platform::PlatformConfig MakeConfig(Minute horizon_end) {
  platform::PlatformConfig config;
  config.horizon = horizon_end;
  config.remine_interval = kMinutesPerDay;
  config.mining_window = 4 * kMinutesPerDay;
  return config;
}

struct Layer {
  double ingest_s = 0, remine_s = 0, checkpoint_s = 0;
  std::uint64_t remines = 0, state_bytes = 0;
  Samples invoke_ns;
};

struct Pass {
  std::unique_ptr<trace::LoadedTrace> loaded;
  std::unique_ptr<platform::Platform> engine;
  std::string last_checkpoint;
  std::uint64_t invocations = 0;
  std::uint64_t checkpoints = 0;
  double wall_s = 0;
  double avg_memory = 0;
};

/// One replay. With `layer` the pass is traced: every call is timed and
/// booked per layer.
Pass RunPass(const std::string& csv, Layer* layer, SpanLog* log, int run) {
  Pass pass;
  const std::int64_t start = NowNs();
  ScopedSpan pass_span{log, "replay.pass", -1, run};
  {
    const std::int64_t t = NowNs();
    auto loaded = trace::ReadLongCsv(csv);
    if (!loaded.ok()) {
      std::cerr << "ingest failed: " << loaded.error().message << "\n";
      std::exit(2);
    }
    pass.loaded = std::make_unique<trace::LoadedTrace>(std::move(loaded).value());
    if (layer != nullptr) {
      layer->ingest_s = SecondsSince(t);
      log->Add("trace.ingest", t, NowNs(), pass_span.id(), run);
    }
  }
  const trace::InvocationTrace& trace = pass.loaded->trace;
  const TimeRange horizon = trace.horizon();
  pass.engine = std::make_unique<platform::Platform>(
      pass.loaded->model, MakeConfig(horizon.end));
  platform::Platform& engine = *pass.engine;
  const auto index = trace.BuildMinuteIndex(horizon);

  double memory_sum = 0;
  std::uint64_t memory_samples = 0;
  for (Minute t = horizon.begin; t < horizon.end; ++t) {
    if (t % kMemoryStride == 0) {
      memory_sum += static_cast<double>(engine.ResidentFunctions(t));
      ++memory_samples;
    }
    for (const auto& [fn, count] : index.at(t)) {
      if (layer != nullptr) {
        const std::uint64_t remines = engine.stats().remines;
        const std::int64_t a = NowNs();
        (void)engine.Invoke(fn, t);
        const std::int64_t b = NowNs();
        if (engine.stats().remines != remines) {
          layer->remine_s += static_cast<double>(b - a) * 1e-9;
          log->Add("platform.remine", a, b, pass_span.id(), run);
        } else {
          layer->invoke_ns.Add(static_cast<double>(b - a));
        }
      } else {
        (void)engine.Invoke(fn, t);
      }
      ++pass.invocations;
    }
    if ((t + 1) % kMinutesPerDay == 0 || t + 1 == horizon.end) {
      const std::int64_t a = NowNs();
      pass.last_checkpoint = engine.SaveDurableState();
      ++pass.checkpoints;
      if (layer != nullptr) {
        layer->checkpoint_s += SecondsSince(a);
        log->Add("platform.checkpoint", a, NowNs(), pass_span.id(), run);
      }
    }
  }
  pass.wall_s = SecondsSince(start);
  pass.avg_memory =
      memory_samples == 0 ? 0.0 : memory_sum / static_cast<double>(memory_samples);
  if (layer != nullptr) {
    layer->remines = engine.stats().remines;
    layer->state_bytes = pass.last_checkpoint.size();
  }
  return pass;
}

/// 75th percentile of per-function cold-start rates, over functions that
/// were invoked (the platform's analogue of the league's p75).
double P75ColdRate(const platform::Platform& engine) {
  Samples rates;
  const auto& calls = engine.function_invocations();
  const auto& cold = engine.function_cold();
  for (std::size_t f = 0; f < calls.size(); ++f) {
    if (calls[f] == 0) continue;
    rates.Add(static_cast<double>(cold[f]) / static_cast<double>(calls[f]));
  }
  return rates.Percentile(0.75);
}

}  // namespace

RunResult RunReplayWorkload(const RunOptions& options) {
  RunResult run;
  trace::ScenarioSpec spec;
  spec.kind = trace::ScenarioKind::kAzureLike;
  spec.seed = options.seed;
  spec.num_users = options.tiny ? 8 : 150;
  spec.horizon_minutes = (options.tiny ? 3 : 7) * kMinutesPerDay;

  std::vector<double> setup_s;
  std::string csv;
  std::uint64_t generated_invocations = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    csv.clear();
    csv.shrink_to_fit();
    const std::int64_t start = NowNs();
    const trace::SyntheticWorkload workload = trace::GenerateScenario(spec);
    csv = trace::WriteLongCsv(workload.model, workload.trace);
    setup_s.push_back(SecondsSince(start));
    generated_invocations = workload.trace.TotalInvocations(workload.trace.horizon());
  }
  std::uint64_t csv_rows = 0;
  for (const char c : csv) csv_rows += c == '\n' ? 1 : 0;
  csv_rows -= csv_rows > 0 ? 1 : 0;  // header

  std::vector<double> untraced_wall, traced_wall, memory;
  std::vector<Layer> layers;
  SpanLog log;
  Pass last;
  std::string reference_state;
  platform::PlatformStats reference_stats;
  const std::int64_t start = NowNs();
  int passes = 0;
  double last_pass_s = 0;
  while (AnotherPass(start, options.seconds, passes, options.trace ? 2 : 1,
                     last_pass_s)) {
    const bool traced = options.trace && passes % 2 == 1;
    Layer layer;
    Pass pass = traced ? RunPass(csv, &layer, &log, static_cast<int>(layers.size()))
                       : RunPass(csv, nullptr, nullptr, 0);
    (traced ? traced_wall : untraced_wall).push_back(pass.wall_s);
    if (traced) layers.push_back(std::move(layer));
    memory.push_back(pass.avg_memory);
    if (passes == 0) {
      reference_state = pass.last_checkpoint;
      reference_stats = pass.engine->stats();
    } else {
      run.Check(pass.last_checkpoint == reference_state &&
                    pass.engine->stats() == reference_stats,
                std::string{traced ? "traced" : "untraced"} +
                    " replay state identical to the first pass");
    }
    run.attempted += pass.invocations + pass.checkpoints;
    last_pass_s = pass.wall_s;
    last = std::move(pass);
    ++passes;
  }

  // Output checks on the last pass.
  const platform::Platform& engine = *last.engine;
  run.Check(last.loaded->trace.TotalInvocations(last.loaded->trace.horizon()) ==
                generated_invocations,
            "ingested trace holds the generated invocations");
  std::uint64_t cold_sum = 0, call_sum = 0;
  for (const auto c : engine.function_cold()) cold_sum += c;
  for (const auto c : engine.function_invocations()) call_sum += c;
  run.Check(cold_sum == engine.stats().cold_invocations,
            "sum of function_cold() equals stats().cold_invocations");
  run.Check(call_sum == engine.stats().invocations &&
                call_sum == last.invocations,
            "per-function invocations add up to every invoke made");
  platform::Platform restored{last.loaded->model, engine.config()};
  const std::int64_t load_start = NowNs();
  const bool loaded = restored.LoadState(last.last_checkpoint);
  const double load_state_s = SecondsSince(load_start);
  run.Check(loaded, "LoadState accepts the final checkpoint");
  run.Check(restored.SaveDurableState() == last.last_checkpoint,
            "SaveDurableState -> LoadState -> SaveDurableState is byte-identical");

  const double wall = Median(untraced_wall);
  run.notes.push_back("replay_s=" + std::to_string(wall) + " passes=" +
                      std::to_string(untraced_wall.size()) + " invocations=" +
                      std::to_string(last.invocations) + " csv_bytes=" +
                      std::to_string(csv.size()));
  Metrics& m = run.metrics;
  m.Set("setup_s", Median(setup_s), "s");
  m.Set("inv_per_s", static_cast<double>(last.invocations) / wall, "1/s");
  m.Set("p75_cold_rate", P75ColdRate(engine), "ratio");
  m.Set("cold_fraction", engine.stats().cold_fraction(), "ratio");
  m.Set("memory_share",
        Median(memory) / static_cast<double>(engine.function_invocations().size()),
        "ratio");

  if (options.trace && !layers.empty()) {
    auto median_of = [&](auto field) {
      std::vector<double> v;
      for (const Layer& l : layers) v.push_back(field(l));
      return Median(v);
    };
    const Layer& first = layers.front();
    m.Set("trace.ingest_s", median_of([](const Layer& l) { return l.ingest_s; }), "s");
    m.Set("trace.ingest_rows", static_cast<double>(csv_rows), "count");
    m.Set("platform.invoke_ns_p50", first.invoke_ns.SmoothedPercentile(0.50), "ns");
    m.Set("platform.invoke_ns_p99", first.invoke_ns.SmoothedPercentile(0.99), "ns");
    m.Set("platform.remine_s", median_of([](const Layer& l) { return l.remine_s; }), "s");
    m.Set("platform.remines", static_cast<double>(first.remines), "count");
    m.Set("platform.checkpoint_s", median_of([](const Layer& l) { return l.checkpoint_s; }), "s");
    m.Set("platform.state_bytes", static_cast<double>(first.state_bytes), "bytes");
    m.Set("platform.load_state_s", load_state_s, "s");
    m.Set("tracing.overhead", Median(traced_wall) / wall - 1.0, "ratio");
    const std::string path = options.out_dir + "/spans-replay-" +
                             std::to_string(options.seed) + ".jsonl";
    run.Check(log.WriteJsonl(path), "span log written to " + path);

    // The serving layers (server, net, and the open-loop generator) are
    // measured here too: the serve workload drives the same platform
    // behind the real TCP stack. Its end-to-end figures swing with host
    // scheduling noise, so only its per-layer figures are kept.
    RunOptions serve_options = options;
    serve_options.seconds = 10;
    const RunResult serve = RunServeWorkload(serve_options);
    for (const char* prefix : {"server.", "net.", "gen.", "serve."}) {
      m.CopyPrefixed(serve.metrics, prefix);
    }
    run.attempted += serve.attempted;
    run.failed += serve.failed;
    for (const std::string& note : serve.notes) run.notes.push_back("serve " + note);
  }
  return run;
}

}  // namespace perfbench
