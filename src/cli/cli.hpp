// The `defuse` command-line tool: the library pipeline as a set of
// composable commands over on-disk traces and mined artifacts.
//
//   defuse generate  --users 100 --days 14 --seed 1 --out trace.csv
//   defuse inspect   --trace trace.csv
//   defuse mine      --trace trace.csv --sets-out sets.csv
//                    [--edges-out edges.csv] [--dot-out graph.dot]
//   defuse simulate  --trace trace.csv --method defuse [--sets sets.csv]
//   defuse sweep     --trace trace.csv --amplifications 1,2,4
//
// The command logic lives in a library (RunCli) so it is unit-testable
// in-process; main() is a thin wrapper.
#pragma once

#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace defuse::cli {

/// Runs one CLI invocation. `args` excludes the program name. Normal
/// output goes to `out`, diagnostics to `err`. Returns the process exit
/// code (0 on success, 1 on usage errors, 2 on runtime failures).
int RunCli(std::span<const std::string> args, std::ostream& out,
           std::ostream& err);

/// Splits an `arena --policies/--scenarios` list into specs:
/// "hybrid:set,spes:tier=cost" -> {"hybrid:set", "spes:tier=cost"}. A
/// `key=value` token continues the previous spec's parameter list, so
/// "hiku:delay=2,window=3" stays one spec.
[[nodiscard]] std::vector<std::string> SplitSpecList(const std::string& text);

}  // namespace defuse::cli
