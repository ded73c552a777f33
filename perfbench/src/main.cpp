//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench: the end-to-end benchmark driver.
///
///   perfbench --workload <paper-clients|ide-edit|serve|warm-restart>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--trace-out <file>] [--work-dir <dir>]
///
/// Runs one workload from the seed, checks its answers against an
/// independent computation, and prints as its last stdout line one
/// JSON object: {"correct", "attempted", "failed", "metrics"}.  With
/// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
/// run records spans, writes them to --trace-out, and reports the
/// per-layer metrics instead.  Progress and check reports go to stderr.
/// The exit status is 0 only when every check passed and no operation
/// failed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <paper-clients|"
               "ide-edit|serve|warm-restart> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--work-dir <dir>]\n",
               Why);
  std::exit(2);
}

RunOptions parseArgs(int Argc, char **Argv) {
  RunOptions O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--trace-out")
      O.TraceOut = V;
    else if (A == "--work-dir")
      O.WorkDir = V;
    else
      usage(("unknown option " + A).c_str());
  }
  if (O.Workload.empty())
    usage("--workload is required");
  if (!(O.Seconds > 0 && O.Seconds <= 120))
    usage("--seconds must be in (0, 120]");
  if (O.WorkDir.empty())
    O.WorkDir = ".";
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O = parseArgs(Argc, Argv);
  if (O.Trace)
    tracer().enable();

  Result R;
  Measured M;
  double T0 = now();
  if (O.Workload == "paper-clients")
    runPaperClients(O, R, M);
  else if (O.Workload == "ide-edit")
    runIdeEdit(O, R, M);
  else if (O.Workload == "serve")
    runServe(O, R, M);
  else if (O.Workload == "warm-restart")
    runWarmRestart(O, R, M);
  else
    usage(("unknown workload " + O.Workload).c_str());
  std::fprintf(stderr, "perfbench: %s seed %llu: %.1f s wall, %llu ops\n",
               O.Workload.c_str(), (unsigned long long)O.Seed, now() - T0,
               (unsigned long long)R.attempted());

  // End-to-end numbers go to stderr on every run, so a traced run shows
  // the tracing overhead next to an untraced one.
  for (const auto &[Name, Unit] : endToEndMetrics())
    std::fprintf(stderr, "perfbench: e2e %-16s %14.4f %s%s\n", Name,
                 M.E2E[Name], Unit, O.Trace ? " (traced)" : "");

  if (O.Trace) {
    std::vector<SpanRecord> Spans = tracer().spans();
    SelfTimes ST = selfTimes(Spans);
    double Attributed = 0.0;
    for (const auto &[Layer, Secs] : ST.ByLayer) {
      M.Layer["self." + Layer + "_s"] = Secs;
      if (Layer != "bench")
        Attributed += Secs;
    }
    M.Layer["trace.attributed_share"] =
        ST.TopLevel > 0 ? Attributed / ST.TopLevel : 0.0;
    M.Layer["trace.spans"] = double(Spans.size());
    if (!O.TraceOut.empty() && !tracer().write(O.TraceOut))
      R.fail("cannot write trace file " + O.TraceOut);
    for (const auto &[Name, Unit] : perLayerMetrics()) {
      R.metric(Name, M.Layer[Name], Unit);
      std::fprintf(stderr, "perfbench: layer %-34s %14.4f %s\n", Name,
                   M.Layer[Name], Unit);
    }
  } else {
    for (const auto &[Name, Unit] : endToEndMetrics())
      R.metric(Name, M.E2E[Name], Unit);
  }
  R.print();
  // The result line is printed either way; the exit status tells a
  // caller that reads only the status whether the run was clean.
  return R.clean() ? 0 : 1;
}
