//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing of the end-to-end benchmark: run options, the span
/// tracer, answer checks, percentile helpers and the one-line JSON
/// result every run ends with.
///
/// Every timed quantity is measured from outside the library, around
/// a call to one of its public entry points.  Spans are recorded only
/// when tracing is on; with tracing off a Span costs one branch.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_PERFBENCH_BENCH_H
#define DYNSUM_PERFBENCH_BENCH_H

#include "analysis/Query.h"
#include "ir/Program.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary fixed origin (steady clock).
inline double now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Command-line options of one run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string TraceOut;
  /// Directory for the files a run writes: the generated inputs, cached
  /// across runs, and the warm-restart snapshot.
  std::string WorkDir;
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One recorded span.  Derived spans are not timed by the benchmark
/// itself but placed from a phase time the library returned (the
/// CommitStats phases, BatchStats::Seconds) inside the span of the call
/// that returned it.
struct SpanRecord {
  const char *Name = "";
  double Start = 0.0;
  double End = 0.0;
  int64_t Parent = -1;
  uint64_t Request = 0;
  bool Derived = false;
};

/// In-memory span log; written out once the run ends.
class Tracer {
public:
  bool enabled() const { return Enabled; }
  void enable() { Enabled = true; }

  /// Opens a span on the calling thread; returns its id (-1 when off).
  int64_t begin(const char *Name, uint64_t Request);
  void end(int64_t Id);
  /// Records a derived child of \p Parent covering [Start, Start + Dur).
  void derived(int64_t Parent, const char *Name, double Start, double Dur);

  std::vector<SpanRecord> spans() const;
  bool write(const std::string &Path) const;

private:
  bool Enabled = false;
  mutable std::mutex M;
  std::vector<SpanRecord> Spans;
};

Tracer &tracer();

/// RAII span around one call into a layer.  The name is
/// "<layer>.<operation>"; the layer is everything before the first dot.
class Span {
public:
  explicit Span(const char *Name, uint64_t Request = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Ends the span early (idempotent); returns its duration in seconds.
  double stop();
  int64_t id() const { return Id; }
  double start() const { return T0; }

private:
  int64_t Id = -1;
  double T0 = 0.0;
  double Elapsed = -1.0;
};

/// Per-layer self time (seconds) over the recorded spans, plus the
/// summed duration of the top-level spans; the answer checks'
/// ("bench.check") spans are left out of both.
struct SelfTimes {
  std::map<std::string, double> ByLayer;
  double TopLevel = 0.0;
};
SelfTimes selfTimes(const std::vector<SpanRecord> &Spans);

//===----------------------------------------------------------------------===//
// Statistics, metrics and the result line
//===----------------------------------------------------------------------===//

/// Linear-interpolated quantile of \p V (0 <= Q <= 1); 0 when empty.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// setup_s from the times of single set-ups, \p Each, in the order they
/// were made: they are taken in consecutive samples of \p PerSample,
/// and the result is the median over the samples of the mean set-up
/// time in each.  A trailing partial sample is dropped
/// unless it is the only one.
double setupSeconds(const std::vector<double> &Each, size_t PerSample);

/// Peak resident set size of this process in MB (VmHWM).
double peakRssMb();

/// What a workload measured: end-to-end and per-layer values by
/// metric name (units come from the metric tables below).
struct Measured {
  std::map<std::string, double> E2E;
  std::map<std::string, double> Layer;
};

/// Per-round samples of a workload's timed phase.  Every round replays
/// the same list of operations, so operation I of one round is the same
/// work as operation I of every other round.  Each operation's cost is
/// the median of its repetitions, and the workload's latency
/// distribution is the distribution of these per-operation costs: a
/// tail percentile then marks the operations that are slow by their
/// nature, not the moments the shared machine was busy.
class RoundLog {
public:
  void beginRound() { ++Rounds; }
  /// Operation \p I of the current round: its latency and the number of
  /// points-to answers it delivered.
  void op(size_t I, double Seconds, uint64_t Answers);
  uint64_t rounds() const { return Rounds; }
  /// Fills queries_per_s, answer_p50_ms and answer_p90_ms.
  void report(Measured &M) const;

private:
  struct Op {
    std::vector<double> Samples;
    uint64_t Answers = 0;
  };
  std::vector<Op> Ops;
  uint64_t Rounds = 0;
};

class Result {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Adds \p N attempted operations, \p Failed of which failed.
  void ops(uint64_t N, uint64_t Failed = 0) {
    Attempted += N;
    this->Failed += Failed;
  }
  void fail(const std::string &Why);
  uint64_t attempted() const { return Attempted; }
  /// True when every check passed and no operation failed.
  bool clean() const { return Correct && Failed == 0 && Attempted > 0; }
  /// Prints the JSON result line to stdout.
  void print() const;

private:
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, std::pair<double, std::string>> Metrics;
};

/// Counts answers compared against an independent computation.  Only
/// answers that finished within budget on both sides are compared.
class AnswerCheck {
public:
  explicit AnswerCheck(std::string Name) : Name(std::move(Name)) {}
  /// Compares one answer; \p Expected is the reference, \p Subset asks
  /// for Actual ⊆ Expected instead of equality.
  void compare(const std::vector<uint32_t> &Actual, bool ActualComplete,
               const std::vector<uint32_t> &Expected, bool ExpectedComplete,
               bool Subset = false);
  /// For answers compared by the caller: one compared, one mismatched,
  /// one skipped because either side exceeded its budget.
  void counted() { ++Compared; }
  void mismatch() { ++Mismatches; }
  void skipped() { ++Skipped; }
  /// Reports to stderr and folds the verdict into \p R: a check that
  /// compared nothing, or found a mismatch, makes the run incorrect.
  void report(Result &R) const;

private:
  std::string Name;
  uint64_t Compared = 0;
  uint64_t Mismatches = 0;
  uint64_t Skipped = 0;
};

/// Allocation sites an answer names, sorted (a QueryResult's projection).
std::vector<uint32_t> sortedSites(const dynsum::analysis::QueryResult &R);

/// Parses IR text through ir::parseProgram inside an "ir.parse" span;
/// exits the process on a parse error (the generator's output must
/// always parse).
std::unique_ptr<dynsum::ir::Program> parseIr(const std::string &Text);

/// The generator's program for Table 3 entry \p Spec at \p Scale and
/// generator seed \p Seed, printed to IR text (the workload layer; never
/// timed).  The text is cached in \p WorkDir: printing a 10k-method
/// program takes seconds.
std::string generateIr(const std::string &WorkDir, const std::string &Spec,
                       double Scale, uint64_t Seed);

/// "Class.method.var" (or "method.var") for a local of \p P.
std::string varSpec(const dynsum::ir::Program &P, dynsum::ir::VarId V);

/// Splitmix64 step: the benchmark's own seeded stream.
inline uint64_t mix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Every per-layer metric, each with its unit.  A traced run reports
/// all of them on every workload (0 where the workload does not reach
/// that layer), so the key set is the same on every run.
const std::vector<std::pair<const char *, const char *>> &perLayerMetrics();

/// The end-to-end metrics, each with its unit.
const std::vector<std::pair<const char *, const char *>> &endToEndMetrics();

// The workloads.  Each counts its operations and checks into \p R and
// its measurements into \p M.
void runPaperClients(const RunOptions &O, Result &R, Measured &M);
void runIdeEdit(const RunOptions &O, Result &R, Measured &M);
void runServe(const RunOptions &O, Result &R, Measured &M);
void runWarmRestart(const RunOptions &O, Result &R, Measured &M);

} // namespace perfbench

#endif // DYNSUM_PERFBENCH_BENCH_H
