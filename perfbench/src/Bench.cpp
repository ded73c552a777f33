//===----------------------------------------------------------------------===//
///
/// \file
/// Tracer, statistics, checks and the result line (see Bench.h).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "support/OStream.h"
#include "workload/BenchmarkSpec.h"
#include "workload/Generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <unistd.h>

using namespace dynsum;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

namespace {
thread_local std::vector<int64_t> OpenSpans;
} // namespace

Tracer &tracer() {
  static Tracer T;
  return T;
}

int64_t Tracer::begin(const char *Name, uint64_t Request) {
  SpanRecord S;
  S.Name = Name;
  S.Start = now();
  S.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  S.Request = Request;
  std::lock_guard<std::mutex> L(M);
  Spans.push_back(S);
  int64_t Id = int64_t(Spans.size() - 1);
  OpenSpans.push_back(Id);
  return Id;
}

void Tracer::end(int64_t Id) {
  double T = now();
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> L(M);
  Spans[size_t(Id)].End = T;
}

void Tracer::derived(int64_t Parent, const char *Name, double Start,
                     double Dur) {
  if (!Enabled || Parent < 0)
    return;
  SpanRecord S;
  S.Name = Name;
  S.Start = Start;
  S.End = Start + std::max(0.0, Dur);
  S.Parent = Parent;
  S.Derived = true;
  std::lock_guard<std::mutex> L(M);
  S.Request = Spans[size_t(Parent)].Request;
  Spans.push_back(S);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> L(M);
  return Spans;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<SpanRecord> All = spans();
  double Origin = All.empty() ? 0.0 : All.front().Start;
  for (size_t I = 0; I < All.size(); ++I) {
    const SpanRecord &S = All[I];
    std::fprintf(F,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.1f, "
                 "\"end_us\": %.1f, \"parent\": %lld, \"request\": %llu, "
                 "\"derived\": %s}\n",
                 I, S.Name, (S.Start - Origin) * 1e6, (S.End - Origin) * 1e6,
                 (long long)S.Parent, (unsigned long long)S.Request,
                 S.Derived ? "true" : "false");
  }
  return std::fclose(F) == 0;
}

Span::Span(const char *Name, uint64_t Request) {
  T0 = now();
  if (tracer().enabled())
    Id = tracer().begin(Name, Request);
}

Span::~Span() { stop(); }

double Span::stop() {
  if (Elapsed < 0) {
    Elapsed = now() - T0;
    if (Id >= 0)
      tracer().end(Id);
  }
  return Elapsed;
}

SelfTimes selfTimes(const std::vector<SpanRecord> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  // The answer checks compute their references outside any span; their
  // time is the benchmark's own, not the workload's.
  std::vector<bool> InCheck(Spans.size(), false);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    if (S.Parent >= 0) {
      Children[size_t(S.Parent)].push_back({S.Start, S.End});
      InCheck[I] = InCheck[size_t(S.Parent)];
    } else {
      InCheck[I] = std::string_view(S.Name) == "bench.check";
    }
  }
  SelfTimes Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    if (InCheck[I])
      continue;
    // Union of the children's intervals, clipped to the span.
    auto &C = Children[I];
    std::sort(C.begin(), C.end());
    double Covered = 0.0, CurEnd = S.Start;
    for (auto [B, E] : C) {
      B = std::max(B, CurEnd);
      E = std::min(E, S.End);
      if (E > B) {
        Covered += E - B;
        CurEnd = E;
      }
    }
    std::string Name = S.Name;
    std::string Layer = Name.substr(0, Name.find('.'));
    Out.ByLayer[Layer] += std::max(0.0, S.End - S.Start - Covered);
    if (S.Parent < 0)
      Out.TopLevel += S.End - S.Start;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Statistics and results
//===----------------------------------------------------------------------===//

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(V.size() - 1, Lo + 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double setupSeconds(const std::vector<double> &Each, size_t PerSample) {
  std::vector<double> Means;
  for (size_t B = 0; B < Each.size(); B += PerSample) {
    size_t E = std::min(Each.size(), B + PerSample);
    if (E - B < PerSample && !Means.empty())
      break;
    double Sum = 0.0;
    for (size_t I = B; I < E; ++I)
      Sum += Each[I];
    Means.push_back(Sum / double(E - B));
  }
  return median(Means);
}

double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0.0;
  char Line[256];
  double Kb = 0.0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Kb = std::atof(Line + 6);
  std::fclose(F);
  return Kb / 1024.0;
}

void RoundLog::op(size_t I, double Seconds, uint64_t Answers) {
  if (Ops.size() <= I)
    Ops.resize(I + 1);
  Ops[I].Samples.push_back(Seconds);
  Ops[I].Answers = Answers;
}

void RoundLog::report(Measured &M) const {
  std::vector<double> CostMs;
  double Total = 0.0;
  uint64_t Answers = 0;
  for (const Op &O : Ops) {
    if (O.Samples.empty())
      continue;
    double C = median(O.Samples);
    CostMs.push_back(C * 1e3);
    Total += C;
    Answers += O.Answers;
  }
  M.E2E["answer_p50_ms"] = quantile(CostMs, 0.5);
  M.E2E["answer_p90_ms"] = quantile(CostMs, 0.9);
  M.E2E["queries_per_s"] = Total > 0 ? double(Answers) / Total : 0.0;
  std::fprintf(stderr, "perfbench: %zu operations x %llu rounds\n",
               CostMs.size(), (unsigned long long)Rounds);
}

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  Metrics[Name] = {Value, Unit};
}

void Result::fail(const std::string &Why) {
  Correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", Why.c_str());
}

void Result::print() const {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, VU] : Metrics) {
    char Num[64];
    // %.17g keeps every digit the double carries.
    std::snprintf(Num, sizeof(Num), "%.17g",
                  std::isfinite(VU.first) ? VU.first : 0.0);
    Out += (First ? "\"" : ", \"") + Name + "\": {\"value\": " + Num +
           ", \"unit\": \"" + VU.second + "\"}";
    First = false;
  }
  Out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

void AnswerCheck::compare(const std::vector<uint32_t> &Actual,
                          bool ActualComplete,
                          const std::vector<uint32_t> &Expected,
                          bool ExpectedComplete, bool Subset) {
  if (!ActualComplete || !ExpectedComplete) {
    ++Skipped;
    return;
  }
  ++Compared;
  bool Ok = Subset ? std::includes(Expected.begin(), Expected.end(),
                                   Actual.begin(), Actual.end())
                   : Actual == Expected;
  if (!Ok)
    ++Mismatches;
}

void AnswerCheck::report(Result &R) const {
  std::fprintf(stderr,
               "perfbench: check %-28s compared %llu answers, %llu "
               "mismatches, %llu skipped (budget exceeded)\n",
               Name.c_str(), (unsigned long long)Compared,
               (unsigned long long)Mismatches, (unsigned long long)Skipped);
  if (Compared == 0)
    R.fail(Name + ": compared no answers");
  else if (Mismatches)
    R.fail(Name + ": " + std::to_string(Mismatches) + " mismatches");
}

std::vector<uint32_t> sortedSites(const analysis::QueryResult &R) {
  std::vector<uint32_t> S = R.allocSites();
  std::sort(S.begin(), S.end());
  S.erase(std::unique(S.begin(), S.end()), S.end());
  return S;
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

std::unique_ptr<ir::Program> parseIr(const std::string &Text) {
  Span S("ir.parse");
  ir::ParseResult PR = ir::parseProgram(Text);
  if (!PR.ok()) {
    std::fprintf(stderr, "perfbench: generated IR does not parse: %s\n",
                 PR.Error.c_str());
    std::exit(2);
  }
  return std::move(PR.Prog);
}

std::string generateIr(const std::string &WorkDir, const std::string &Spec,
                       double Scale, uint64_t Seed) {
  char Name[256];
  std::snprintf(Name, sizeof(Name), "/input-%s-%.6f-%llu.ir", Spec.c_str(),
                Scale, (unsigned long long)Seed);
  std::string Path = WorkDir + Name;
  std::string Text;
  if (std::FILE *F = std::fopen(Path.c_str(), "rb")) {
    char Chunk[1 << 16];
    size_t N = 0;
    while ((N = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0)
      Text.append(Chunk, N);
    std::fclose(F);
    if (!Text.empty())
      return Text;
  }
  workload::GenOptions Gen;
  Gen.Scale = Scale;
  Gen.Seed = Seed;
  std::unique_ptr<ir::Program> P =
      workload::generateProgram(workload::specByName(Spec), Gen);
  StringOStream OS;
  ir::printProgram(*P, OS);
  // Written under a temporary name and renamed, so a reader never sees
  // a partial file.
  std::string Tmp = Path + ".tmp" + std::to_string(::getpid());
  if (std::FILE *F = std::fopen(Tmp.c_str(), "wb")) {
    bool Ok = std::fwrite(OS.str().data(), 1, OS.str().size(), F) ==
              OS.str().size();
    Ok &= std::fclose(F) == 0;
    if (!Ok || std::rename(Tmp.c_str(), Path.c_str()) != 0)
      std::remove(Tmp.c_str());
  }
  return OS.str();
}

std::string varSpec(const ir::Program &P, ir::VarId V) {
  const ir::Variable &Var = P.variable(V);
  const ir::Method &M = P.method(Var.Owner);
  std::string Spec;
  if (M.Owner != ir::kNone) {
    Spec += P.names().text(P.classOf(M.Owner).Name);
    Spec += '.';
  }
  Spec += P.names().text(M.Name);
  Spec += '.';
  Spec += P.names().text(Var.Name);
  return Spec;
}

//===----------------------------------------------------------------------===//
// Metric tables
//===----------------------------------------------------------------------===//

const std::vector<std::pair<const char *, const char *>> &endToEndMetrics() {
  static const std::vector<std::pair<const char *, const char *>> T = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"queries_per_s", "1/s"},
      {"answer_p50_ms", "ms"},
      {"answer_p90_ms", "ms"},
  };
  return T;
}

const std::vector<std::pair<const char *, const char *>> &perLayerMetrics() {
  static const std::vector<std::pair<const char *, const char *>> T = {
      {"ir.parse_s", "s"},
      {"pag.build_s", "s"},
      {"analysis.andersen_s", "s"},
      {"pag.clone_ms", "ms"},
      {"pag.shape_ms", "ms"},
      {"pag.lower_ms", "ms"},
      {"pag.apply_ms", "ms"},
      {"pag.repack_ms", "ms"},
      {"service.commit_ms", "ms"},
      {"service.commit_unattributed_ms", "ms"},
      {"incremental.methods_invalidated", "count"},
      {"incremental.summaries_dropped", "count"},
      {"analysis.ppta_steps", "count"},
      {"analysis.summaries_computed", "count"},
      {"analysis.budget_exceeded", "count"},
      {"analysis.budget_steps_share", "ratio"},
      {"engine.batch_ms", "ms"},
      {"engine.threads_used", "count"},
      {"engine.local_hits", "count"},
      {"engine.shared_hits", "count"},
      {"engine.store_fetches", "count"},
      {"engine.store_hit_rate", "ratio"},
      {"engine.store_entries", "count"},
      {"engine.store_publishes", "count"},
      {"engine.store_invalidated", "count"},
      {"engine.store_lock_contended", "count"},
      {"engine.disk_probes", "count"},
      {"engine.disk_hit_rate", "ratio"},
      {"engine.disk_promoted", "count"},
      {"engine.disk_corrupt", "count"},
      {"analysis.summaryio_save_s", "s"},
      {"service.query_ms", "ms"},
      {"server.roundtrip_ms", "ms"},
      {"server.interpret_ms", "ms"},
      {"server.overhead_ms", "ms"},
      {"clients.judge_s", "s"},
      {"clients.proven", "count"},
      {"clients.refuted", "count"},
      {"clients.unknown", "count"},
      {"self.ir_s", "s"},
      {"self.pag_s", "s"},
      {"self.analysis_s", "s"},
      {"self.engine_s", "s"},
      {"self.service_s", "s"},
      {"self.server_s", "s"},
      {"self.clients_s", "s"},
      {"self.bench_s", "s"},
      {"trace.attributed_share", "ratio"},
      {"trace.spans", "count"},
  };
  return T;
}

} // namespace perfbench
