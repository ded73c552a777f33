//===----------------------------------------------------------------------===//
///
/// \file
/// Workload "ide-edit": an IDE session over one large program.
///
/// One soot-c-shaped program of about 10k methods is loaded into an
/// AnalysisService.  A fixed working set of variables is queried to
/// fill the hot tier, in four steps with one edit committed after each,
/// so the per-commit rows show commit cost against hot-tier size.  The
/// timed loop then repeats rounds of edit cycles: apply a scripted edit
/// (workload::applyScriptEdit) -> foreground delta commit -> re-query
/// the working set plus the edited method's variables -> remove the
/// edit again -> foreground commit.  Every round therefore starts from
/// the same program and replays the same operations.  A cycle is three
/// operations: the edit's commit and the removal's commit (each edit
/// in, queryable out) and the re-query (every working-set answer out).
/// Commits are two thirds of the operations, so the median operation
/// is a commit and the 90th percentile a re-query.
///
/// Writes sit beside reads: every commit runs the delta build,
/// invalidation and the hot-tier sweep against a filled store, then the
/// re-query mostly hits warm.
///
/// Check: after two commits made once the timed loop is over (an edit
/// and its removal), the working-set answers equal a fresh
/// DynSumAnalysis over pag::buildPAG of the edited program — a path with
/// no delta build, no invalidation and no store.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/DynSum.h"
#include "pag/PAGBuilder.h"
#include "service/AnalysisService.h"
#include "workload/Generator.h"

#include <algorithm>
#include <cstdio>

using namespace dynsum;

namespace perfbench {

namespace {

/// soot-c is 3.4k methods at scale 1.
constexpr double kScale = 10000.0 / 3400.0;
/// setup_s samples; one set-up (about 1.4 s) is a sample of its own.
constexpr unsigned kSetupReps = 3;
constexpr size_t kWorkingSet = 600;
/// Edits per round; each is followed by its removal.
constexpr unsigned kEditsPerRound = 6;
constexpr unsigned kFillSteps = 4;

struct CommitRow {
  double Seconds = 0.0, Unattributed = 0.0;
  double Clone = 0.0, Shape = 0.0, Lower = 0.0, Apply = 0.0, Repack = 0.0;
  uint64_t Entries = 0, Invalidated = 0, Dropped = 0;
};

/// One edit cycle's state: the method it edits and the local it adds.
struct Cycle {
  ir::MethodId Method = ir::kNone;
  ir::VarId Fresh = ir::kNone;
};

class Session {
public:
  Session(service::AnalysisService &S, std::vector<ir::VarId> WorkingSet)
      : S(S), WorkingSet(std::move(WorkingSet)) {}

  /// Applies script edit \p I (or, with \p Undo, removes what \p C
  /// added) and commits it in the foreground: edit in, queryable out.
  /// Returns false when the commit failed.
  bool commit(unsigned I, Cycle &C, bool Undo, double &Seconds);
  /// Re-queries the working set plus the variables of the method \p C
  /// edits.  Returns false when a query ended other than Ok.
  bool requery(const Cycle &C, double &Seconds,
               service::ServiceBatchResult &Answers,
               std::vector<ir::VarId> &Vars);

  std::vector<CommitRow> Commits;
  std::vector<double> QueryMs;

private:
  service::AnalysisService &S;
  std::vector<ir::VarId> WorkingSet;
};

bool Session::commit(unsigned I, Cycle &C, bool Undo, double &Seconds) {
  double T0 = now();
  {
    Span SE("service.edit");
    S.editProgram([&](ir::Program &P) {
      if (Undo) {
        ir::VarId F = C.Fresh;
        P.removeStatements(C.Method, [F](const ir::Statement &St) {
          return (St.Kind == ir::StmtKind::Alloc && St.Dst == F) ||
                 (St.Kind == ir::StmtKind::Assign && St.Src == F);
        });
        return std::vector<ir::MethodId>{C.Method};
      }
      std::vector<ir::MethodId> Touched = workload::applyScriptEdit(P, I);
      C.Method = Touched.front();
      C.Fresh = ir::VarId(P.variables().size() - 1);
      return Touched;
    });
  }
  incremental::CommitStats CS;
  {
    Span SC("service.commit");
    CS = S.submitCommit().wait();
    // The pipeline phases, as the commit reported them, laid end to end
    // inside the commit span.
    double T = SC.start();
    const std::pair<const char *, double> Phases[] = {
        {"pag.clone", CS.CloneSeconds}, {"pag.shape", CS.ShapeSeconds},
        {"pag.lower", CS.LowerSeconds}, {"pag.apply", CS.ApplySeconds},
        {"pag.repack", CS.RepackSeconds}};
    for (const auto &[Name, Dur] : Phases) {
      tracer().derived(SC.id(), Name, T, Dur);
      T += Dur;
    }
  }
  Seconds = now() - T0;
  CommitRow Row;
  Row.Seconds = CS.Seconds;
  Row.Clone = CS.CloneSeconds;
  Row.Shape = CS.ShapeSeconds;
  Row.Lower = CS.LowerSeconds;
  Row.Apply = CS.ApplySeconds;
  Row.Repack = CS.RepackSeconds;
  Row.Unattributed = CS.Seconds - (CS.CloneSeconds + CS.ShapeSeconds +
                                   CS.LowerSeconds + CS.ApplySeconds +
                                   CS.RepackSeconds);
  Row.Entries = CS.SummariesBefore;
  Row.Invalidated = CS.MethodsInvalidated;
  Row.Dropped = CS.SharedSummariesDropped;
  Commits.push_back(Row);
  return CS.Outcome == incremental::CommitOutcome::Committed ||
         CS.Outcome == incremental::CommitOutcome::NoOp;
}

bool Session::requery(const Cycle &C, double &Seconds,
                      service::ServiceBatchResult &Answers,
                      std::vector<ir::VarId> &Vars) {
  double T0 = now();
  Vars = WorkingSet;
  for (const ir::Variable &V : S.program().variables())
    if (!V.IsGlobal && V.Owner == C.Method)
      Vars.push_back(V.Id);
  {
    Span SQ("service.query");
    Answers = S.queryVars(Vars);
    tracer().derived(SQ.id(), "engine.batch", SQ.start(),
                     Answers.Stats.Seconds);
    QueryMs.push_back(SQ.stop() * 1e3);
  }
  Seconds = now() - T0;
  bool Ok = true;
  for (const engine::QueryOutcome &O : Answers.Outcomes)
    Ok &= O.Status == analysis::QueryStatus::Ok;
  return Ok;
}

} // namespace

void runIdeEdit(const RunOptions &O, Result &R, Measured &M) {
  std::string Text = generateIr(O.WorkDir, "soot-c", kScale, 0);

  service::ServiceOptions SO;
  SO.Engine.NumThreads = 4;
  std::unique_ptr<service::AnalysisService> Svc;
  std::vector<double> SetupS, ParseS, ConstructS;
  for (unsigned Rep = 0; Rep < kSetupReps; ++Rep) {
    Svc.reset();
    Span SS("bench.setup");
    double T0 = now();
    std::unique_ptr<ir::Program> P = parseIr(Text);
    ParseS.push_back(now() - T0);
    Span SC("service.construct");
    Svc = std::make_unique<service::AnalysisService>(std::move(P), SO);
    ConstructS.push_back(SC.stop());
    SetupS.push_back(SS.stop());
  }
  service::AnalysisService &S = *Svc;

  // The working set is a fixed sample of locals.  (Which variables it
  // holds decides how many budget-bound queries every re-query repeats,
  // and that count alone moves the cycle time by up to 2x.)
  uint64_t WsRng = 0x9e37;
  std::vector<ir::VarId> Locals;
  for (const ir::Variable &V : S.program().variables())
    if (!V.IsGlobal)
      Locals.push_back(V.Id);
  for (size_t I = 0; I < kWorkingSet && I < Locals.size(); ++I)
    std::swap(Locals[I], Locals[I + mix(WsRng) % (Locals.size() - I)]);
  Locals.resize(std::min(kWorkingSet, Locals.size()));
  std::sort(Locals.begin(), Locals.end());

  // The edit script is fixed: script edits 0..kEditsPerRound-1 (plus
  // one more for the fill), as workload::applyScriptEdit numbers them.
  // Edit I and edit I + k * #methods touch the same method, so each
  // round repeats the methods of the first with fresh local names.  The
  // seed orders the cycles of a round.  (Which methods are edited
  // decides whether a budget-bound query sits among their variables,
  // which alone moves the cycle time by half.)
  const unsigned NumMethods = unsigned(S.program().methods().size());
  unsigned NextEdit = 0;
  auto EditNumber = [&](unsigned K) { return K + NextEdit * NumMethods; };
  std::vector<unsigned> CycleOrder;
  for (unsigned K = 0; K < kEditsPerRound; ++K)
    CycleOrder.push_back(K);
  uint64_t Rng = O.Seed * 0x9e37 + 3;
  for (size_t I = CycleOrder.size(); I > 1; --I)
    std::swap(CycleOrder[I - 1], CycleOrder[mix(Rng) % I]);

  Session Sess(S, Locals);
  service::ServiceBatchResult Answers;
  std::vector<ir::VarId> Vars;
  double Secs = 0.0;
  Cycle C;
  uint64_t FillFailed = 0;
  {
    // Fill the hot tier in steps, committing one edit (and its removal)
    // after each, so commit cost shows against hot-tier size.
    Span SF("bench.fill");
    for (unsigned Step = 0; Step < kFillSteps; ++Step) {
      size_t B = Locals.size() * Step / kFillSteps;
      size_t E = Locals.size() * (Step + 1) / kFillSteps;
      S.queryVars(std::vector<ir::VarId>(Locals.begin() + B,
                                         Locals.begin() + E));
      FillFailed += !Sess.commit(EditNumber(kEditsPerRound), C, false, Secs);
      FillFailed += !Sess.requery(C, Secs, Answers, Vars);
      FillFailed += !Sess.commit(0, C, true, Secs);
      ++NextEdit;
    }
  }
  size_t FillCommits = Sess.Commits.size();
  R.ops(3 * kFillSteps, FillFailed);
  service::ServiceStats Before = S.stats();

  // Timed phase.
  RoundLog Log;
  std::vector<double> BatchMs;
  uint64_t Steps = 0, BudgetSteps = 0, Budget = 0, Computed = 0,
           LocalHits = 0, SharedHits = 0;
  unsigned ThreadsUsed = 0;
  double Start = now();
  {
    Span ST("bench.timed");
    while (Log.rounds() == 0 || now() - Start < O.Seconds) {
      Log.beginRound();
      for (unsigned K : CycleOrder) {
        // Three operations: the edit's commit, the re-query, and the
        // removal's commit.
        bool Ok = Sess.commit(EditNumber(K), C, false, Secs);
        R.ops(1, Ok ? 0 : 1);
        Log.op(3 * K, Secs, 0);
        Ok = Sess.requery(C, Secs, Answers, Vars);
        R.ops(1, Ok ? 0 : 1);
        Log.op(3 * K + 1, Secs, Vars.size());
        Ok = Sess.commit(EditNumber(K), C, true, Secs);
        R.ops(1, Ok ? 0 : 1);
        Log.op(3 * K + 2, Secs, 0);
        BatchMs.push_back(Answers.Stats.Seconds * 1e3);
        ThreadsUsed = std::max(ThreadsUsed, Answers.Stats.ThreadsUsed);
        Computed += Answers.Stats.SummariesComputed;
        LocalHits += Answers.Stats.LocalHits;
        SharedHits += Answers.Stats.SharedHits;
        for (const engine::QueryOutcome &Out : Answers.Outcomes) {
          Steps += Out.Steps;
          if (Out.BudgetExceeded) {
            ++Budget;
            BudgetSteps += Out.Steps;
          }
        }
      }
      ++NextEdit;
    }
  }
  M.E2E["peak_rss_mb"] = peakRssMb();
  service::ServiceStats After = S.stats();

  // Check: one more edit and its removal, each compared with a scratch
  // build of the edited program.
  {
    Span SC("bench.check");
    AnswerCheck Check("ide-edit/scratch-rebuild");
    unsigned K = unsigned(mix(Rng) % kEditsPerRound);
    for (bool Undo : {false, true}) {
      bool Ok = Sess.commit(EditNumber(K), C, Undo, Secs);
      Ok &= Sess.requery(C, Secs, Answers, Vars);
      R.ops(1, Ok ? 0 : 1);
      pag::BuiltPAG Fresh = pag::buildPAG(S.program());
      analysis::AnalysisOptions AO;
      analysis::DynSumAnalysis Ref(*Fresh.Graph, AO);
      for (size_t I = 0; I < Vars.size(); ++I) {
        const engine::QueryOutcome &Out = Answers.Outcomes[I];
        analysis::QueryResult E = Ref.query(Fresh.Graph->nodeOfVar(Vars[I]));
        Check.compare(std::vector<uint32_t>(Out.AllocSites.begin(),
                                            Out.AllocSites.end()),
                      !Out.BudgetExceeded, sortedSites(E), !E.BudgetExceeded);
      }
    }
    Check.report(R);
  }

  M.E2E["setup_s"] = median(SetupS);
  Log.report(M);

  // Per-commit rows (fill commits first: the store grows across them).
  std::vector<double> CommitMs, Unattr, Clone, Shape, Lower, Apply, Repack,
      Entries, Invalidated, Dropped;
  for (size_t I = 0; I < Sess.Commits.size(); ++I) {
    const CommitRow &Row = Sess.Commits[I];
    if (O.Trace)
      std::fprintf(stderr,
                   "perfbench: commit %3zu%s store_entries %8llu commit_ms "
                   "%8.3f unattributed_ms %8.3f invalidated %llu dropped "
                   "%llu\n",
                   I, I < FillCommits ? " (fill)" : "       ",
                   (unsigned long long)Row.Entries, Row.Seconds * 1e3,
                   Row.Unattributed * 1e3, (unsigned long long)Row.Invalidated,
                   (unsigned long long)Row.Dropped);
    if (I < FillCommits)
      continue;
    CommitMs.push_back(Row.Seconds * 1e3);
    Unattr.push_back(Row.Unattributed * 1e3);
    Clone.push_back(Row.Clone * 1e3);
    Shape.push_back(Row.Shape * 1e3);
    Lower.push_back(Row.Lower * 1e3);
    Apply.push_back(Row.Apply * 1e3);
    Repack.push_back(Row.Repack * 1e3);
    Entries.push_back(double(Row.Entries));
    Invalidated.push_back(double(Row.Invalidated));
    Dropped.push_back(double(Row.Dropped));
  }
  double PerRound = 1.0 / double(Log.rounds());
  M.Layer["ir.parse_s"] = median(ParseS);
  M.Layer["pag.build_s"] = median(ConstructS);
  M.Layer["service.query_ms"] = median(Sess.QueryMs);
  M.Layer["service.commit_ms"] = median(CommitMs);
  M.Layer["service.commit_unattributed_ms"] = median(Unattr);
  M.Layer["pag.clone_ms"] = median(Clone);
  M.Layer["pag.shape_ms"] = median(Shape);
  M.Layer["pag.lower_ms"] = median(Lower);
  M.Layer["pag.apply_ms"] = median(Apply);
  M.Layer["pag.repack_ms"] = median(Repack);
  M.Layer["engine.store_entries"] = median(Entries);
  M.Layer["incremental.methods_invalidated"] = median(Invalidated);
  M.Layer["incremental.summaries_dropped"] = median(Dropped);
  M.Layer["analysis.ppta_steps"] = Steps * PerRound;
  M.Layer["analysis.summaries_computed"] = Computed * PerRound;
  M.Layer["analysis.budget_exceeded"] = Budget * PerRound;
  M.Layer["analysis.budget_steps_share"] =
      Steps ? double(BudgetSteps) / double(Steps) : 0.0;
  M.Layer["engine.batch_ms"] = median(BatchMs);
  M.Layer["engine.threads_used"] = ThreadsUsed;
  M.Layer["engine.local_hits"] = LocalHits * PerRound;
  M.Layer["engine.shared_hits"] = SharedHits * PerRound;
  const engine::StoreCounters &A = After.Store, &B = Before.Store;
  uint64_t Fetches = A.Fetches - B.Fetches;
  M.Layer["engine.store_fetches"] = Fetches * PerRound;
  M.Layer["engine.store_hit_rate"] =
      Fetches ? double(A.Hits - B.Hits) / double(Fetches) : 0.0;
  M.Layer["engine.store_publishes"] = (A.Publishes - B.Publishes) * PerRound;
  M.Layer["engine.store_invalidated"] =
      (A.Invalidated - B.Invalidated) * PerRound;
  M.Layer["engine.store_lock_contended"] =
      (A.LockContended - B.LockContended) * PerRound;
  std::fprintf(stderr,
               "perfbench: ide-edit: %zu methods, working set %zu, %llu "
               "rounds of %u cycles, store %zu entries\n",
               size_t(NumMethods), Locals.size(),
               (unsigned long long)Log.rounds(), 2 * kEditsPerRound,
               After.StoreSize);
}

} // namespace perfbench
