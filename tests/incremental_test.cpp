//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of incremental editing through the AnalysisService, driven the
/// way a single-threaded editor drives it (serial commit context, one
/// engine thread, every commit waited on): edits take effect,
/// untouched summaries survive, and warm (incremental) answers always
/// equal cold (from-scratch) answers — including the boundary-flag-flip
/// case that naive per-method invalidation would get wrong.
///
//===----------------------------------------------------------------------===//

#include "service/AnalysisService.h"

#include "analysis/DynSum.h"
#include "ir/Parser.h"
#include "ir/Validator.h"
#include "pag/PAGBuilder.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dynsum;
using analysis::AnalysisOptions;
using analysis::QueryResult;
using engine::QueryOutcome;
using incremental::CommitOutcome;
using incremental::CommitStats;
using service::AnalysisService;

namespace {

std::unique_ptr<ir::Program> parse(const char *Source) {
  ir::ParseResult R = ir::parseProgram(Source);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.Prog);
}

ir::VarId varOf(const ir::Program &P, std::string_view Method,
                std::string_view Name) {
  ir::MethodId M = P.findFreeMethod(P.names().lookup(Method));
  EXPECT_NE(M, ir::kNone) << "no free method " << Method;
  Symbol N = P.names().lookup(Name);
  for (const ir::Variable &V : P.variables())
    if (!V.IsGlobal && V.Owner == M && V.Name == N)
      return V.Id;
  ADD_FAILURE() << "no variable " << Name << " in " << Method;
  return ir::kNone;
}

ir::AllocId allocOf(const ir::Program &P, std::string_view Label) {
  Symbol L = P.names().lookup(Label);
  for (const ir::AllocSite &A : P.allocs())
    if (A.Label == L)
      return A.Id;
  ADD_FAILURE() << "no alloc " << Label;
  return ir::kNone;
}

bool contains(const QueryOutcome &O, ir::AllocId A) {
  return std::find(O.AllocSites.begin(), O.AllocSites.end(), A) !=
         O.AllocSites.end();
}

/// A service configured like a single-threaded editor: one engine
/// thread and the default serial commit context.
std::unique_ptr<AnalysisService> serialService(std::unique_ptr<ir::Program> P) {
  service::ServiceOptions SO;
  SO.Engine.NumThreads = 1;
  return std::make_unique<AnalysisService>(std::move(P), SO);
}

/// Publishes the buffered edits and returns the commit's stats.
CommitStats commit(AnalysisService &S) { return S.submitCommit().wait(); }

const char *kTwoMethodSource = R"(
class A {}
class Box { fields f }
method helper(b) {
  t = b.f
  return t
}
method main() {
  box = new Box @obox
  a = new A @oa
  box.f = a
  r = call helper(box)
  other = new A @oother
}
)";

TEST(ServiceEditTest, AddedAllocationVisibleAfterCommit) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::VarId Other = varOf(*P, "main", "other");

  auto S = serialService(std::move(P));
  EXPECT_EQ(S->queryVar(Other).AllocSites.size(), 1u);

  // other = new A @onew
  ir::Program &Q = S->program();
  ir::Statement New;
  New.Kind = ir::StmtKind::Alloc;
  New.Dst = Other;
  New.Type = Q.findClass(Q.names().lookup("A"));
  New.Alloc = Q.createAllocSite(New.Type, Main, Q.name("onew"));
  S->addStatement(Main, std::move(New));
  EXPECT_EQ(commit(*S).Outcome, CommitOutcome::Committed);

  QueryOutcome R1 = S->queryVar(Other);
  EXPECT_EQ(R1.AllocSites.size(), 2u);
  EXPECT_TRUE(contains(R1, allocOf(Q, "onew")));
}

TEST(ServiceEditTest, RemovedStoreShrinksPointsTo) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::VarId R = varOf(*P, "main", "r");

  auto S = serialService(std::move(P));
  EXPECT_EQ(S->queryVar(R).AllocSites.size(), 1u);

  size_t Removed = S->removeStatements(Main, [](const ir::Statement &St) {
    return St.Kind == ir::StmtKind::Store;
  });
  EXPECT_EQ(Removed, 1u);
  commit(*S);
  EXPECT_TRUE(S->queryVar(R).AllocSites.empty())
      << "without the store, helper finds nothing in box.f";
}

TEST(ServiceEditTest, UntouchedMethodSummariesSurvive) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::VarId R = varOf(*P, "main", "r");

  auto S = serialService(std::move(P));
  S->queryVar(R); // warm the store through helper()
  size_t Warm = S->stats().StoreSize;
  ASSERT_GT(Warm, 0u);

  // Edit main only; helper's summaries must survive.
  ir::Program &Q = S->program();
  ir::Statement New;
  New.Kind = ir::StmtKind::Alloc;
  New.Dst = varOf(Q, "main", "other");
  New.Type = Q.findClass(Q.names().lookup("A"));
  New.Alloc = Q.createAllocSite(New.Type, Main, Q.name("onew"));
  S->addStatement(Main, std::move(New));
  CommitStats Stats = commit(*S);

  EXPECT_EQ(Stats.SummariesBefore, Warm);
  EXPECT_LT(Stats.SummariesDropped, Warm)
      << "per-method invalidation must not clear everything";
  EXPECT_EQ(S->stats().StoreSize, Warm - Stats.SummariesDropped);
  // Only the edited method's segment is re-lowered.
  EXPECT_EQ(Stats.MethodsRelowered, 1u);
}

TEST(ServiceEditTest, AddingAVariableKeepsNodeIdsStable) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::VarId R = varOf(*P, "main", "r");

  auto S = serialService(std::move(P));
  QueryOutcome Before = S->queryVar(R);
  ASSERT_GT(S->stats().StoreSize, 0u);

  // A mirror of the graph the service published, patched below by the
  // same delta build a commit runs: record every pre-edit node id, none
  // may move.
  ir::Program &Q = S->program();
  pag::BuiltPAG Mirror = pag::buildPAG(Q);
  std::vector<pag::NodeId> VarNodes, AllocNodes;
  for (const ir::Variable &V : Q.variables())
    VarNodes.push_back(Mirror.Graph->nodeOfVar(V.Id));
  for (const ir::AllocSite &A : Q.allocs())
    AllocNodes.push_back(Mirror.Graph->nodeOfAlloc(A.Id));

  // A new local + alloc: both append fresh node ids at the end.
  ir::VarId Fresh = ir::kNone;
  S->editProgram([&](ir::Program &E) {
    Fresh = E.createLocal(E.name("fresh"), Main, ir::kObjectType);
    ir::Statement New;
    New.Kind = ir::StmtKind::Alloc;
    New.Dst = Fresh;
    New.Type = E.findClass(E.names().lookup("A"));
    New.Alloc = E.createAllocSite(New.Type, Main, E.name("ofresh"));
    E.addStatement(Main, std::move(New));
    return std::vector<ir::MethodId>{};
  });
  CommitStats Stats = commit(*S);
  EXPECT_EQ(Stats.MethodsRelowered, 1u);

  pag::buildPAGDelta(*Mirror.Graph, Mirror.Calls);
  for (size_t I = 0; I < VarNodes.size(); ++I)
    EXPECT_EQ(Mirror.Graph->nodeOfVar(ir::VarId(I)), VarNodes[I])
        << "variable node id moved";
  for (size_t I = 0; I < AllocNodes.size(); ++I)
    EXPECT_EQ(Mirror.Graph->nodeOfAlloc(ir::AllocId(I)), AllocNodes[I])
        << "object node id moved";
  EXPECT_GE(Mirror.Graph->nodeOfVar(Fresh),
            VarNodes.size() + AllocNodes.size())
      << "new nodes append after every existing id";

  // Surviving summaries are keyed by those stable ids: the re-query
  // reuses helper's entries and still answers correctly over the
  // patched graph.
  uint64_t HitsBefore = S->stats().Store.Hits;
  QueryOutcome After = S->queryVar(R);
  EXPECT_EQ(Before.AllocSites, After.AllocSites);
  EXPECT_GT(S->stats().Store.Hits, HitsBefore)
      << "no surviving summary was reused across the commit";
  QueryOutcome FreshR = S->queryVar(Fresh);
  ASSERT_EQ(FreshR.AllocSites.size(), 1u);
  EXPECT_TRUE(contains(FreshR, allocOf(Q, "ofresh")));
}

/// The boundary-flag regression: helper() starts out *uncalled*; its
/// formal has no incoming entry edge, so the summary for t records no
/// boundary tuple.  Adding the first call must invalidate helper's
/// summaries even though helper itself was never edited.
TEST(ServiceEditTest, FirstCallToAMethodInvalidatesItsSummaries) {
  auto P = parse(R"(
    class A {}
    class Box { fields f }
    method helper(b) {
      t = b.f
      return t
    }
    method main() {
      box = new Box @obox
      a = new A @oa
      box.f = a
    }
  )");
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::MethodId Helper = P->findFreeMethod(P->names().lookup("helper"));
  ir::VarId T = varOf(*P, "helper", "t");
  ir::VarId Box = varOf(*P, "main", "box");

  auto S = serialService(std::move(P));
  // Query t while helper has no callers: nothing can flow into b.
  EXPECT_TRUE(S->queryVar(T).AllocSites.empty());

  // Add "r = call helper(box)" to main.
  ir::VarId R = ir::kNone;
  S->editProgram([&](ir::Program &Q) {
    R = Q.createLocal(Q.name("r"), Main, ir::kObjectType);
    ir::Statement Call;
    Call.Kind = ir::StmtKind::Call;
    Call.Dst = R;
    Call.Callee = Helper;
    Call.Call = Q.createCallSite(Main, 99);
    Call.Args.push_back(Box);
    Q.addStatement(Main, std::move(Call));
    return std::vector<ir::MethodId>{};
  });
  CommitStats Stats = commit(*S);
  EXPECT_GE(Stats.MethodsInvalidated, 2u)
      << "helper's flipped boundary flag must invalidate it too";

  // The warm query must now see oa flowing through the new call; a
  // stale summary (no boundary tuple at b) would keep it empty.
  ir::AllocId Oa = allocOf(S->program(), "oa");
  QueryOutcome RT = S->queryVar(T);
  EXPECT_EQ(RT.AllocSites.size(), 1u);
  EXPECT_TRUE(contains(RT, Oa));
  EXPECT_TRUE(contains(S->queryVar(R), Oa));
}

/// Removing the only call is the mirror image: flows must disappear and
/// the callee's summaries must be refreshed.
TEST(ServiceEditTest, RemovingTheOnlyCallSeversFlows) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::VarId T = varOf(*P, "helper", "t");

  auto S = serialService(std::move(P));
  EXPECT_EQ(S->queryVar(T).AllocSites.size(), 1u);

  size_t Removed = S->removeStatements(Main, [](const ir::Statement &St) {
    return St.Kind == ir::StmtKind::Call;
  });
  ASSERT_EQ(Removed, 1u);
  commit(*S);
  EXPECT_TRUE(S->queryVar(T).AllocSites.empty());
}

TEST(ServiceEditTest, CommitIsIdempotentWhenClean) {
  auto S = serialService(parse(kTwoMethodSource));
  CommitStats Stats = commit(*S);
  EXPECT_EQ(Stats.Outcome, CommitOutcome::NoOp);
  EXPECT_EQ(Stats.SummariesBefore, 0u);
  EXPECT_EQ(Stats.SummariesDropped, 0u);
  EXPECT_FALSE(S->dirty());
  EXPECT_EQ(S->generation(), 0u);
}

TEST(ServiceEditTest, ValidatorStaysGreenAcrossEdits) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  auto S = serialService(std::move(P));

  S->editProgram([Main](ir::Program &Q) {
    ir::Statement New;
    New.Kind = ir::StmtKind::Null;
    New.Dst = varOf(Q, "main", "other");
    New.Alloc = Q.createNullAlloc(Main);
    Q.addStatement(Main, std::move(New));
    return std::vector<ir::MethodId>{};
  });
  EXPECT_EQ(commit(*S).Outcome, CommitOutcome::Committed)
      << "the pre-commit validation gate rejected a valid edit";

  EXPECT_TRUE(ir::validate(S->program()).empty());
}

//===----------------------------------------------------------------------===//
// Warm == cold property over generated programs
//===----------------------------------------------------------------------===//

/// Runs a random edit/query script through the service and checks every
/// warm answer against a cold DYNSUM built from scratch on an identical
/// program.
class WarmColdTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WarmColdTest, WarmAnswersEqualColdAnswers) {
  workload::GenOptions Gen;
  Gen.Scale = 1.0 / 256;
  Gen.Seed = GetParam();
  const workload::BenchmarkSpec &Spec = workload::paperSuite()[0]; // jack
  auto P = generateProgram(Spec, Gen);
  ASSERT_TRUE(ir::validate(*P).empty());

  AnalysisOptions Opts;
  auto S = serialService(std::move(P));

  // Deterministic query set: every variable with at least one new edge
  // plus some load destinations, strided down to keep the test fast.
  std::vector<ir::VarId> Queries;
  for (const ir::Variable &V : S->program().variables())
    if (!V.IsGlobal && V.Id % 97 == 0)
      Queries.push_back(V.Id);
  ASSERT_GT(Queries.size(), 4u);

  // Warm the store.
  for (ir::VarId V : Queries)
    S->queryVar(V);

  // Scripted edits: add an allocation and an assignment chain to a few
  // methods spread over the program.
  ir::Program &Q = S->program();
  ir::TypeId SomeClass = Q.classes().back().Id;
  for (size_t I = 1; I < Q.methods().size(); I += 31) {
    ir::MethodId M = Q.methods()[I].Id;
    ir::VarId Fresh =
        Q.createLocal(Q.name("edit" + std::to_string(I)), M, SomeClass);
    ir::Statement New;
    New.Kind = ir::StmtKind::Alloc;
    New.Dst = Fresh;
    New.Type = SomeClass;
    New.Alloc = Q.createAllocSite(SomeClass, M, Symbol{});
    S->addStatement(M, std::move(New));
    if (!Q.method(M).Stmts.empty()) {
      const ir::Statement &First = Q.method(M).Stmts.front();
      if (First.Kind == ir::StmtKind::Alloc) {
        ir::Statement Copy;
        Copy.Kind = ir::StmtKind::Assign;
        Copy.Src = Fresh;
        Copy.Dst = First.Dst;
        S->addStatement(M, std::move(Copy));
      }
    }
  }
  ASSERT_EQ(commit(*S).Outcome, CommitOutcome::Committed);

  // Cold reference: fresh PAG + fresh DYNSUM over the same program.
  pag::BuiltPAG Cold = pag::buildPAG(S->program());
  analysis::DynSumAnalysis ColdDynSum(*Cold.Graph, Opts);

  size_t Compared = 0;
  for (ir::VarId V : Queries) {
    QueryOutcome Warm = S->queryVar(V);
    QueryResult ColdR = ColdDynSum.query(Cold.Graph->nodeOfVar(V));
    EXPECT_EQ(Warm.AllocSites, ColdR.allocSites())
        << "stale summary for variable " << S->program().describeVar(V);
    EXPECT_EQ(Warm.BudgetExceeded, ColdR.BudgetExceeded);
    ++Compared;
  }
  EXPECT_GT(Compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmColdTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

} // namespace
