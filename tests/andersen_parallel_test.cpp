//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel-vs-serial Andersen bit-identity oracle.
///
/// The sharded bulk-synchronous solver must reach the exact least
/// fixpoint of the serial worklist at every thread count — not an
/// approximation, not a reordering: for every PAG node the allocation
/// set is element-for-element identical, and for every (object, field)
/// pair the field set is too.
///
/// Runs under TSan in CI, so the three-phase round discipline (frozen
/// deltas, owner-sharded writes, single-writer apply) is also checked
/// for data races, not just for results.
///
//===----------------------------------------------------------------------===//

#include "MiniJavaFuzzer.h"

#include "analysis/Andersen.h"
#include "frontend/Frontend.h"
#include "pag/PAGBuilder.h"

#include <gtest/gtest.h>

using namespace dynsum;
using namespace dynsum::analysis;

namespace {

struct Solvers {
  pag::BuiltPAG Built;
  std::vector<std::unique_ptr<AndersenAnalysis>> All;
};

Solvers solveAllVariants(uint64_t Seed) {
  dynsum::testing::MiniJavaFuzzer Fuzzer(Seed);
  std::string Source = Fuzzer.generate();
  frontend::CompileResult Compiled = frontend::compileMiniJava(Source);
  EXPECT_TRUE(Compiled.ok()) << "seed " << Seed;

  Solvers S;
  S.Built = pag::buildPAG(*Compiled.Prog);
  S.All.push_back(std::make_unique<AndersenAnalysis>(*S.Built.Graph));
  S.All.push_back(std::make_unique<AndersenAnalysis>(*S.Built.Graph, 2));
  S.All.push_back(std::make_unique<AndersenAnalysis>(*S.Built.Graph, 8));
  for (auto &A : S.All)
    A->solve();
  return S;
}

class AndersenParallelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AndersenParallelTest, BitIdenticalAtEveryThreadCount) {
  Solvers S = solveAllVariants(GetParam());
  const pag::PAG &G = *S.Built.Graph;
  const AndersenAnalysis &Ref = *S.All[0];
  static const char *Names[] = {"serial", "parallel-2", "parallel-8"};

  for (size_t V = 0; V < G.numNodes(); ++V) {
    auto Expect = Ref.allocSites(pag::NodeId(V));
    for (size_t I = 1; I < S.All.size(); ++I)
      ASSERT_EQ(S.All[I]->allocSites(pag::NodeId(V)), Expect)
          << "seed " << GetParam() << " node " << V << " variant "
          << Names[I];
  }

  const ir::Program &P = G.program();
  for (size_t A = 0; A < P.allocs().size(); ++A) {
    for (size_t F = 0; F < P.fields().size(); ++F) {
      auto Expect = Ref.fieldAllocSites(ir::AllocId(A), ir::FieldId(F));
      for (size_t I = 1; I < S.All.size(); ++I)
        ASSERT_EQ(S.All[I]->fieldAllocSites(ir::AllocId(A), ir::FieldId(F)),
                  Expect)
            << "seed " << GetParam() << " obj " << A << " field " << F
            << " variant " << Names[I];
    }
  }
}

TEST_P(AndersenParallelTest, ParallelSolveIsDeterministic) {
  dynsum::testing::MiniJavaFuzzer Fuzzer(GetParam());
  std::string Source = Fuzzer.generate();
  frontend::CompileResult Compiled = frontend::compileMiniJava(Source);
  ASSERT_TRUE(Compiled.ok());
  pag::BuiltPAG Built = pag::buildPAG(*Compiled.Prog);

  AndersenAnalysis A(*Built.Graph, 8), B(*Built.Graph, 8);
  A.solve();
  B.solve();
  EXPECT_EQ(A.propagationCount(), B.propagationCount());
  for (size_t V = 0; V < Built.Graph->numNodes(); V += 3)
    ASSERT_EQ(A.allocSites(pag::NodeId(V)), B.allocSites(pag::NodeId(V)))
        << "node " << V;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AndersenParallelTest,
                         ::testing::Range(uint64_t(0), uint64_t(24)));

TEST(AndersenParallel, HardwareThreadCountSmoke) {
  dynsum::testing::MiniJavaFuzzer Fuzzer(99);
  frontend::CompileResult Compiled =
      frontend::compileMiniJava(Fuzzer.generate());
  ASSERT_TRUE(Compiled.ok());
  pag::BuiltPAG Built = pag::buildPAG(*Compiled.Prog);
  AndersenAnalysis Serial(*Built.Graph), Hw(*Built.Graph, /*Threads=*/0);
  Serial.solve();
  Hw.solve();
  for (size_t V = 0; V < Built.Graph->numNodes(); ++V)
    ASSERT_EQ(Hw.allocSites(pag::NodeId(V)), Serial.allocSites(pag::NodeId(V)));
}

TEST(AndersenParallel, ThreadedCallGraphRefinementMatchesSerial) {
  dynsum::testing::MiniJavaFuzzer Fuzzer(7);
  frontend::CompileResult Compiled =
      frontend::compileMiniJava(Fuzzer.generate());
  ASSERT_TRUE(Compiled.ok());
  pag::BuiltPAG Serial = buildPAGWithAndersenCallGraph(*Compiled.Prog);
  pag::BuiltPAG Threaded =
      buildPAGWithAndersenCallGraph(*Compiled.Prog, 2, /*Threads=*/4);
  EXPECT_EQ(Serial.Graph->numNodes(), Threaded.Graph->numNodes());
  EXPECT_EQ(Serial.Graph->numEdges(), Threaded.Graph->numEdges());
}

} // namespace
