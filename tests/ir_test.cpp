//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the IR: program model, builder, parser, printer,
/// validator.
///
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Program.h"
#include "ir/Validator.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

using namespace dynsum;
using namespace dynsum::ir;

//===----------------------------------------------------------------------===//
// Program model
//===----------------------------------------------------------------------===//

TEST(ProgramTest, ObjectIsTheImplicitRoot) {
  Program P;
  ASSERT_EQ(P.classes().size(), 1u);
  EXPECT_EQ(P.names().text(P.classOf(kObjectType).Name), "Object");
}

TEST(ProgramTest, SubtypingIsReflexiveAndTransitive) {
  Program P;
  TypeId A = P.createClass(P.name("A"), kObjectType);
  TypeId B = P.createClass(P.name("B"), A);
  TypeId C = P.createClass(P.name("C"), B);
  EXPECT_TRUE(P.isSubtypeOf(C, C));
  EXPECT_TRUE(P.isSubtypeOf(C, A));
  EXPECT_TRUE(P.isSubtypeOf(C, kObjectType));
  EXPECT_FALSE(P.isSubtypeOf(A, C));
}

TEST(ProgramTest, DispatchWalksUpTheHierarchy) {
  Program P;
  TypeId A = P.createClass(P.name("A"), kObjectType);
  TypeId B = P.createClass(P.name("B"), A);
  Symbol Run = P.name("run");
  MethodId OnA = P.createMethod(Run, A);
  EXPECT_EQ(P.dispatch(B, Run), OnA);
  EXPECT_EQ(P.dispatch(A, Run), OnA);
  EXPECT_EQ(P.dispatch(kObjectType, Run), kNone);
  // An override in B shadows A's method for B receivers only.
  MethodId OnB = P.createMethod(Run, B);
  EXPECT_EQ(P.dispatch(B, Run), OnB);
  EXPECT_EQ(P.dispatch(A, Run), OnA);
}

TEST(ProgramTest, ChaTargetsCoverTheSubtree) {
  Program P;
  TypeId A = P.createClass(P.name("A"), kObjectType);
  TypeId B1 = P.createClass(P.name("B1"), A);
  TypeId B2 = P.createClass(P.name("B2"), A);
  (void)B2;
  Symbol Run = P.name("run");
  MethodId OnA = P.createMethod(Run, A);
  MethodId OnB1 = P.createMethod(Run, B1);
  std::vector<MethodId> Targets = P.chaTargets(A, Run);
  // B2 inherits A's run; B1 overrides: both methods are possible.
  EXPECT_EQ(Targets, (std::vector<MethodId>{OnA, OnB1}));
}

TEST(ProgramTest, FieldsAreUniquedByName) {
  Program P;
  EXPECT_EQ(P.getOrCreateField(P.name("f")), P.getOrCreateField(P.name("f")));
  EXPECT_NE(P.getOrCreateField(P.name("f")), P.getOrCreateField(P.name("g")));
}

TEST(ProgramTest, NullAllocSitesAreDistinctAndFlagged) {
  Program P;
  MethodId M = P.createMethod(P.name("m"), kNone);
  AllocId N1 = P.createNullAlloc(M);
  AllocId N2 = P.createNullAlloc(M);
  EXPECT_NE(N1, N2);
  EXPECT_TRUE(P.alloc(N1).IsNull);
}

TEST(ProgramTest, Describers) {
  Program P;
  TypeId A = P.createClass(P.name("A"), kObjectType);
  MethodId M = P.createMethod(P.name("go"), A);
  VarId V = P.createLocal(P.name("x"), M, kObjectType);
  VarId G = P.createGlobal(P.name("cfg"), kObjectType);
  AllocId O = P.createAllocSite(A, M, P.name("o1"));
  EXPECT_EQ(P.describeMethod(M), "A.go");
  EXPECT_EQ(P.describeVar(V), "x@A.go");
  EXPECT_EQ(P.describeVar(G), "G.cfg");
  EXPECT_EQ(P.describeAlloc(O), "o1:A");
}

//===----------------------------------------------------------------------===//
// Builder
//===----------------------------------------------------------------------===//

TEST(BuilderTest, LocalsAreScopedPerMethod) {
  ProgramBuilder B;
  MethodId M1 = B.method("m1");
  MethodId M2 = B.method("m2");
  VarId X1 = B.var(M1, "x");
  VarId X2 = B.var(M2, "x");
  EXPECT_NE(X1, X2);
  EXPECT_EQ(B.var(M1, "x"), X1); // stable on re-lookup
}

TEST(BuilderTest, GlobalShadowsLocalName) {
  ProgramBuilder B;
  VarId G = B.global("shared");
  MethodId M = B.method("m");
  EXPECT_EQ(B.var(M, "shared"), G);
}

TEST(BuilderTest, StatementsRecordSites) {
  ProgramBuilder B;
  MethodId M = B.method("m");
  B.cls("T");
  AllocId A = B.alloc(M, "x", "T", "site1");
  CastSiteId C = B.cast(M, "y", "T", "x");
  const Program &P = B.program();
  EXPECT_EQ(P.alloc(A).Owner, M);
  EXPECT_EQ(P.castSite(C).Owner, M);
  EXPECT_EQ(P.castSite(C).Target, P.findClass(P.names().lookup("T")));
  ASSERT_EQ(P.method(M).Stmts.size(), 2u);
  EXPECT_EQ(P.method(M).Stmts[0].Kind, StmtKind::Alloc);
  EXPECT_EQ(P.method(M).Stmts[1].Kind, StmtKind::Cast);
}

TEST(BuilderTest, VcallPassesReceiverFirst) {
  ProgramBuilder B;
  B.cls("T");
  B.method("T.run", {{"this", "T"}, {"p", ""}});
  MethodId M = B.method("m");
  B.vcall(M, "r", "recv", "run", {"arg"});
  const Statement &S = B.program().method(M).Stmts.back();
  ASSERT_EQ(S.Args.size(), 2u);
  EXPECT_EQ(S.Args[0], S.Base);
  EXPECT_TRUE(S.IsVirtual);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(ParserTest, ParsesFigure2) {
  ParseResult R = parseProgram(dynsum::testing::kFigure2Source);
  ASSERT_TRUE(R.ok()) << R.Error;
  const Program &P = *R.Prog;
  EXPECT_NE(P.findClass(P.names().lookup("Vector")), kNone);
  EXPECT_NE(P.findClass(P.names().lookup("Client")), kNone);
  EXPECT_EQ(P.methods().size(), 8u);
  EXPECT_TRUE(validate(P).empty());
}

TEST(ParserTest, ForwardReferencesAcrossDeclarations) {
  // main calls a method declared later; the callee's class appears last.
  ParseResult R = parseProgram(R"(
method main() {
  x = call later(y)
}
method later(p : Late) {
  return p
}
class Late {}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(validate(*R.Prog).empty());
}

TEST(ParserTest, ClassInheritanceAfterMethodUse) {
  ParseResult R = parseProgram(R"(
method Sub.run(this : Sub) { return this }
class Sub extends Base {}
class Base {}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  const Program &P = *R.Prog;
  TypeId Sub = P.findClass(P.names().lookup("Sub"));
  TypeId Base = P.findClass(P.names().lookup("Base"));
  EXPECT_TRUE(P.isSubtypeOf(Sub, Base));
}

TEST(ParserTest, RejectsUnknownCharacters) {
  ParseResult R = parseProgram("class A {} method m() { x = y ? z }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("unexpected character"), std::string::npos);
}

TEST(ParserTest, RejectsUnterminatedBody) {
  ParseResult R = parseProgram("method m() { x = y ");
  EXPECT_FALSE(R.ok());
}

TEST(ParserTest, RejectsVcallWithoutReceiver) {
  ParseResult R = parseProgram("method m() { x = vcall run() }");
  EXPECT_FALSE(R.ok());
}

TEST(ParserTest, ReportsLineNumbers) {
  ParseResult R = parseProgram("class A {}\nmethod m() {\n  !\n}");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("line 3"), std::string::npos);
}

TEST(ParserTest, CommentsAreSkipped) {
  ParseResult R = parseProgram(R"(
# hash comment
class A {}       // trailing comment
method m() {
  // a full-line comment
  x = new A @o1
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Prog->allocs().size(), 1u);
}

TEST(ParserTest, CallSiteLabelsPreserved) {
  ParseResult R = parseProgram(R"(
method callee(p) { return p }
method m() {
  x = call @77 callee(x)
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Prog->callSites().size(), 1u);
  EXPECT_EQ(R.Prog->callSites()[0].Label, 77u);
}

//===----------------------------------------------------------------------===//
// Printer round-trip
//===----------------------------------------------------------------------===//

namespace {

/// Structural fingerprint used to compare programs across a round-trip.
struct Fingerprint {
  size_t Classes, Methods, Vars, Allocs, Calls, Casts, Stmts;

  static Fingerprint of(const Program &P) {
    Fingerprint F{};
    F.Classes = P.classes().size();
    F.Methods = P.methods().size();
    F.Vars = P.variables().size();
    F.Allocs = P.allocs().size();
    F.Calls = P.callSites().size();
    F.Casts = P.castSites().size();
    for (const Method &M : P.methods())
      F.Stmts += M.Stmts.size();
    return F;
  }

  bool operator==(const Fingerprint &O) const {
    return Classes == O.Classes && Methods == O.Methods && Vars == O.Vars &&
           Allocs == O.Allocs && Calls == O.Calls && Casts == O.Casts &&
           Stmts == O.Stmts;
  }
};

} // namespace

TEST(PrinterTest, Figure2RoundTripsStructurally) {
  ParseResult First = parseProgram(dynsum::testing::kFigure2Source);
  ASSERT_TRUE(First.ok()) << First.Error;
  std::string Printed = programToString(*First.Prog);
  ParseResult Second = parseProgram(Printed);
  ASSERT_TRUE(Second.ok()) << Second.Error << "\n" << Printed;
  EXPECT_TRUE(Fingerprint::of(*First.Prog) == Fingerprint::of(*Second.Prog))
      << Printed;
  EXPECT_TRUE(validate(*Second.Prog).empty());
}

TEST(PrinterTest, PreservesDeclaredTypes) {
  ParseResult First = parseProgram(R"(
class T {}
method m() {
  var x : T
  x = new T
}
)");
  ASSERT_TRUE(First.ok());
  ParseResult Second = parseProgram(programToString(*First.Prog));
  ASSERT_TRUE(Second.ok()) << Second.Error;
  const Program &P = *Second.Prog;
  TypeId T = P.findClass(P.names().lookup("T"));
  bool Found = false;
  for (const Variable &V : P.variables())
    if (P.names().text(V.Name) == "x") {
      EXPECT_EQ(V.DeclaredType, T);
      Found = true;
    }
  EXPECT_TRUE(Found);
}

/// Typed locals created interleaved across methods (the way edits and
/// generated programs create them) must each be declared inside their
/// own method, in creation order, and survive a print/parse/print
/// round-trip byte for byte.
TEST(PrinterTest, InterleavedTypedLocalsRoundTrip) {
  ProgramBuilder B;
  B.cls("T");
  B.cls("U");
  MethodId A = B.method("a", {{"p", "T"}});
  MethodId C = B.method("c");
  B.declareLocal(A, "x", "T");
  B.declareLocal(C, "y", "U");
  B.var(A, "plain");
  B.declareLocal(A, "z", "U");
  B.declareLocal(C, "w", "T");
  B.alloc(A, "x", "T");
  B.alloc(C, "w", "T");
  B.assign(A, "plain", "p");

  std::string Printed = programToString(B.program());
  EXPECT_NE(Printed.find("method a(p : T) {\n  var x : T\n  var z : U\n"),
            std::string::npos)
      << Printed;
  EXPECT_NE(Printed.find("method c() {\n  var y : U\n  var w : T\n"),
            std::string::npos)
      << Printed;

  ParseResult Reparsed = parseProgram(Printed);
  ASSERT_TRUE(Reparsed.ok()) << Reparsed.Error << "\n" << Printed;
  EXPECT_TRUE(Fingerprint::of(B.program()) == Fingerprint::of(*Reparsed.Prog));
  EXPECT_EQ(programToString(*Reparsed.Prog), Printed);
}

//===----------------------------------------------------------------------===//
// Validator
//===----------------------------------------------------------------------===//

TEST(ValidatorTest, AcceptsAllTestPrograms) {
  for (const char *Src :
       {dynsum::testing::kFigure2Source, dynsum::testing::kStraightLineSource,
        dynsum::testing::kLocalFieldSource, dynsum::testing::kIdentitySource,
        dynsum::testing::kGlobalSource, dynsum::testing::kRecursionSource,
        dynsum::testing::kListSource, dynsum::testing::kVirtualSource}) {
    ParseResult R = parseProgram(Src);
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_TRUE(validate(*R.Prog).empty()) << Src;
  }
}

TEST(ValidatorTest, FlagsArgCountMismatch) {
  ProgramBuilder B;
  B.method("callee", {{"a", ""}, {"b", ""}});
  MethodId M = B.method("m");
  // Bypass the builder's niceties and write a bad call directly.
  Statement S;
  S.Kind = StmtKind::Call;
  S.Callee = 0;
  S.Call = B.program().createCallSite(M, kNone);
  S.Args.push_back(B.var(M, "x"));
  B.program().addStatement(M, std::move(S));
  std::vector<std::string> Problems = validate(B.program());
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("passes 1 args, expects 2"), std::string::npos);
}

TEST(ValidatorTest, FlagsCrossMethodLocalUse) {
  ProgramBuilder B;
  MethodId M1 = B.method("m1");
  MethodId M2 = B.method("m2");
  VarId Foreign = B.var(M1, "x");
  Statement S;
  S.Kind = StmtKind::Assign;
  S.Dst = B.var(M2, "y");
  S.Src = Foreign;
  B.program().addStatement(M2, std::move(S));
  std::vector<std::string> Problems = validate(B.program());
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("belongs to another method"), std::string::npos);
}

TEST(ValidatorTest, FlagsVirtualCallWithoutTargets) {
  ProgramBuilder B;
  B.cls("Lonely");
  MethodId M = B.method("m");
  B.declareLocal(M, "recv", "Lonely");
  B.vcall(M, "r", "recv", "nothingHere", {});
  std::vector<std::string> Problems = validate(B.program());
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("no CHA target"), std::string::npos);
}
