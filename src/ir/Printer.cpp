//===----------------------------------------------------------------------===//
///
/// \file
/// IR printer implementation.
///
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"

#include "support/Debug.h"
#include "support/OStream.h"

#include <algorithm>
#include <vector>

using namespace dynsum;
using namespace dynsum::ir;

static std::string_view varName(const Program &P, VarId V) {
  return P.names().text(P.variable(V).Name);
}

static std::string_view className(const Program &P, TypeId T) {
  return P.names().text(P.classOf(T).Name);
}

void dynsum::ir::printStatement(const Program &P, const Statement &S,
                                OStream &OS) {
  const StringInterner &Names = P.names();
  switch (S.Kind) {
  case StmtKind::Alloc:
    OS << varName(P, S.Dst) << " = new " << className(P, S.Type);
    if (!P.alloc(S.Alloc).Label.empty())
      OS << " @" << Names.text(P.alloc(S.Alloc).Label);
    break;
  case StmtKind::Null:
    OS << varName(P, S.Dst) << " = null";
    break;
  case StmtKind::Assign:
    OS << varName(P, S.Dst) << " = " << varName(P, S.Src);
    break;
  case StmtKind::Cast:
    OS << varName(P, S.Dst) << " = (" << className(P, S.Type) << ") "
       << varName(P, S.Src);
    break;
  case StmtKind::Load:
    OS << varName(P, S.Dst) << " = " << varName(P, S.Base) << '.'
       << Names.text(P.fields()[S.FieldLabel].Name);
    break;
  case StmtKind::Store:
    OS << varName(P, S.Base) << '.'
       << Names.text(P.fields()[S.FieldLabel].Name) << " = "
       << varName(P, S.Src);
    break;
  case StmtKind::Call: {
    if (S.Dst != kNone)
      OS << varName(P, S.Dst) << " = ";
    OS << (S.IsVirtual ? "vcall" : "call");
    if (P.callSite(S.Call).Label != kNone)
      OS << " @" << P.callSite(S.Call).Label;
    OS << ' ';
    size_t FirstArg = 0;
    if (S.IsVirtual) {
      OS << varName(P, S.Base) << '.' << Names.text(S.VirtualName);
      FirstArg = 1; // receiver is printed before the dot
    } else {
      OS << P.describeMethod(S.Callee);
    }
    OS << '(';
    for (size_t I = FirstArg; I < S.Args.size(); ++I) {
      if (I != FirstArg)
        OS << ", ";
      OS << varName(P, S.Args[I]);
    }
    OS << ')';
    break;
  }
  case StmtKind::Return:
    OS << "return " << varName(P, S.Src);
    break;
  }
}

void dynsum::ir::printProgram(const Program &P, OStream &OS) {
  const StringInterner &Names = P.names();

  // Fields are program-global in this IR; emit the whole field table in
  // the first printed class (or a synthetic holder when the program has
  // no classes) so the round-trip preserves it.
  bool FieldsEmitted = P.fields().empty();
  auto EmitFields = [&] {
    OS << "\n  fields ";
    bool First = true;
    for (const Field &F : P.fields()) {
      if (!First)
        OS << ", ";
      OS << Names.text(F.Name);
      First = false;
    }
    OS << '\n';
    FieldsEmitted = true;
  };
  for (const ClassType &C : P.classes()) {
    if (C.Id == kObjectType)
      continue;
    OS << "class " << Names.text(C.Name);
    if (C.Super != kObjectType)
      OS << " extends " << className(P, C.Super);
    OS << " {";
    if (!FieldsEmitted)
      EmitFields();
    OS << "}\n";
  }
  if (!FieldsEmitted) {
    OS << "class $Fields {";
    EmitFields();
    OS << "}\n";
  }
  for (const Variable &V : P.variables()) {
    if (!V.IsGlobal)
      continue;
    OS << "global " << Names.text(V.Name);
    if (V.DeclaredType != kObjectType)
      OS << " : " << className(P, V.DeclaredType);
    OS << '\n';
  }
  // Typed locals bucketed by owner in one pass (id order within each
  // bucket), so the per-method "var" declarations below cost O(locals)
  // instead of a full variable scan per method.
  std::vector<std::vector<VarId>> TypedLocals(P.methods().size());
  for (const Variable &V : P.variables()) {
    if (V.IsGlobal || V.Owner >= TypedLocals.size() ||
        V.DeclaredType == kObjectType)
      continue;
    const std::vector<VarId> &Params = P.method(V.Owner).Params;
    if (std::find(Params.begin(), Params.end(), V.Id) == Params.end())
      TypedLocals[V.Owner].push_back(V.Id);
  }
  for (const Method &M : P.methods()) {
    OS << "method " << P.describeMethod(M.Id) << '(';
    for (size_t I = 0; I < M.Params.size(); ++I) {
      if (I != 0)
        OS << ", ";
      OS << varName(P, M.Params[I]);
      const Variable &V = P.variable(M.Params[I]);
      if (V.DeclaredType != kObjectType)
        OS << " : " << className(P, V.DeclaredType);
    }
    OS << ") {\n";
    // Re-emit "var x : T" declarations so locals' declared types (used
    // by CHA and SafeCast) survive the round-trip.
    for (VarId L : TypedLocals[M.Id])
      OS << "  var " << varName(P, L) << " : "
         << className(P, P.variable(L).DeclaredType) << '\n';
    for (const Statement &S : M.Stmts) {
      OS << "  ";
      printStatement(P, S, OS);
      OS << '\n';
    }
    OS << "}\n";
  }
}

std::string dynsum::ir::programToString(const Program &P) {
  StringOStream OS;
  printProgram(P, OS);
  return OS.str();
}
