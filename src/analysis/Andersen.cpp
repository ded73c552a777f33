//===----------------------------------------------------------------------===//
///
/// \file
/// Andersen solver implementation.
///
/// The solver works on an extended node space: every PAG variable node,
/// plus one node per (object, field) pair touched by a load or store.
/// Assign-like PAG edges (assign, assignglobal, entry, exit) become
/// static copy edges.  Loads and stores add dynamic copy edges as
/// objects reach base variables, the textbook worklist formulation.
///
/// Two solvers share that constraint system:
///
///  * solveSerial: the FIFO worklist of the seed.
///
///  * solveParallel: bulk-synchronous rounds over a frontier of nodes
///    with un-propagated deltas.  Each round runs three phases under
///    the same two-rule discipline as the parallel commit pipeline
///    (readers never see concurrent writes; all shared mutation is
///    either owner-sharded or single-writer):
///
///      1. Stage (parallel, read-only): frontier workers stage
///         (succ, pred) propagation pairs into per-worker buckets keyed
///         by the successor's owner shard (owner = node % threads), and
///         stage (object, field, var) access discoveries per worker.
///         Delta sets and adjacency are frozen.
///      2. Propagate (parallel, owner-sharded): worker S drains every
///         bucket destined for shard S, unioning Delta[pred] into
///         Pts[succ] and recording newly added elements in
///         NextDelta[succ].  Only the owner writes a node's sets.
///      3. Apply (serial, single-writer): discovery tuples are sorted
///         and deduplicated, field nodes are created in sorted
///         (object, field) order — deterministic ids — and new copy
///         edges flush the full source set into their destination.
///
///    Every phase's output is a set union or a sorted list, so the
///    round is deterministic and the fixpoint — unique for a monotone
///    constraint system — is bit-identical to the serial solve.
///
//===----------------------------------------------------------------------===//

#include "analysis/Andersen.h"

#include "support/ExecContext.h"
#include "support/Hashing.h"
#include "support/Parallel.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <tuple>

using namespace dynsum;
using namespace dynsum::analysis;
using namespace dynsum::pag;

namespace {

/// One load or store site, keyed by its base variable.
struct Access {
  uint32_t Base;
  uint32_t Other; // load destination / store source
  ir::FieldId F;
};

/// Splits the PAG into the solver's edge classes.  \p OnSeed(Dst) fires
/// after each New-edge seed lands in its points-to set.
template <class SeedFn, class CopyFn>
void classifyEdges(const PAG &Graph, std::vector<HybridPtsSet> &Pts,
                   std::vector<std::vector<Access>> &LoadsAt,
                   std::vector<std::vector<Access>> &StoresAt, SeedFn OnSeed,
                   CopyFn AddCopy) {
  for (EdgeId Id = 0; Id < Graph.numEdgeSlots(); ++Id) {
    if (!Graph.edgeAlive(Id))
      continue;
    const Edge &E = Graph.edge(Id);
    switch (E.Kind) {
    case EdgeKind::New:
      Pts[E.Dst].set(Graph.allocOf(E.Src));
      OnSeed(E.Dst);
      break;
    case EdgeKind::Assign:
    case EdgeKind::AssignGlobal:
    case EdgeKind::Entry:
    case EdgeKind::Exit:
      AddCopy(E.Src, E.Dst);
      break;
    case EdgeKind::Load:
      // base --load(f)--> dst
      LoadsAt[E.Src].push_back(Access{E.Src, E.Dst, E.Aux});
      break;
    case EdgeKind::Store:
      // src --store(f)--> base
      StoresAt[E.Dst].push_back(Access{E.Dst, E.Src, E.Aux});
      break;
    }
  }
}

} // namespace

AndersenAnalysis::AndersenAnalysis(const PAG &G, unsigned Threads)
    : Graph(G), NumAllocs(G.program().allocs().size()),
      NumThreads(clampThreads(Threads)) {}

bool AndersenAnalysis::addCopy(uint32_t Src, uint32_t Dst) {
  if (!CopyEdges.insert(Src, Dst))
    return false;
  CopySucc[Src].push_back(Dst);
  return true;
}

void AndersenAnalysis::solve() {
  if (Solved)
    return;
  Solved = true;
  if (NumThreads > 1)
    solveParallel();
  else
    solveSerial();
}

void AndersenAnalysis::solveSerial() {
  size_t NumVars = Graph.numNodes();
  Pts.assign(NumVars, HybridPtsSet(NumAllocs));
  CopySucc.assign(NumVars, {});
  CopyEdges.clear();

  std::vector<std::vector<Access>> LoadsAt(NumVars), StoresAt(NumVars);

  // FIFO worklist: the solver is a monotone fixpoint, so any order is
  // correct, but breadth-first propagation batches set-union work and
  // converges with ~3x fewer propagations than LIFO on the generated
  // workloads.  (This is a whole-program pre-analysis, not the query
  // hot path, so the deque's allocation pattern is acceptable.)
  std::deque<uint32_t> Worklist;
  BitVector InList(NumVars);
  std::vector<uint32_t> Members; // discovery scratch, reused per pop
  auto Enqueue = [&](uint32_t N) {
    if (N < NumVars) {
      if (!InList.set(N))
        return;
    }
    Worklist.push_back(N);
  };

  auto FieldNodeOf = [&](ir::AllocId A, ir::FieldId F) -> uint32_t {
    uint64_t Key = packPair(A, F);
    auto It = FieldNodes.find(Key);
    if (It != FieldNodes.end())
      return It->second;
    uint32_t Id = uint32_t(Pts.size());
    Pts.emplace_back(NumAllocs);
    CopySucc.emplace_back();
    FieldNodes.emplace(Key, Id);
    FieldNodeKeys.emplace_back(A, F);
    return Id;
  };

  classifyEdges(Graph, Pts, LoadsAt, StoresAt, Enqueue,
                [&](uint32_t Src, uint32_t Dst) { addCopy(Src, Dst); });

  // InList is sized for variable nodes only; field nodes always enqueue.
  while (!Worklist.empty()) {
    uint32_t N = Worklist.front();
    Worklist.pop_front();
    if (N < NumVars)
      InList.reset(N);
    ++Propagations;

    // Discover dynamic copies induced by field accesses on N's objects.
    // Members are collected into a scratch vector first because the
    // loop creates field nodes (growing Pts) mid-walk.
    if (N < NumVars && (!LoadsAt[N].empty() || !StoresAt[N].empty())) {
      Members.clear();
      Pts[N].forEach([&](uint32_t A) { Members.push_back(A); });
      for (uint32_t A : Members) {
        for (const Access &L : LoadsAt[N]) {
          uint32_t FN = FieldNodeOf(ir::AllocId(A), L.F);
          if (addCopy(FN, L.Other))
            Enqueue(FN);
        }
        for (const Access &S : StoresAt[N]) {
          uint32_t FN = FieldNodeOf(ir::AllocId(A), S.F);
          if (addCopy(S.Other, FN))
            Enqueue(S.Other);
        }
      }
    }

    // Propagate N's set over its copy successors.
    for (uint32_t Succ : CopySucc[N])
      if (Pts[Succ].orInPlace(Pts[N]))
        Enqueue(Succ);
  }
}

void AndersenAnalysis::solveParallel() {
  const size_t NumVars = Graph.numNodes();
  const unsigned T = NumThreads;
  Pts.assign(NumVars, HybridPtsSet(NumAllocs));
  CopySucc.assign(NumVars, {});
  CopyEdges.clear();

  std::vector<std::vector<Access>> LoadsAt(NumVars), StoresAt(NumVars);

  // Delta[N]: elements added to Pts[N] that N has not yet propagated;
  // frozen during the parallel phases of a round.  NextDelta[N]
  // accumulates this round's additions (written only by N's owner).
  // Plain vectors, not sets: an element is reported newly-set exactly
  // once per node, so deltas are duplicate-free by construction, and
  // set membership stays the job of Pts alone.
  std::vector<std::vector<uint32_t>> Delta(NumVars), NextDelta(NumVars);
  std::vector<uint8_t> Touched(NumVars, 0);
  std::vector<uint32_t> Frontier;

  auto MarkSeed = [&](uint32_t N) {
    if (!Touched[N]) {
      Touched[N] = 1;
      Frontier.push_back(N);
    }
  };
  classifyEdges(Graph, Pts, LoadsAt, StoresAt, MarkSeed,
                [&](uint32_t Src, uint32_t Dst) { addCopy(Src, Dst); });
  std::sort(Frontier.begin(), Frontier.end());
  for (uint32_t N : Frontier) {
    Touched[N] = 0;
    Pts[N].forEach( // initial delta = initial set
        [&](uint32_t A) { Delta[N].push_back(A); });
  }

  auto FieldNodeOf = [&](ir::AllocId A, ir::FieldId F) -> uint32_t {
    uint64_t Key = packPair(A, F);
    auto It = FieldNodes.find(Key);
    if (It != FieldNodes.end())
      return It->second;
    uint32_t Id = uint32_t(Pts.size());
    Pts.emplace_back(NumAllocs);
    Delta.emplace_back();
    NextDelta.emplace_back();
    Touched.push_back(0);
    CopySucc.emplace_back();
    FieldNodes.emplace(Key, Id);
    FieldNodeKeys.emplace_back(A, F);
    return Id;
  };

  /// A dynamic-copy discovery: object Alloc reached an accessed base.
  struct Disc {
    uint32_t Alloc;
    uint32_t Field;
    uint32_t Other;
    uint8_t IsLoad;

    bool operator<(const Disc &R) const {
      return std::tie(Alloc, Field, IsLoad, Other) <
             std::tie(R.Alloc, R.Field, R.IsLoad, R.Other);
    }
    bool operator==(const Disc &R) const {
      return Alloc == R.Alloc && Field == R.Field && Other == R.Other &&
             IsLoad == R.IsLoad;
    }
  };

  // Per-worker staging: PropStage[w][s] holds (succ, pred) pairs whose
  // successor is owned by shard s; DiscStage[w] holds discoveries.
  std::vector<std::vector<std::vector<std::pair<uint32_t, uint32_t>>>>
      PropStage(T);
  for (auto &Buckets : PropStage)
    Buckets.resize(T);
  std::vector<std::vector<Disc>> DiscStage(T);
  std::vector<std::vector<uint32_t>> ShardTouched(T);
  std::vector<Disc> AllDisc;

  // One persistent pool for every round: a solve runs hundreds of
  // rounds of two parallel phases each, so per-phase thread spawning
  // would dominate at this granularity.
  support::ExecContext Exec = support::ExecContext::pooled(T);

  while (!Frontier.empty()) {
    Propagations += Frontier.size();

    // Phase 1: stage.  Reads Delta/CopySucc/LoadsAt/StoresAt, writes
    // only this worker's buckets.
    parallelChunks(Frontier.size(), Exec, [&](size_t B, size_t E, unsigned W) {
      for (size_t I = B; I < E; ++I) {
        uint32_t N = Frontier[I];
        for (uint32_t Succ : CopySucc[N])
          PropStage[W][Succ % T].emplace_back(Succ, N);
        if (N < NumVars && (!LoadsAt[N].empty() || !StoresAt[N].empty())) {
          for (uint32_t A : Delta[N]) {
            for (const Access &L : LoadsAt[N])
              DiscStage[W].push_back(Disc{A, L.F, L.Other, 1});
            for (const Access &S : StoresAt[N])
              DiscStage[W].push_back(Disc{A, S.F, S.Other, 0});
          }
        }
      }
    });

    // Phase 2: propagate.  Worker of shard S is the only writer of
    // Pts/NextDelta/Touched for nodes owned by S.
    parallelChunks(T, Exec, [&](size_t B, size_t E, unsigned) {
      for (size_t S = B; S < E; ++S) {
        for (unsigned W = 0; W < T; ++W) {
          for (const auto &Pair : PropStage[W][S]) {
            uint32_t Succ = Pair.first, Pred = Pair.second;
            bool Changed = false;
            for (uint32_t A : Delta[Pred]) {
              if (Pts[Succ].set(A)) {
                NextDelta[Succ].push_back(A);
                Changed = true;
              }
            }
            if (Changed && !Touched[Succ]) {
              Touched[Succ] = 1;
              ShardTouched[S].push_back(Succ);
            }
          }
          PropStage[W][S].clear();
        }
      }
    });

    // Phase 3: apply (single writer).  Consumed deltas are cleared,
    // discoveries create field nodes and edges in sorted order, and a
    // new edge flushes its full source set (covering everything its
    // source drained from deltas in earlier rounds).
    //
    // Deltas RELEASE their storage rather than keeping capacity: over
    // hundreds of rounds nearly every node holds a delta at some
    // point, and retained capacities sum to the total fact count at
    // 4 bytes each — gigabytes at 10k methods — where the live deltas
    // of any one round are a tiny fraction of that.
    for (uint32_t N : Frontier)
      std::vector<uint32_t>().swap(Delta[N]);

    AllDisc.clear();
    for (auto &Stage : DiscStage) {
      AllDisc.insert(AllDisc.end(), Stage.begin(), Stage.end());
      Stage.clear();
    }
    std::sort(AllDisc.begin(), AllDisc.end());
    AllDisc.erase(std::unique(AllDisc.begin(), AllDisc.end()), AllDisc.end());

    std::vector<uint32_t> SerialTouched;
    for (const Disc &D : AllDisc) {
      uint32_t FN = FieldNodeOf(ir::AllocId(D.Alloc), ir::FieldId(D.Field));
      uint32_t Src = D.IsLoad ? FN : D.Other;
      uint32_t Dst = D.IsLoad ? D.Other : FN;
      if (!addCopy(Src, Dst))
        continue;
      bool Changed = Pts[Dst].orInPlace(
          Pts[Src], [&](uint32_t A) { NextDelta[Dst].push_back(A); });
      if (Changed && !Touched[Dst]) {
        Touched[Dst] = 1;
        SerialTouched.push_back(Dst);
      }
    }

    Frontier.clear();
    for (auto &List : ShardTouched) {
      Frontier.insert(Frontier.end(), List.begin(), List.end());
      List.clear();
    }
    Frontier.insert(Frontier.end(), SerialTouched.begin(), SerialTouched.end());
    std::sort(Frontier.begin(), Frontier.end());
    for (uint32_t N : Frontier) {
      Touched[N] = 0;
      std::swap(Delta[N], NextDelta[N]);
      std::vector<uint32_t>().swap(NextDelta[N]);
    }
  }
}

std::vector<ir::AllocId> AndersenAnalysis::allocSites(NodeId V) const {
  assert(Solved && "query before solve()");
  std::vector<ir::AllocId> Out;
  Pts[V].forEach([&](uint32_t A) { Out.push_back(ir::AllocId(A)); });
  return Out;
}

bool AndersenAnalysis::pointsTo(NodeId V, ir::AllocId A) const {
  assert(Solved && "query before solve()");
  return Pts[V].test(A);
}

std::vector<ir::AllocId>
AndersenAnalysis::fieldAllocSites(ir::AllocId A, ir::FieldId F) const {
  assert(Solved && "query before solve()");
  auto It = FieldNodes.find(packPair(A, F));
  if (It == FieldNodes.end())
    return {};
  return allocSites(It->second);
}

std::vector<ir::MethodId>
AndersenTargetResolver::resolve(const ir::Program &P, ir::MethodId Caller,
                                const ir::Statement &S) const {
  assert(S.Kind == ir::StmtKind::Call && S.IsVirtual && "not a virtual call");
  std::vector<ir::MethodId> Targets;
  NodeId Recv = Graph.nodeOfVar(S.Base);
  for (ir::AllocId A : Andersen.allocSites(Recv)) {
    const ir::AllocSite &Site = P.alloc(A);
    if (Site.IsNull)
      continue; // calls on null do not dispatch
    ir::MethodId M = P.dispatch(Site.Type, S.VirtualName);
    if (M != ir::kNone &&
        std::find(Targets.begin(), Targets.end(), M) == Targets.end())
      Targets.push_back(M);
  }
  if (Targets.empty()) {
    // Receiver has no points-to info (dead code or library stubs); fall
    // back to CHA so the PAG stays sound.
    return TargetResolver::resolve(P, Caller, S);
  }
  std::sort(Targets.begin(), Targets.end());
  return Targets;
}

BuiltPAG dynsum::analysis::buildPAGWithAndersenCallGraph(const ir::Program &P,
                                                         unsigned Rounds,
                                                         unsigned Threads) {
  BuiltPAG Built = buildPAG(P); // CHA first
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    AndersenAnalysis Andersen(*Built.Graph, Threads);
    Andersen.solve();
    AndersenTargetResolver Resolver(Andersen, *Built.Graph);
    BuiltPAG Refined = buildPAG(P, &Resolver);
    bool Same = Refined.Graph->numEdges() == Built.Graph->numEdges();
    Built = std::move(Refined);
    if (Same)
      break; // call graph stabilized
  }
  return Built;
}
