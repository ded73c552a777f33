//===----------------------------------------------------------------------===//
///
/// \file
/// Workload "paper-clients": the paper's own evaluation (Tables 3-4).
///
/// Several Table 3 programs are parsed and given an Andersen-refined
/// call graph at setup.  Each round sets them up once more (a setup_s
/// sample) and then answers the three paper
/// clients' query streams (SafeCast, NullDeref, FactoryM) on every
/// program as one cold QueryScheduler batch per (program, client) and
/// judges the answers.  One operation is one program's three batches:
/// queries in, every verdict out.  PPTA compute and the engine do nearly all the
/// work; the commit path, the cross-batch store, the socket and the
/// disk tier do none.
///
/// Checks: every within-budget answer is a subset of whole-program
/// Andersen on the same graph, and equals NOREFINE (RefinePts without
/// refinement) on a seeded sample — the paper's no-precision-loss claim.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/Andersen.h"
#include "analysis/RefinePts.h"
#include "clients/Client.h"
#include "engine/QueryScheduler.h"
#include "workload/BenchmarkSpec.h"
#include "workload/Generator.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

using namespace dynsum;

namespace perfbench {

namespace {

/// The Table 3 programs and scales this workload runs: small enough that
/// a round of all nine batches takes about a second, so a run repeats
/// every batch several times.
struct ProgramChoice {
  const char *Spec;
  double Scale;
};
const ProgramChoice kPrograms[] = {
    {"luindex", 1.0 / 16},
    {"avrora", 1.0 / 16},
    {"xalan", 1.0 / 32},
};
/// NOREFINE answers compared per program (seeded sample).
constexpr size_t kNoRefineSample = 150;

struct LoadedProgram {
  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
};

struct SetupTimes {
  double Parse = 0.0, Build = 0.0, Andersen = 0.0;
};

/// IR text -> program with an Andersen-refined call graph, through the
/// public pieces buildPAGWithAndersenCallGraph is made of (CHA build,
/// Andersen solve, resolver-driven rebuild, until the graph is stable),
/// so PAG building and Andersen are timed apart.
LoadedProgram load(const std::string &Ir, SetupTimes &T) {
  LoadedProgram L;
  double T0 = now();
  L.Prog = parseIr(Ir);
  T.Parse += now() - T0;
  {
    Span S("pag.build");
    L.Built = pag::buildPAG(*L.Prog);
    T.Build += S.stop();
  }
  for (unsigned Round = 0; Round < 2; ++Round) {
    Span SA("analysis.andersen");
    analysis::AndersenAnalysis A(*L.Built.Graph);
    A.solve();
    T.Andersen += SA.stop();
    analysis::AndersenTargetResolver Resolver(A, *L.Built.Graph);
    Span SB("pag.build");
    pag::BuiltPAG Refined = pag::buildPAG(*L.Prog, &Resolver);
    T.Build += SB.stop();
    bool Same = Refined.Graph->numEdges() == L.Built.Graph->numEdges();
    L.Built = std::move(Refined);
    if (Same)
      break;
  }
  return L;
}

struct Stream {
  size_t Program = 0;
  const clients::Client *Client = nullptr;
  std::vector<clients::ClientQuery> Queries;
  std::vector<pag::NodeId> Nodes;
};

} // namespace

void runPaperClients(const RunOptions &O, Result &R, Measured &M) {
  // The programs are a fixed suite, like the paper's benchmarks, and so
  // are the queries asked of them; the seed only orders the queries.
  std::vector<std::string> Texts;
  for (size_t I = 0; I < std::size(kPrograms); ++I)
    Texts.push_back(generateIr(O.WorkDir, kPrograms[I].Spec, kPrograms[I].Scale, I));

  // One set-up of all three programs.  The first gives the programs the
  // rounds query; the timed phase repeats it once per round, so the
  // setup_s samples spread over the whole run like the operations'
  // repetitions.  (A second of back-to-back set-ups at the start spread
  // twice as much from run to run.)
  std::vector<double> SetupS, ParseS, BuildS, AndersenS;
  auto SetUp = [&] {
    Span SS("bench.setup");
    SetupTimes T;
    std::vector<LoadedProgram> Fresh;
    for (const std::string &Text : Texts)
      Fresh.push_back(load(Text, T));
    SetupS.push_back(SS.stop());
    ParseS.push_back(T.Parse);
    BuildS.push_back(T.Build);
    AndersenS.push_back(T.Andersen);
    return Fresh;
  };
  std::vector<LoadedProgram> Progs = SetUp();
  SetupS.clear();

  // The query streams: each client's Table 3 query count, scaled with
  // the program, picked by the client's own stride sample (as the
  // repository's Table 4 bench does), in a seeded order.
  std::vector<std::unique_ptr<clients::Client>> Clients =
      clients::makePaperClients();
  std::vector<Stream> Streams;
  uint64_t Rng = O.Seed * 0x51ed27 + 7;
  for (size_t PI = 0; PI < Progs.size(); ++PI) {
    const workload::BenchmarkSpec &Spec =
        workload::specByName(kPrograms[PI].Spec);
    for (size_t CI = 0; CI < Clients.size(); ++CI) {
      Stream S;
      S.Program = PI;
      S.Client = Clients[CI].get();
      S.Queries = Clients[CI]->makeQueries(
          *Progs[PI].Built.Graph,
          workload::scaledQueryCount(Spec, unsigned(CI), kPrograms[PI].Scale));
      for (size_t I = S.Queries.size(); I > 1; --I)
        std::swap(S.Queries[I - 1], S.Queries[mix(Rng) % I]);
      for (const clients::ClientQuery &Q : S.Queries)
        S.Nodes.push_back(Q.Node);
      if (!S.Nodes.empty())
        Streams.push_back(std::move(S));
    }
  }

  // Timed phase: whole rounds of cold batches until the time is up.  The
  // batches run on one engine thread, as in the paper's sequential
  // evaluation: the work of a batch is then the same in every round, and
  // so is the process's memory.  One operation is one program's
  // evaluation, its three client batches (one Table 4 row).  A FactoryM
  // batch takes milliseconds and the others up to hundreds, and the
  // millisecond batches spread twice as much from run to run.
  RoundLog Log;
  double JudgeSeconds = 0.0;
  uint64_t Queries = 0, Rounds = 0;
  uint64_t Steps = 0, BudgetSteps = 0, Budget = 0, Computed = 0;
  uint64_t LocalHits = 0, SharedHits = 0, Fetches = 0, StoreHits = 0,
           Publishes = 0, Contended = 0, Entries = 0;
  uint64_t Proven = 0, Refuted = 0, Unknown = 0;
  unsigned ThreadsUsed = 0;
  std::vector<double> BatchMs;
  std::vector<std::vector<engine::QueryOutcome>> LastRound(Streams.size());
  double Start = now();
  {
    Span ST("bench.timed");
    while (Rounds == 0 || now() - Start < O.Seconds) {
      Log.beginRound();
      SetUp();
      std::vector<double> ProgSeconds(Progs.size(), 0.0);
      std::vector<uint64_t> ProgAnswers(Progs.size(), 0);
      std::vector<unsigned> ProgFailed(Progs.size(), 0);
      for (size_t SI = 0; SI < Streams.size(); ++SI) {
        const Stream &S = Streams[SI];
        const pag::PAG &G = *Progs[S.Program].Built.Graph;
        engine::EngineOptions EO;
        EO.NumThreads = 1;
        double T0 = now();
        engine::QueryScheduler Sched(G, EO);
        engine::BatchResult BR;
        {
          Span SR("engine.run");
          BR = Sched.run(S.Nodes);
        }
        Span SJ("clients.judge");
        for (size_t I = 0; I < S.Queries.size(); ++I) {
          switch (S.Client->judge(G, S.Queries[I],
                                  BR.Outcomes[I].toQueryResult())) {
          case clients::Verdict::Proven:
            ++Proven;
            break;
          case clients::Verdict::Refuted:
            ++Refuted;
            break;
          case clients::Verdict::Unknown:
            ++Unknown;
            break;
          }
        }
        JudgeSeconds += SJ.stop();
        ProgSeconds[S.Program] += now() - T0;
        ProgAnswers[S.Program] += S.Nodes.size();
        Queries += S.Nodes.size();

        BatchMs.push_back(BR.Stats.Seconds * 1e3);
        ThreadsUsed = std::max(ThreadsUsed, BR.Stats.ThreadsUsed);
        Computed += BR.Stats.SummariesComputed;
        LocalHits += BR.Stats.LocalHits;
        SharedHits += BR.Stats.SharedHits;
        engine::StoreCounters SC = Sched.store().counters();
        Fetches += SC.Fetches;
        StoreHits += SC.Hits;
        Publishes += SC.Publishes;
        Contended += SC.LockContended;
        Entries += Sched.store().size();
        bool Failed = false;
        for (const engine::QueryOutcome &Out : BR.Outcomes) {
          Steps += Out.Steps;
          Failed |= Out.Status != analysis::QueryStatus::Ok;
          if (Out.BudgetExceeded) {
            ++Budget;
            BudgetSteps += Out.Steps;
          }
        }
        ProgFailed[S.Program] |= Failed;
        LastRound[SI] = std::move(BR.Outcomes);
      }
      for (size_t PI = 0; PI < Progs.size(); ++PI) {
        Log.op(PI, ProgSeconds[PI], ProgAnswers[PI]);
        R.ops(1, ProgFailed[PI]);
      }
      ++Rounds;
    }
  }
  M.E2E["peak_rss_mb"] = peakRssMb();

  // Checks, on the last round's answers.
  {
    Span SC("bench.check");
    AnswerCheck Sub("paper-clients/andersen"), NoRef("paper-clients/norefine");
    analysis::AnalysisOptions AO;
    for (size_t PI = 0; PI < Progs.size(); ++PI) {
      const pag::PAG &G = *Progs[PI].Built.Graph;
      analysis::AndersenAnalysis A(G);
      A.solve();
      analysis::RefinePtsAnalysis NR(G, AO, /*Refinement=*/false);
      size_t Sampled = 0;
      uint64_t CheckRng = O.Seed * 977 + PI;
      for (size_t SI = 0; SI < Streams.size(); ++SI) {
        if (Streams[SI].Program != PI)
          continue;
        for (size_t I = 0; I < Streams[SI].Nodes.size(); ++I) {
          pag::NodeId N = Streams[SI].Nodes[I];
          const engine::QueryOutcome &Out = LastRound[SI][I];
          std::vector<uint32_t> Got(Out.AllocSites.begin(),
                                    Out.AllocSites.end());
          std::vector<uint32_t> All = A.allocSites(N);
          std::sort(All.begin(), All.end());
          Sub.compare(Got, !Out.BudgetExceeded, All, true, /*Subset=*/true);
          if (Sampled < kNoRefineSample && mix(CheckRng) % 4 == 0) {
            ++Sampled;
            analysis::QueryResult Ref = NR.query(N);
            NoRef.compare(Got, !Out.BudgetExceeded, sortedSites(Ref),
                          !Ref.BudgetExceeded);
          }
        }
      }
    }
    Sub.report(R);
    NoRef.report(R);
  }

  M.E2E["setup_s"] = median(SetupS);
  Log.report(M);

  double PerRound = 1.0 / double(Rounds);
  M.Layer["ir.parse_s"] = median(ParseS);
  M.Layer["pag.build_s"] = median(BuildS);
  M.Layer["analysis.andersen_s"] = median(AndersenS);
  M.Layer["analysis.ppta_steps"] = Steps * PerRound;
  M.Layer["analysis.summaries_computed"] = Computed * PerRound;
  M.Layer["analysis.budget_exceeded"] = Budget * PerRound;
  M.Layer["analysis.budget_steps_share"] =
      Steps ? double(BudgetSteps) / double(Steps) : 0.0;
  M.Layer["engine.batch_ms"] = median(BatchMs);
  M.Layer["engine.threads_used"] = ThreadsUsed;
  M.Layer["engine.local_hits"] = LocalHits * PerRound;
  M.Layer["engine.shared_hits"] = SharedHits * PerRound;
  M.Layer["engine.store_fetches"] = Fetches * PerRound;
  M.Layer["engine.store_hit_rate"] =
      Fetches ? double(StoreHits) / double(Fetches) : 0.0;
  M.Layer["engine.store_entries"] = Entries * PerRound;
  M.Layer["engine.store_publishes"] = Publishes * PerRound;
  M.Layer["engine.store_lock_contended"] = Contended * PerRound;
  M.Layer["clients.judge_s"] = JudgeSeconds * PerRound;
  M.Layer["clients.proven"] = Proven * PerRound;
  M.Layer["clients.refuted"] = Refuted * PerRound;
  M.Layer["clients.unknown"] = Unknown * PerRound;
  std::fprintf(stderr,
               "perfbench: paper-clients: %zu batches per round, %llu "
               "rounds, %llu queries, %llu over budget\n",
               Streams.size(), (unsigned long long)Rounds,
               (unsigned long long)Queries, (unsigned long long)Budget);
}

} // namespace perfbench
