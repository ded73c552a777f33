//===----------------------------------------------------------------------===//
///
/// \file
/// Workload "warm-restart": restarting a service from its snapshot.
///
/// An untimed phase answers a fixed batch on a cold
/// AnalysisService and saves its summary store (saveSummaries).  Each
/// round of the timed phase is one restart: parse the IR text, build a
/// service whose WarmFromDiskPath attaches that snapshot as the
/// memory-mapped disk tier, then answer the same batch, split into
/// fixed sub-batches.  One operation is one sub-batch of the first
/// batch after a restart.  This is the only workload where the disk
/// tier and the SummaryIO reader do the work and PPTA compute does
/// almost none.
///
/// Checks: the last restart's answers equal the cold service's, and
/// the disk tier served some of them (disk hit rate above 0).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "service/AnalysisService.h"

#include <algorithm>
#include <cstdio>
#include <unistd.h>

using namespace dynsum;

namespace perfbench {

namespace {

/// soot-c at a quarter of the ide-edit size (about 2.5k methods).
constexpr double kScale = 2500.0 / 3400.0;
constexpr size_t kBatch = 1600;
constexpr size_t kSubBatches = 8;
/// Restarts per setup_s sample: a restart's set-up takes about 0.3 s, so
/// a sample holds about a second of set-up work, spread over three
/// rounds.
constexpr size_t kRestartsPerSample = 3;

} // namespace

void runWarmRestart(const RunOptions &O, Result &R, Measured &M) {
  std::string Text = generateIr(O.WorkDir, "soot-c", kScale, 0);
  std::string Snapshot = O.WorkDir + "/perfbench-warm-" +
                         std::to_string(::getpid()) + ".dsum";

  service::ServiceOptions SO;
  SO.Engine.NumThreads = 1;

  // The batch: a fixed sample of locals (which locals it holds decides
  // how many budget-bound queries every restart recomputes).
  std::vector<ir::VarId> Batch;
  std::vector<engine::QueryOutcome> Cold;
  double SaveSeconds = 0.0;
  {
    Span SP("bench.prepare");
    service::AnalysisService S(parseIr(Text), SO);
    std::vector<ir::VarId> Locals;
    for (const ir::Variable &V : S.program().variables())
      if (!V.IsGlobal)
        Locals.push_back(V.Id);
    uint64_t Fixed = 0x5851f42d;
    for (size_t I = 0; I < kBatch && I < Locals.size(); ++I)
      std::swap(Locals[I], Locals[I + mix(Fixed) % (Locals.size() - I)]);
    Locals.resize(std::min(kBatch, Locals.size()));
    // The seed orders the queries inside each sub-batch.
    uint64_t Rng = O.Seed * 0x5851f42d + 1;
    for (size_t K = 0; K < kSubBatches; ++K) {
      size_t B = Locals.size() * K / kSubBatches;
      size_t E = Locals.size() * (K + 1) / kSubBatches;
      for (size_t I = E; I > B + 1; --I)
        std::swap(Locals[I - 1], Locals[B + mix(Rng) % (I - B)]);
    }
    Batch = Locals;
    Cold = S.queryVars(Batch).Outcomes;
    Span SS("analysis.summaryio_save");
    if (!S.saveSummaries(Snapshot)) {
      R.fail("cannot save the snapshot to " + Snapshot);
      return;
    }
    SaveSeconds = SS.stop();
  }

  SO.WarmFromDiskPath = Snapshot;
  RoundLog Log;
  std::vector<double> SetupS, ParseS, ConstructS, QueryMs;
  std::vector<engine::QueryOutcome> Warm;
  engine::StoreCounters Disk;
  uint64_t Steps = 0, BudgetSteps = 0, Budget = 0, Computed = 0;
  double Start = now();
  {
    Span ST("bench.timed");
    while (Log.rounds() == 0 || now() - Start < O.Seconds) {
      Log.beginRound();
      Span SR("bench.restart");
      double T0 = now();
      std::unique_ptr<ir::Program> P = parseIr(Text);
      ParseS.push_back(now() - T0);
      Span SC("service.warm_attach");
      service::AnalysisService S(std::move(P), SO);
      ConstructS.push_back(SC.stop());
      SetupS.push_back(now() - T0);
      if (!S.stats().DiskTierAttached)
        R.fail("the snapshot did not attach as a disk tier");
      Warm.clear();
      bool Failed = false;
      for (size_t K = 0; K < kSubBatches; ++K) {
        size_t B = Batch.size() * K / kSubBatches;
        size_t E = Batch.size() * (K + 1) / kSubBatches;
        std::vector<ir::VarId> Sub(Batch.begin() + B, Batch.begin() + E);
        Span SQ("service.query");
        service::ServiceBatchResult Res = S.queryVars(Sub);
        double Secs = SQ.stop();
        tracer().derived(SQ.id(), "engine.batch", SQ.start(),
                         Res.Stats.Seconds);
        Log.op(K, Secs, Sub.size());
        QueryMs.push_back(Secs * 1e3);
        Computed += Res.Stats.SummariesComputed;
        for (engine::QueryOutcome &Out : Res.Outcomes) {
          Failed |= Out.Status != analysis::QueryStatus::Ok;
          Steps += Out.Steps;
          if (Out.BudgetExceeded) {
            ++Budget;
            BudgetSteps += Out.Steps;
          }
          Warm.push_back(std::move(Out));
        }
      }
      R.ops(1, Failed ? 1 : 0);
      Disk = S.stats().Store;
    }
  }
  M.E2E["peak_rss_mb"] = peakRssMb();
  std::remove(Snapshot.c_str());

  {
    Span SC("bench.check");
    AnswerCheck Check("warm-restart/cold-service");
    for (size_t I = 0; I < Batch.size(); ++I)
      Check.compare(
          std::vector<uint32_t>(Warm[I].AllocSites.begin(),
                                Warm[I].AllocSites.end()),
          !Warm[I].BudgetExceeded,
          std::vector<uint32_t>(Cold[I].AllocSites.begin(),
                                Cold[I].AllocSites.end()),
          !Cold[I].BudgetExceeded);
    Check.report(R);
    std::fprintf(stderr,
                 "perfbench: check warm-restart/disk-tier        %llu of %llu "
                 "disk probes hit, %llu promoted\n",
                 (unsigned long long)Disk.DiskHits,
                 (unsigned long long)Disk.DiskProbes,
                 (unsigned long long)Disk.Promoted);
    if (Disk.DiskHits == 0)
      R.fail("warm-restart: the disk tier served no summary");
  }

  M.E2E["setup_s"] = setupSeconds(SetupS, kRestartsPerSample);
  Log.report(M);
  double PerRound = 1.0 / double(Log.rounds());
  M.Layer["ir.parse_s"] = median(ParseS);
  M.Layer["pag.build_s"] = median(ConstructS);
  M.Layer["analysis.summaryio_save_s"] = SaveSeconds;
  M.Layer["service.query_ms"] = median(QueryMs);
  M.Layer["analysis.ppta_steps"] = Steps * PerRound;
  M.Layer["analysis.summaries_computed"] = Computed * PerRound;
  M.Layer["analysis.budget_exceeded"] = Budget * PerRound;
  M.Layer["analysis.budget_steps_share"] =
      Steps ? double(BudgetSteps) / double(Steps) : 0.0;
  M.Layer["engine.threads_used"] = SO.Engine.NumThreads;
  M.Layer["engine.store_fetches"] = double(Disk.Fetches);
  M.Layer["engine.store_hit_rate"] =
      Disk.Fetches ? double(Disk.Hits) / double(Disk.Fetches) : 0.0;
  M.Layer["engine.store_publishes"] = double(Disk.Publishes);
  M.Layer["engine.disk_probes"] = double(Disk.DiskProbes);
  M.Layer["engine.disk_hit_rate"] =
      Disk.DiskProbes ? double(Disk.DiskHits) / double(Disk.DiskProbes) : 0.0;
  M.Layer["engine.disk_promoted"] = double(Disk.Promoted);
  M.Layer["engine.disk_corrupt"] = double(Disk.DiskCorrupt);
  std::fprintf(stderr,
               "perfbench: warm-restart: batch %zu in %zu sub-batches, "
               "%llu restarts\n",
               Batch.size(), kSubBatches, (unsigned long long)Log.rounds());
}

} // namespace perfbench
