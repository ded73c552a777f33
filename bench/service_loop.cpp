//===----------------------------------------------------------------------===//
///
/// \file
/// The edit-while-querying service loop: the IDE/JIT serving scenario
/// the AnalysisService exists for.
///
/// Part 1 replays an identical deterministic edit/re-query script under
/// three configurations and compares *warm re-query throughput* (query
/// time only; commit cost reported separately):
///
///   from-scratch                  new PAG + cold engine per cycle
///   per-method+shared-store       AnalysisService, per-method store
///                                 invalidation + parallel batches
///   per-method+shared (1 thread)  the same service on one engine
///                                 thread (the single-threaded editor)
///
/// Part 2 runs the real concurrent loop — reader threads stream query
/// batches while the editor thread commits — and reports sustained
/// throughput and how many batches drained against a superseded
/// generation.
///
/// Part 3 measures commit latency itself: p50/p95 of delta commits
/// (single-method edits, per-method re-lower over the cloned previous
/// generation) against from-scratch commits (forced full re-lower) at
/// 1k/10k/100k-method generated programs.  `--commit-max-methods=N`
/// skips the sizes above N (the CI smoke gate runs up to 10k).  The
/// `BENCH_pr4.json` keys commit.<size>.* feed the CI assertion that the
/// 10k delta p50 beats the from-scratch row.
///
/// Part 4 measures the PARALLEL commit pipeline: the same delta
/// commits at 1/2/8 commit threads on the 10k and 100k programs
/// (copy-on-write snapshot, shape sweep, staged lowering, partitioned repack,
/// boundary diff), plus the async path — how long a background submitCommit holds
/// the calling thread versus a blocking commit.  The pcommit.* keys in
/// `BENCH_pr5.json` feed the CI gate that 8-thread delta commits beat
/// single-thread on the 10k program.
///
/// Part 6 measures graceful overload degradation: an open-loop arrival
/// process offers batches ABOVE the measured service capacity (arrivals
/// do not wait for completions, so nothing brakes the queue except
/// admission control) and reports the shed rate plus the latency of the
/// batches that were served — the overload.* keys in `BENCH_pr7.json`.
/// The point is that under sustained overload the service sheds
/// explicitly (Status == Overloaded) while SERVED batches keep a
/// bounded p95, instead of every batch degrading together.
///
/// Part 9 drives the multi-tenant socket server end to end: an
/// in-process AnalysisServer hosting 4 tenants takes a closed-loop
/// 4-clients-per-tenant mix of query batches, buffered edits and async
/// commits over real loopback connections, and the per-request wall
/// times become the server.* latency percentiles in `BENCH_pr10.json`
/// (plus shed counts: overloaded queries and capped connections are
/// explicit replies, so the bench can count them instead of guessing).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "server/CommandInterpreter.h"
#include "server/Serverd.h"
#include "service/AnalysisService.h"
#include "support/CommandLine.h"
#include "support/OStream.h"
#include "support/PrettyTable.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace dynsum;
using namespace dynsum::analysis;
using namespace dynsum::bench;
using namespace dynsum::engine;
using namespace dynsum::incremental;
using namespace dynsum::service;

namespace {

constexpr unsigned kCycles = 10;

/// The edit script and probe picker are shared with the service tests
/// (workload::applyScriptEdit / workload::probeVariables) so
/// tests/service_test.cpp pins exactly the scenario measured here.
using workload::probeVariables;

std::vector<ir::MethodId> applyEdit(ir::Program &P, unsigned I) {
  return workload::applyScriptEdit(P, I);
}

std::unique_ptr<ir::Program> makeProgram(const HarnessOptions &Opts) {
  workload::GenOptions Gen;
  Gen.Scale = Opts.Scale;
  Gen.Seed = Opts.Seed;
  return workload::generateProgram(workload::specByName("soot-c"), Gen);
}

/// Nearest-rank percentile over a sample copy (shared by the commit
/// latency sections).
double percentile(std::vector<double> Samples, double P) {
  std::sort(Samples.begin(), Samples.end());
  size_t I = size_t(P * double(Samples.size() - 1) + 0.5);
  return Samples[I];
}

/// Builds the protocol query spec ("Class.method.var" / "method.var")
/// for a local variable, i.e. the inverse of server::resolveVarSpec.
std::string querySpecOf(const ir::Program &P, ir::VarId V) {
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

/// A minimal blocking client for the serverd line protocol: one
/// request line out, one "."-terminated reply block back.
class BenchClient {
public:
  explicit BenchClient(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Port);
    Connected = Fd >= 0 && ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                                     sizeof(Addr)) == 0;
  }
  ~BenchClient() {
    if (Fd >= 0)
      ::close(Fd);
  }
  bool connected() const { return Connected; }

  std::string request(const std::string &Line) {
    std::string Wire = Line + "\n";
    size_t Off = 0;
    while (Off < Wire.size()) {
      ssize_t W = ::send(Fd, Wire.data() + Off, Wire.size() - Off,
                         MSG_NOSIGNAL);
      if (W < 0)
        return {};
      Off += size_t(W);
    }
    return readBlock();
  }

  std::string readBlock() {
    std::string Block;
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string L = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        if (L == ".")
          return Block;
        Block += L;
        Block += '\n';
        continue;
      }
      char Chunk[4096];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return Block; // hangup
      Buf.append(Chunk, size_t(N));
    }
  }

private:
  int Fd = -1;
  bool Connected = false;
  std::string Buf;
};

/// Accumulated results of one configuration's script replay.
struct LoopResult {
  double QuerySeconds = 0.0; ///< warm re-query time only
  double CommitSeconds = 0.0;
  uint64_t Steps = 0;
  uint64_t Computed = 0; ///< PPTA computations during re-queries
  uint64_t Dropped = 0;

  double qps(size_t QueriesPerCycle) const {
    return QuerySeconds > 0.0 ? double(kCycles) * double(QueriesPerCycle) /
                                    QuerySeconds
                              : 0.0;
  }
};

} // namespace

int main(int argc, char **argv) {
  HarnessOptions Opts = HarnessOptions::parse(argc, argv);
  BenchJson Json;
  outs() << "=== Service loop: edit-while-querying (soot-c; " << kCycles
         << " edit/re-query cycles; scale=" << Opts.Scale
         << ", threads=" << Opts.Threads << ") ===\n\n";

  size_t NumProbe = 0;

  PrettyTable T;
  T.row()
      .cell("configuration")
      .cell("warm qps")
      .cell("steps/cycle")
      .cell("computed/cycle")
      .cell("dropped/commit")
      .cell("sec/commit");

  auto AddRow = [&](const char *Name, const LoopResult &R) {
    T.row()
        .cell(Name)
        .cell(R.qps(NumProbe), 0)
        .cell(R.Steps / kCycles)
        .cell(R.Computed / kCycles)
        .cell(R.Dropped / kCycles)
        .cell(R.CommitSeconds / kCycles, 4);
  };

  // --- from-scratch: rebuild everything every cycle --------------------
  LoopResult FromScratch;
  {
    auto P = makeProgram(Opts);
    std::vector<ir::VarId> Probe = probeVariables(*P, 61);
    NumProbe = Probe.size();
    for (unsigned I = 0; I < kCycles; ++I) {
      Timer Commit;
      applyEdit(*P, I);
      pag::BuiltPAG Built = pag::buildPAG(*P);
      FromScratch.CommitSeconds += Commit.seconds();

      QueryScheduler Fresh(*Built.Graph, Opts.engineOptions(Opts.Threads));
      QueryBatch B;
      for (ir::VarId V : Probe)
        B.add(Built.Graph->nodeOfVar(V));
      Timer Q;
      BatchResult R = Fresh.run(B);
      FromScratch.QuerySeconds += Q.seconds();
      FromScratch.Steps += R.Stats.TotalSteps;
      FromScratch.Computed += R.Stats.SummariesComputed;
    }
    AddRow("from-scratch", FromScratch);
  }

  // --- the service: per-method store invalidation ----------------------
  // Replays the script through an AnalysisService whose batches run on
  // \p Threads engine threads; returns the store's counters.
  auto RunService = [&](unsigned Threads, LoopResult &R) {
    ServiceOptions SO;
    SO.Engine = Opts.engineOptions(Threads);
    AnalysisService S(makeProgram(Opts), SO);
    std::vector<ir::VarId> Probe = probeVariables(S.program(), 61);
    (void)S.queryVars(Probe); // warm start
    for (unsigned I = 0; I < kCycles; ++I) {
      Timer Commit;
      S.editProgram([I](ir::Program &P) { return applyEdit(P, I); });
      CommitStats CS = S.submitCommit().wait();
      R.CommitSeconds += Commit.seconds();
      R.Dropped += CS.SummariesDropped;

      Timer Q;
      ServiceBatchResult BR = S.queryVars(Probe);
      R.QuerySeconds += Q.seconds();
      R.Steps += BR.Stats.TotalSteps;
      R.Computed += BR.Stats.SummariesComputed;
    }
    return S.stats();
  };

  LoopResult SharedR;
  ServiceStats SharedStats = RunService(Opts.Threads, SharedR);
  AddRow("per-method+shared-store", SharedR);

  // The same replay with no intra-batch parallelism: on a 1-core box the
  // multi-threaded row above mostly measures oversubscription, so this
  // row is the one that tracks the serving-path cost per query there.
  LoopResult SingleR;
  RunService(1, SingleR);
  AddRow("per-method+shared (1 thread)", SingleR);

  T.print(outs());
  outs() << "\nper-method+shared-store re-queries reuse every surviving\n"
            "store entry across worker threads; from-scratch recomputes\n"
            "the world each cycle and pays the PAG rebuild into cold\n"
            "caches.\n";

  //===--------------------------------------------------------------------===//
  // Part 2: genuinely concurrent — readers stream batches over commits.
  //===--------------------------------------------------------------------===//

  outs() << "\n=== Concurrent serving (2 readers x batches vs "
         << kCycles << " commits) ===\n";
  uint64_t Drained = 0, Batches = 0;
  double Seconds = 0.0;
  {
    ServiceOptions SO;
    SO.Engine = Opts.engineOptions(Opts.Threads);
    AnalysisService S(makeProgram(Opts), SO);
    std::vector<ir::VarId> Probe = probeVariables(S.program(), 61);
    (void)S.queryVars(Probe);

    std::atomic<bool> Done{false};
    std::atomic<uint64_t> BatchCount{0}, StaleCount{0};
    Timer Clock;
    std::vector<std::thread> Readers;
    for (int W = 0; W < 2; ++W)
      Readers.emplace_back([&] {
        do {
          ServiceBatchResult R = S.queryVars(Probe);
          BatchCount.fetch_add(1, std::memory_order_relaxed);
          if (R.Generation != S.generation())
            StaleCount.fetch_add(1, std::memory_order_relaxed);
        } while (!Done.load(std::memory_order_relaxed));
      });
    for (unsigned I = 0; I < kCycles; ++I) {
      S.editProgram([I](ir::Program &P) { return applyEdit(P, I); });
      S.submitCommit().wait();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    Done.store(true, std::memory_order_relaxed);
    for (std::thread &W : Readers)
      W.join();
    Seconds = Clock.seconds();
    Batches = BatchCount.load();
    Drained = StaleCount.load();

    outs() << "batches " << Batches << " (" << Drained
           << " drained against a superseded generation), commits "
           << uint64_t(kCycles) << ", sustained ";
    outs().writeFixed(Seconds > 0 ? double(Batches) * double(Probe.size()) /
                                        Seconds
                                  : 0.0,
                      0);
    outs() << " queries/sec, final generation "
           << S.generation() << ", store " << uint64_t(S.stats().StoreSize)
           << " summaries\n";
  }

  //===--------------------------------------------------------------------===//
  // Part 3: commit latency — delta vs from-scratch at 1k/10k/100k
  // methods (soot-c is 3.4k methods at scale 1).
  //===--------------------------------------------------------------------===//

  outs() << "\n=== Commit latency: delta vs from-scratch (single-method "
            "edits) ===\n\n";
  {
    CommandLine CL(argc, argv);
    uint64_t MaxMethods =
        uint64_t(CL.getInt("commit-max-methods", 100000));

    struct SizeRow {
      const char *Label;
      size_t Methods;
      double Scale;
      unsigned DeltaSamples;
      unsigned ScratchSamples;
    };
    const SizeRow Rows[] = {
        {"1k", 1000, 1000.0 / 3400.0, 9, 5},
        {"10k", 10000, 10000.0 / 3400.0, 9, 3},
        {"100k", 100000, 100000.0 / 3400.0, 7, 3},
    };

    PrettyTable CT;
    CT.row()
        .cell("methods")
        .cell("delta p50 ms")
        .cell("delta p95 ms")
        .cell("scratch p50 ms")
        .cell("scratch p95 ms")
        .cell("speedup p50")
        .cell("relowered");

    for (const SizeRow &Row : Rows) {
      if (Row.Methods > MaxMethods)
        continue;
      workload::GenOptions Gen;
      Gen.Scale = Row.Scale;
      Gen.Seed = Opts.Seed;
      ServiceOptions SO;
      SO.Engine = Opts.engineOptions(Opts.Threads);
      AnalysisService S(
          workload::generateProgram(workload::specByName("soot-c"), Gen),
          SO);

      unsigned Step = 0;
      auto CommitOnce = [&](CommitMode Mode) {
        S.editProgram(
            [&](ir::Program &P) { return workload::applyScriptEdit(P, Step); });
        ++Step;
        return S.submitCommit({Mode, /*Background=*/false}).wait().Seconds * 1e3;
      };

      (void)CommitOnce(CommitMode::Delta); // warm-up: first-edit paths
      std::vector<double> DeltaMs, ScratchMs;
      uint64_t Relowered = 0;
      for (unsigned I = 0; I < Row.DeltaSamples; ++I) {
        DeltaMs.push_back(CommitOnce(CommitMode::Delta));
        Relowered += S.stats().LastCommitRelowered;
      }
      for (unsigned I = 0; I < Row.ScratchSamples; ++I)
        ScratchMs.push_back(CommitOnce(CommitMode::Scratch));

      double DP50 = percentile(DeltaMs, 0.5), DP95 = percentile(DeltaMs, 0.95);
      double SP50 = percentile(ScratchMs, 0.5),
             SP95 = percentile(ScratchMs, 0.95);
      CT.row()
          .cell(Row.Label)
          .cell(DP50, 2)
          .cell(DP95, 2)
          .cell(SP50, 2)
          .cell(SP95, 2)
          .cell(DP50 > 0.0 ? SP50 / DP50 : 0.0, 1)
          .cell(Relowered / Row.DeltaSamples);

      std::string Prefix = std::string("commit.") + Row.Label;
      Json.set(Prefix + ".methods", uint64_t(Row.Methods));
      Json.set(Prefix + ".delta_p50_ms", DP50);
      Json.set(Prefix + ".delta_p95_ms", DP95);
      Json.set(Prefix + ".scratch_p50_ms", SP50);
      Json.set(Prefix + ".scratch_p95_ms", SP95);
      Json.set(Prefix + ".speedup_p50", DP50 > 0.0 ? SP50 / DP50 : 0.0);
    }
    CT.print(outs());
    outs() << "\ndelta commits clone the previous generation's graph and\n"
              "re-lower only the edited method; from-scratch forces every\n"
              "method through lowering again (the pre-delta commit path).\n";
  }

  //===--------------------------------------------------------------------===//
  // Part 4: the parallel commit pipeline — delta commits at 1/2/8
  // commit threads, and the async enqueue cost.
  //===--------------------------------------------------------------------===//

  outs() << "\n=== Parallel commit pipeline: delta commits at 1/2/8 "
            "commit threads ===\n\n";
  {
    CommandLine CL(argc, argv);
    uint64_t MaxMethods = uint64_t(CL.getInt("commit-max-methods", 100000));

    struct PSizeRow {
      const char *Label;
      size_t Methods;
      double Scale;
      unsigned Samples;
    };
    const PSizeRow Rows[] = {
        {"10k", 10000, 10000.0 / 3400.0, 15},
        {"100k", 100000, 100000.0 / 3400.0, 5},
    };
    const unsigned ThreadCounts[] = {1, 2, 8};

    PrettyTable PT;
    PT.row()
        .cell("methods")
        .cell("threads")
        .cell("delta p50 ms")
        .cell("delta p95 ms")
        .cell("clone p50")
        .cell("shape p50")
        .cell("repack p50")
        .cell("speedup vs 1t");

    for (const PSizeRow &Row : Rows) {
      if (Row.Methods > MaxMethods)
        continue;
      double P50ByThreads[3] = {};
      for (unsigned TI = 0; TI < 3; ++TI) {
        unsigned CT = ThreadCounts[TI];
        workload::GenOptions Gen;
        Gen.Scale = Row.Scale;
        Gen.Seed = Opts.Seed;
        ServiceOptions SO;
        SO.Engine = Opts.engineOptions(Opts.Threads);
        SO.Commit = CT;
        AnalysisService S(
            workload::generateProgram(workload::specByName("soot-c"), Gen),
            SO);

        unsigned Step = 0;
        auto CommitOnce = [&] {
          S.editProgram([&](ir::Program &P) {
            return workload::applyScriptEdit(P, Step);
          });
          ++Step;
          return S.submitCommit().wait();
        };
        CommitOnce(); // warm-up: first-edit paths
        std::vector<double> Ms, CloneMs, ShapeMs, RepackMs;
        for (unsigned I = 0; I < Row.Samples; ++I) {
          CommitStats CS = CommitOnce();
          Ms.push_back(CS.Seconds * 1e3);
          CloneMs.push_back(CS.CloneSeconds * 1e3);
          ShapeMs.push_back(CS.ShapeSeconds * 1e3);
          RepackMs.push_back(CS.RepackSeconds * 1e3);
        }

        double P50 = percentile(Ms, 0.5), P95 = percentile(Ms, 0.95);
        double CloneP50 = percentile(CloneMs, 0.5);
        double ShapeP50 = percentile(ShapeMs, 0.5);
        double RepackP50 = percentile(RepackMs, 0.5);
        P50ByThreads[TI] = P50;
        PT.row()
            .cell(Row.Label)
            .cell(uint64_t(CT))
            .cell(P50, 2)
            .cell(P95, 2)
            .cell(CloneP50, 2)
            .cell(ShapeP50, 2)
            .cell(RepackP50, 2)
            .cell(P50 > 0.0 ? P50ByThreads[0] / P50 : 0.0, 2);

        std::string Prefix = std::string("pcommit.") + Row.Label + ".t" +
                             std::to_string(CT);
        Json.set(Prefix + ".p50_ms", P50);
        Json.set(Prefix + ".p95_ms", P95);
        Json.set(Prefix + ".clone_p50_ms", CloneP50);
        Json.set(Prefix + ".shape_p50_ms", ShapeP50);
        Json.set(Prefix + ".repack_p50_ms", RepackP50);
      }
      Json.set(std::string("pcommit.") + Row.Label + ".methods",
               uint64_t(Row.Methods));
      Json.set(std::string("pcommit.") + Row.Label + ".speedup_8v1",
               P50ByThreads[2] > 0.0 ? P50ByThreads[0] / P50ByThreads[2]
                                     : 0.0);
    }
    PT.print(outs());

    // Async enqueue cost: how long the serving thread is held.  A
    // blocking commit pays the whole pipeline; a background submitCommit returns as
    // soon as the request is queued, and the committer publishes in the
    // background (waitForCommits fences each sample so commits never
    // pile up).
    if (10000 <= MaxMethods) {
      workload::GenOptions Gen;
      Gen.Scale = 10000.0 / 3400.0;
      Gen.Seed = Opts.Seed;
      ServiceOptions SO;
      SO.Engine = Opts.engineOptions(Opts.Threads);
      SO.Commit = 8;
      AnalysisService S(
          workload::generateProgram(workload::specByName("soot-c"), Gen),
          SO);

      unsigned Step = 0;
      auto Edit = [&] {
        S.editProgram([&](ir::Program &P) {
          return workload::applyScriptEdit(P, Step);
        });
        ++Step;
      };
      Edit();
      S.submitCommit().wait(); // warm-up
      std::vector<double> EnqueueMs, BlockingMs;
      for (unsigned I = 0; I < 7; ++I) {
        Edit();
        Timer TA;
        S.submitCommit({service::CommitMode::Delta, /*Background=*/true});
        EnqueueMs.push_back(TA.seconds() * 1e3);
        S.waitForCommits();
        Edit();
        Timer TB;
        S.submitCommit().wait();
        BlockingMs.push_back(TB.seconds() * 1e3);
      }
      double EnqueueP50 = percentile(EnqueueMs, 0.5);
      double BlockingP50 = percentile(BlockingMs, 0.5);
      outs() << "\nasync commit enqueue p50 ";
      outs().writeFixed(EnqueueP50, 4);
      outs() << " ms vs blocking commit p50 ";
      outs().writeFixed(BlockingP50, 2);
      outs() << " ms (10k methods, 8 commit threads): the serving "
                "thread no longer pays the pipeline\n";
      Json.set("pcommit.async.enqueue_p50_ms", EnqueueP50);
      Json.set("pcommit.async.blocking_p50_ms", BlockingP50);
    }
  }

  //===--------------------------------------------------------------------===//
  // Part 5: generation retention — the copy-on-write snapshot replaced
  // the commit-time deep clone, so a commit's snapshot step is a chunk-
  // table copy and a retained generation holds only the chunks later
  // deltas split away from it.  gen.<size>.* records the snapshot cost
  // and the retained fraction; the CI gate pins both so the clone
  // cannot creep back in.
  //===--------------------------------------------------------------------===//

  outs() << "\n=== Generation retention: CoW snapshot cost and retained "
            "bytes ===\n\n";
  {
    CommandLine CL(argc, argv);
    uint64_t MaxMethods = uint64_t(CL.getInt("commit-max-methods", 100000));

    struct GSizeRow {
      const char *Label;
      size_t Methods;
      double Scale;
      unsigned Samples;
    };
    const GSizeRow Rows[] = {
        {"10k", 10000, 10000.0 / 3400.0, 9},
        {"100k", 100000, 100000.0 / 3400.0, 5},
    };

    PrettyTable GT;
    GT.row()
        .cell("methods")
        .cell("commit p50 ms")
        .cell("snapshot p50 ms")
        .cell("retained KB")
        .cell("graph KB")
        .cell("retained frac");

    for (const GSizeRow &Row : Rows) {
      if (Row.Methods > MaxMethods)
        continue;
      workload::GenOptions Gen;
      Gen.Scale = Row.Scale;
      Gen.Seed = Opts.Seed;
      ServiceOptions SO;
      SO.Engine = Opts.engineOptions(Opts.Threads);
      SO.Commit = 1; // retention is about sharing, not sharding
      SO.KeepGenerations = 4;
      AnalysisService S(
          workload::generateProgram(workload::specByName("soot-c"), Gen),
          SO);

      unsigned Step = 0;
      auto CommitOnce = [&] {
        S.editProgram([&](ir::Program &P) {
          return workload::applyScriptEdit(P, Step);
        });
        ++Step;
        return S.submitCommit().wait();
      };
      CommitOnce(); // warm-up: first-edit paths
      std::vector<double> Ms, SnapMs;
      for (unsigned I = 0; I < Row.Samples; ++I) {
        CommitStats CS = CommitOnce();
        Ms.push_back(CS.Seconds * 1e3);
        SnapMs.push_back(CS.CloneSeconds * 1e3);
      }

      // The youngest retained generation sits one single-method delta
      // behind the head: its exclusive bytes are the cost of keeping
      // it, and must stay a sliver of the full graph footprint.
      std::vector<GenerationInfo> Gens = S.generations();
      const GenerationInfo &Retained = Gens[Gens.size() - 2];
      double Frac = Retained.TotalBytes > 0
                        ? double(Retained.RetainedBytes) /
                              double(Retained.TotalBytes)
                        : 0.0;

      double P50 = percentile(Ms, 0.5);
      double SnapP50 = percentile(SnapMs, 0.5);
      GT.row()
          .cell(Row.Label)
          .cell(P50, 2)
          .cell(SnapP50, 3)
          .cell(double(Retained.RetainedBytes) / 1024.0, 1)
          .cell(double(Retained.TotalBytes) / 1024.0, 1)
          .cell(Frac, 4);

      std::string Prefix = std::string("gen.") + Row.Label;
      Json.set(Prefix + ".methods", uint64_t(Row.Methods));
      Json.set(Prefix + ".commit_p50_ms", P50);
      Json.set(Prefix + ".snapshot_p50_ms", SnapP50);
      Json.set(Prefix + ".retained_bytes", uint64_t(Retained.RetainedBytes));
      Json.set(Prefix + ".total_bytes", uint64_t(Retained.TotalBytes));
      Json.set(Prefix + ".retained_fraction", Frac);
    }
    GT.print(outs());
  }

  //===--------------------------------------------------------------------===//
  // Part 6: overload — open-loop arrivals above capacity.  Batches are
  // offered on a fixed clock regardless of completions; the admission
  // watermark sheds the excess (explicit Overloaded outcomes) so the
  // batches that ARE served keep a bounded latency.
  //===--------------------------------------------------------------------===//

  outs() << "\n=== Overload: open-loop arrivals above capacity ===\n\n";
  {
    ServiceOptions SO;
    SO.Engine = Opts.engineOptions(Opts.Threads);
    SO.Overload.MaxActiveBatches = 4;
    AnalysisService S(makeProgram(Opts), SO);
    std::vector<ir::VarId> Probe = probeVariables(S.program(), 61);
    (void)S.queryVars(Probe); // warm start

    // Capacity probe: warm per-batch service time with no contention.
    std::vector<double> WarmMs;
    for (unsigned I = 0; I < 5; ++I) {
      Timer TW;
      (void)S.queryVars(Probe);
      WarmMs.push_back(TW.seconds() * 1e3);
    }
    double BatchMs = percentile(WarmMs, 0.5);

    // Offer at ~3x the sequential service rate.  Each arrival gets its
    // own thread (open loop: the arrival clock never waits); shed
    // arrivals return immediately, so threads pile up only as far as
    // the watermark lets them.
    constexpr unsigned kArrivals = 120;
    double IntervalMs = std::max(BatchMs / 3.0, 0.05);
    std::mutex SampleMutex;
    std::vector<double> ServedMs;
    uint64_t ShedBatchCount = 0;
    std::vector<std::thread> InFlight;
    InFlight.reserve(kArrivals);
    for (unsigned I = 0; I < kArrivals; ++I) {
      InFlight.emplace_back([&] {
        Timer TB;
        ServiceBatchResult R = S.queryVars(Probe);
        double Ms = TB.seconds() * 1e3;
        bool WasShed = !R.Outcomes.empty() &&
                       R.Outcomes.front().Status == QueryStatus::Overloaded;
        std::lock_guard<std::mutex> L(SampleMutex);
        if (WasShed)
          ++ShedBatchCount;
        else
          ServedMs.push_back(Ms);
      });
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(IntervalMs));
    }
    for (std::thread &W : InFlight)
      W.join();

    double ShedRate = double(ShedBatchCount) / double(kArrivals);
    double ServedP50 = ServedMs.empty() ? 0.0 : percentile(ServedMs, 0.5);
    double ServedP95 = ServedMs.empty() ? 0.0 : percentile(ServedMs, 0.95);
    double OfferedPerSec = 1e3 / IntervalMs;
    double CapacityPerSec = BatchMs > 0.0 ? 1e3 / BatchMs : 0.0;

    outs() << "offered ";
    outs().writeFixed(OfferedPerSec, 0);
    outs() << " batches/s against ~";
    outs().writeFixed(CapacityPerSec, 0);
    outs() << " batches/s capacity: served "
           << uint64_t(ServedMs.size()) << ", shed "
           << ShedBatchCount << " (";
    outs().writeFixed(100.0 * ShedRate, 1);
    outs() << "%), served p50 ";
    outs().writeFixed(ServedP50, 2);
    outs() << " ms / p95 ";
    outs().writeFixed(ServedP95, 2);
    outs() << " ms\nshed batches answer instantly with Status=Overloaded; "
              "serving capacity goes to the admitted ones\n";

    Json.set("overload.offered_batches_per_s", OfferedPerSec);
    Json.set("overload.capacity_batches_per_s", CapacityPerSec);
    Json.set("overload.arrivals", uint64_t(kArrivals));
    Json.set("overload.served_batches", uint64_t(ServedMs.size()));
    Json.set("overload.shed_batches", ShedBatchCount);
    Json.set("overload.shed_rate", ShedRate);
    Json.set("overload.served_p50_ms", ServedP50);
    Json.set("overload.served_p95_ms", ServedP95);
  }

  //===--------------------------------------------------------------------===//
  // Part 7: warm restart — the mmap'd disk tier vs recompute at 10k
  // methods.  A cold server computes a batch; a restarted server
  // pointed at the cold run's snapshot must answer the same batch from
  // disk-tier hits, recomputing nothing.  Both runs are
  // single-threaded, which doubles as the lock-contention regression:
  // with one engine thread the striped hot tier must report ZERO
  // contended lock acquisitions (service.store.lock_contended).
  //
  // The timed batch is the probe FILTERED to budget-complete queries.
  // A summary served from the store consumes no traversal budget, so a
  // budget-truncated query explores FURTHER on a warm server and
  // demands summaries no cold run ever published — it buys a more
  // precise answer, not the same answer cheaper, and "recomputing
  // nothing" is unsatisfiable for it by construction.  Only queries
  // that finish within budget have deterministic demand sets, making
  // cold-vs-warm an apples-to-apples timing; the truncated ones are
  // counted and reported separately.
  //===--------------------------------------------------------------------===//

  {
    CommandLine CL(argc, argv);
    uint64_t MaxMethods = uint64_t(CL.getInt("commit-max-methods", 100000));
    if (10000 <= MaxMethods) {
      outs() << "\n=== Warm restart: disk tier vs recompute (10k methods, "
                "1 engine thread) ===\n\n";
      workload::GenOptions Gen;
      Gen.Scale = 10000.0 / 3400.0;
      Gen.Seed = Opts.Seed;
      const std::string SnapPath = "/tmp/dynsum_bench_warm_restart.dsum";

      // Pass 1 (untimed): find the budget-bound probes.
      std::vector<ir::VarId> Probe;
      uint64_t BudgetBound = 0;
      size_t ProbeTotal = 0;
      {
        ServiceOptions SO;
        SO.Engine = Opts.engineOptions(1);
        AnalysisService S(
            workload::generateProgram(workload::specByName("soot-c"), Gen),
            SO);
        std::vector<ir::VarId> Full = probeVariables(S.program(), 61);
        ProbeTotal = Full.size();
        ServiceBatchResult R = S.queryVars(Full);
        for (size_t I = 0; I < Full.size(); ++I) {
          if (I < R.Outcomes.size() && R.Outcomes[I].BudgetExceeded)
            ++BudgetBound;
          else
            Probe.push_back(Full[I]);
        }
      }

      // Passes 2..7 (timed, interleaved min-of-3): alternate fresh
      // cold and fresh warm servers — C, W, C, W, C, W — and compare
      // the per-side MINIMA.  A one-shot cold-then-warm timing is at
      // the mercy of machine-wide drift on a shared host: whichever
      // side happens to run during a noisy window loses.  Interleaving
      // makes drift hit both sides alike, and min-of-N strips the
      // noise floor from each.  The first cold server's shutdown
      // snapshot seeds every restart.
      const int Reps = 3;
      double ColdMs = 0.0, WarmMs = 0.0;
      uint64_t ColdComputed = 0, WarmComputed = 0;
      bool Attached = false;
      engine::StoreCounters DiskC;
      std::vector<engine::StoreCounters> WarmStripes;
      for (int Rep = 0; Rep < Reps; ++Rep) {
        {
          ServiceOptions SO;
          SO.Engine = Opts.engineOptions(1);
          AnalysisService S(
              workload::generateProgram(workload::specByName("soot-c"), Gen),
              SO);
          Timer TC;
          ServiceBatchResult Cold = S.queryVars(Probe);
          double Ms = TC.seconds() * 1e3;
          if (Rep == 0 || Ms < ColdMs) {
            ColdMs = Ms;
            ColdComputed = Cold.Stats.SummariesComputed;
          }
          if (Rep == 0 && !S.saveSummaries(SnapPath))
            errs() << "warning: cannot write " << SnapPath << '\n';
        }
        {
          ServiceOptions SO;
          SO.Engine = Opts.engineOptions(1);
          SO.WarmFromDiskPath = SnapPath;
          AnalysisService S(
              workload::generateProgram(workload::specByName("soot-c"), Gen),
              SO);
          Timer TW;
          ServiceBatchResult Warm = S.queryVars(Probe);
          double Ms = TW.seconds() * 1e3;
          if (Rep == 0 || Ms < WarmMs) {
            WarmMs = Ms;
            WarmComputed = Warm.Stats.SummariesComputed;
            ServiceStats SS = S.stats();
            Attached = SS.DiskTierAttached;
            DiskC = SS.Store;
            WarmStripes = SS.StoreStripes;
          }
        }
      }
      std::remove(SnapPath.c_str());

      outs() << "probe: " << uint64_t(ProbeTotal) << " queries, "
             << BudgetBound
             << " budget-bound (excluded: served summaries consume no "
                "traversal budget, so a warm server answers those more "
                "precisely, not identically), "
             << uint64_t(Probe.size()) << " timed\n";
      outs() << "cold first batch (min of " << uint64_t(Reps) << ") ";
      outs().writeFixed(ColdMs, 2);
      outs() << " ms (" << ColdComputed << " summaries computed); "
             << "warm-from-disk first batch (min of " << uint64_t(Reps)
             << ") ";
      outs().writeFixed(WarmMs, 2);
      outs() << " ms (" << WarmComputed << " computed, "
             << DiskC.DiskHits << "/" << DiskC.DiskProbes
             << " disk probes hit, " << DiskC.Promoted << " promoted, "
             << DiskC.LockContended << " contended locks)\n";

      // Per-stripe contention columns for the single-threaded warm run.
      PrettyTable ST;
      ST.row()
          .cell("stripe")
          .cell("fetches")
          .cell("hits")
          .cell("disk hits")
          .cell("contended");
      for (size_t I = 0; I < WarmStripes.size(); ++I) {
        const engine::StoreCounters &C = WarmStripes[I];
        ST.row()
            .cell(uint64_t(I))
            .cell(C.Fetches)
            .cell(C.Hits)
            .cell(C.DiskHits)
            .cell(C.LockContended);
      }
      ST.print(outs());

      Json.set("service.warm_restart.methods", uint64_t(10000));
      Json.set("service.warm_restart.reps", uint64_t(Reps));
      Json.set("service.warm_restart.probe_total", uint64_t(ProbeTotal));
      Json.set("service.warm_restart.probe_budget_bound", BudgetBound);
      Json.set("service.warm_restart.probe_timed", uint64_t(Probe.size()));
      Json.set("service.warm_restart.attached", uint64_t(Attached ? 1 : 0));
      Json.set("service.warm_restart.cold_first_batch_ms", ColdMs);
      Json.set("service.warm_restart.warm_first_batch_ms", WarmMs);
      Json.set("service.warm_restart.speedup",
               WarmMs > 0.0 ? ColdMs / WarmMs : 0.0);
      Json.set("service.warm_restart.cold_computed", ColdComputed);
      Json.set("service.warm_restart.warm_computed", WarmComputed);
      Json.set("service.store.disk_probes", DiskC.DiskProbes);
      Json.set("service.store.disk_hits", DiskC.DiskHits);
      Json.set("service.store.disk_stale", DiskC.DiskStale);
      Json.set("service.store.disk_corrupt", DiskC.DiskCorrupt);
      Json.set("service.store.promoted", DiskC.Promoted);
      Json.set("service.store.disk_hit_rate",
               DiskC.DiskProbes > 0
                   ? double(DiskC.DiskHits) / double(DiskC.DiskProbes)
                   : 0.0);
      Json.set("service.store.lock_contended", DiskC.LockContended);
      Json.set("service.store.stripes", uint64_t(WarmStripes.size()));
      for (size_t I = 0; I < WarmStripes.size(); ++I) {
        std::string Prefix =
            std::string("service.store.stripe.") + std::to_string(I);
        Json.set(Prefix + ".fetches", WarmStripes[I].Fetches);
        Json.set(Prefix + ".hits", WarmStripes[I].Hits);
        Json.set(Prefix + ".disk_hits", WarmStripes[I].DiskHits);
        Json.set(Prefix + ".lock_contended", WarmStripes[I].LockContended);
      }
    }
  }

  // The shared store's operation counters from the Part 1 shared-store
  // run: the hit/invalidation mix behind service.shared_store_qps.
  // That run serves batches on Opts.Threads engine threads, so its
  // contended-acquisition count is reported under a _mt key (the == 0
  // regression key comes from the single-threaded Part 7 run above).
  {
    const engine::StoreCounters &C = SharedStats.Store;
    Json.set("service.store.fetches", C.Fetches);
    Json.set("service.store.hits", C.Hits);
    Json.set("service.store.stale_fetches", C.StaleFetches);
    Json.set("service.store.publishes", C.Publishes);
    Json.set("service.store.stale_publishes", C.StalePublishes);
    Json.set("service.store.invalidated", C.Invalidated);
    Json.set("service.store.lock_contended_mt", C.LockContended);
    Json.set("service.store.hit_rate",
             C.Fetches > 0 ? double(C.Hits) / double(C.Fetches) : 0.0);
    for (size_t I = 0; I < SharedStats.StoreStripes.size(); ++I)
      Json.set(std::string("service.store.stripe.") + std::to_string(I) +
                   ".lock_contended_mt",
               SharedStats.StoreStripes[I].LockContended);
  }

  Json.set("service.num_probe_queries", uint64_t(NumProbe));
  Json.set("service.cycles", uint64_t(kCycles));
  Json.set("service.from_scratch_qps", FromScratch.qps(NumProbe));
  Json.set("service.shared_store_qps", SharedR.qps(NumProbe));
  Json.set("service.st.per_method_qps", SingleR.qps(NumProbe));
  Json.set("service.st.computed_per_cycle", SingleR.Computed / kCycles);
  Json.set("service.st.sec_per_commit", SingleR.CommitSeconds / kCycles);
  Json.set("service.concurrent_batches", Batches);
  Json.set("service.concurrent_stale_batches", Drained);
  Json.set("service.concurrent_qps",
           Seconds > 0.0 ? double(Batches) * double(NumProbe) / Seconds : 0.0);
  // --- Part 9: the multi-tenant socket server, closed loop -------------
  {
    constexpr unsigned kTenants = 4;
    constexpr unsigned kClientsPerTenant = 4;
    constexpr unsigned kRequestsPerClient = 36;
    outs() << "\n=== Part 9: dynsum_serverd closed loop (" << kTenants
           << " tenants x " << kClientsPerTenant
           << " clients, mixed edit/query) ===\n\n";

    server::ServerOptions SrvO;
    SrvO.QueryThreads = 1; // per tenant; tenants already run concurrently
    SrvO.CommitThreads = 2;
    SrvO.MaxConnections = kTenants * kClientsPerTenant + 4;
    SrvO.Overload.MaxActiveBatches = 8; // per-tenant watermark
    SrvO.Analysis = Opts.analysisOptions();
    server::AnalysisServer Server(SrvO);
    for (unsigned T = 0; T < kTenants; ++T)
      Server.addTenant("t" + std::to_string(T), makeProgram(Opts));

    // The tenants share one generated program (same spec, same seed),
    // so specs built from a local twin resolve inside every tenant.
    auto Twin = makeProgram(Opts);
    std::vector<std::string> Specs;
    std::string EditMethod;
    for (ir::VarId V : probeVariables(*Twin, 61)) {
      std::string Spec = querySpecOf(*Twin, V);
      if (server::resolveVarSpec(*Twin, Spec) != V)
        continue; // shadowed name; the protocol could reach a twin
      if (EditMethod.empty())
        EditMethod = Spec.substr(0, Spec.rfind('.'));
      Specs.push_back(Spec);
    }
    // Any real class works as the alloc target type.
    std::string EditClass =
        Twin->classes().empty()
            ? std::string()
            : std::string(Twin->names().text(Twin->classes().front().Name));

    std::string StartError;
    if (Specs.size() < 8 || EditClass.empty() ||
        !Server.start(StartError)) {
      errs() << "warning: part 9 skipped ("
             << (StartError.empty() ? "too few resolvable specs"
                                    : StartError)
             << ")\n";
    } else {
      std::mutex SampleM;
      std::vector<double> QueryMs, EditMs, CommitMs;
      std::atomic<uint64_t> Requests{0}, Errors{0}, ShedQueries{0};
      Timer Wall;
      std::vector<std::thread> Clients;
      for (unsigned T = 0; T < kTenants; ++T) {
        for (unsigned C = 0; C < kClientsPerTenant; ++C) {
          Clients.emplace_back([&, T, C] {
            BenchClient Client(Server.port());
            if (!Client.connected()) {
              ++Errors;
              return;
            }
            Client.readBlock(); // greeting
            if (Client.request("tenant t" + std::to_string(T))
                    .find("bound") == std::string::npos) {
              ++Errors;
              return;
            }
            std::vector<double> Q, E, K;
            uint64_t MyErrors = 0, MyShed = 0;
            for (unsigned I = 0; I < kRequestsPerClient; ++I) {
              unsigned Mix = (I + C) % 12;
              std::string Cmd;
              std::vector<double> *Bucket;
              if (Mix == 4 || Mix == 9) {
                Cmd = "alloc " + EditMethod + " bv" + std::to_string(T) +
                      "_" + std::to_string(C) + " " + EditClass;
                Bucket = &E;
              } else if (Mix == 11) {
                Cmd = "commit --async";
                Bucket = &K;
              } else {
                size_t Base = (size_t(I) * 7 + C) % Specs.size();
                Cmd = "query";
                for (size_t S = 0; S < 4; ++S) {
                  Cmd += ' ';
                  Cmd += Specs[(Base + S * 3) % Specs.size()];
                }
                Bucket = &Q;
              }
              Timer Rt;
              std::string Reply = Client.request(Cmd);
              double Ms = Rt.millis();
              ++Requests;
              if (Reply.find("(overloaded)") != std::string::npos)
                ++MyShed; // well-formed shed, not an error
              else if (Reply.empty() ||
                       Reply.find("error:") != std::string::npos)
                ++MyErrors;
              else
                Bucket->push_back(Ms);
            }
            Client.request("quit");
            std::lock_guard<std::mutex> L(SampleM);
            QueryMs.insert(QueryMs.end(), Q.begin(), Q.end());
            EditMs.insert(EditMs.end(), E.begin(), E.end());
            CommitMs.insert(CommitMs.end(), K.begin(), K.end());
            Errors += MyErrors;
            ShedQueries += MyShed;
          });
        }
      }
      for (std::thread &T : Clients)
        T.join();
      double WallS = Wall.seconds();
      Server.stop(); // drain; no snapshot dir, so teardown only

      PrettyTable ST;
      ST.row()
          .cell("requests")
          .cell("errors")
          .cell("shed")
          .cell("query p50 ms")
          .cell("query p95 ms")
          .cell("query p99 ms")
          .cell("rps");
      double QP50 = QueryMs.empty() ? 0.0 : percentile(QueryMs, 0.5);
      double QP95 = QueryMs.empty() ? 0.0 : percentile(QueryMs, 0.95);
      double QP99 = QueryMs.empty() ? 0.0 : percentile(QueryMs, 0.99);
      ST.row()
          .cell(Requests.load())
          .cell(Errors.load())
          .cell(ShedQueries.load())
          .cell(QP50, 3)
          .cell(QP95, 3)
          .cell(QP99, 3)
          .cell(WallS > 0.0 ? double(Requests.load()) / WallS : 0.0, 0);
      ST.print(outs());

      Json.set("server.tenants", uint64_t(kTenants));
      Json.set("server.clients", uint64_t(kTenants * kClientsPerTenant));
      Json.set("server.requests", Requests.load());
      Json.set("server.errors", Errors.load());
      Json.set("server.shed_queries", ShedQueries.load());
      Json.set("server.shed_connections", Server.shedConnections());
      Json.set("server.accepted_connections", Server.acceptedConnections());
      Json.set("server.query_p50_ms", QP50);
      Json.set("server.query_p95_ms", QP95);
      Json.set("server.query_p99_ms", QP99);
      Json.set("server.edit_p50_ms",
               EditMs.empty() ? 0.0 : percentile(EditMs, 0.5));
      Json.set("server.commit_submit_p50_ms",
               CommitMs.empty() ? 0.0 : percentile(CommitMs, 0.5));
      Json.set("server.wall_s", WallS);
      Json.set("server.rps",
               WallS > 0.0 ? double(Requests.load()) / WallS : 0.0);
    }
  }

  if (!Opts.JsonPath.empty() && !Json.writeFile(Opts.JsonPath))
    errs() << "warning: cannot write " << Opts.JsonPath << '\n';
  return 0;
}
