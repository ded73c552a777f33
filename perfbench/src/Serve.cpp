//===----------------------------------------------------------------------===//
///
/// \file
/// Workload "serve": the multi-tenant socket server under closed-loop
/// load.
///
/// An in-process server::AnalysisServer hosts two tenants, each a
/// different Table 3 program.  Two loopback connections (one per
/// tenant) each replay a fixed request list, in a seeded order, per
/// round and send every request only after the previous reply (closed
/// loop).  Most requests are "query" lines over up to sixteen
/// locals of one method, the method drawn Zipf-skewed so demand
/// repeats; a small share are writes, an "alloc" line followed by a
/// "commit".  Rounds are separated by a barrier, so request I of a
/// connection is the same request in every round.  One operation is
/// one request: line out, reply block back.
///
/// The workload exercises server framing and name resolution, the
/// per-tenant program lock and epoch pinning, hot-tier hits, commits
/// that invalidate them, and the budget-bound queries that are
/// recomputed on every repeat.
///
/// Checks: every reply of the last round parses and names only sites of
/// its tenant; after the timed phase a seeded sample of query lines is
/// answered again and compared with a fresh DynSumAnalysis over a copy
/// of the tenant's program with the same writes applied.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/DynSum.h"
#include "pag/PAGBuilder.h"
#include "server/CommandInterpreter.h"
#include "server/Serverd.h"
#include "support/OStream.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_set>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace dynsum;

namespace perfbench {

namespace {

struct TenantChoice {
  const char *Name;
  const char *Spec;
  double Scale;
};
const TenantChoice kTenants[] = {
    {"luindex", "luindex", 1.0 / 8},
    {"avrora", "avrora", 1.0 / 8},
};
/// Connection C serves tenant kConnTenant[C].  One connection per
/// tenant: each tenant then sees the same request sequence, its own
/// writes included, in every round.
const unsigned kConnTenant[] = {0, 1};
constexpr unsigned kConnections = 2;
constexpr unsigned kRequestsPerRound = 75;
/// Share of requests that are writes (alloc + commit).
constexpr double kWriteShare = 0.03;
constexpr double kZipfExponent = 1.0;
constexpr unsigned kVarsPerQuery = 16;
/// Back-to-back set-ups of a server and its two tenants (about 35 ms
/// apiece) at the start of every round: one setup_s sample.
constexpr unsigned kSetupsPerRound = 5;
constexpr unsigned kCheckSample = 20;

/// A blocking client of the server's line protocol: one request line
/// out, one "."-terminated reply block back.
class LineClient {
public:
  explicit LineClient(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Port);
    Ok = Fd >= 0 &&
         ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0;
  }
  ~LineClient() {
    if (Fd >= 0)
      ::close(Fd);
  }
  LineClient(const LineClient &) = delete;
  LineClient &operator=(const LineClient &) = delete;

  bool ok() const { return Ok; }

  /// Reads one reply block (without its "." line); false on hangup.
  bool readBlock(std::string &Block) {
    Block.clear();
    for (;;) {
      size_t Nl = Buf.find('\n', Pos);
      if (Nl == std::string::npos) {
        Buf.erase(0, Pos);
        Pos = 0;
        char Chunk[65536];
        ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
        if (N < 0 && errno == EINTR)
          continue;
        if (N <= 0)
          return Ok = false;
        Buf.append(Chunk, size_t(N));
        continue;
      }
      std::string_view Line(Buf.data() + Pos, Nl - Pos);
      Pos = Nl + 1;
      if (Line == ".")
        return true;
      Block.append(Line);
      Block += '\n';
    }
  }

  bool request(const std::string &Line, std::string &Reply) {
    std::string Wire = Line + "\n";
    size_t Off = 0;
    while (Off < Wire.size()) {
      ssize_t W = ::send(Fd, Wire.data() + Off, Wire.size() - Off,
                         MSG_NOSIGNAL);
      if (W < 0 && errno == EINTR)
        continue;
      if (W <= 0)
        return Ok = false;
      Off += size_t(W);
    }
    return readBlock(Reply);
  }

private:
  int Fd = -1;
  bool Ok = false;
  std::string Buf;
  size_t Pos = 0;
};

/// One tenant's inputs: its IR text, a mirror program for name
/// resolution and the check, and the query lines of its methods.
struct TenantInput {
  std::string Text;
  std::unique_ptr<ir::Program> Mirror;
  /// Query lines by method, in Zipf rank order.
  std::vector<std::string> Lines;
  std::vector<std::string> Methods;
  std::string AllocClass;
};

/// One request of a connection's per-round list.
struct Request {
  std::string Line;
  bool Query = false;
  unsigned Answers = 0;
};

/// Parses the "pts(spec) = {a, b}" lines of a query reply into
/// (spec, sites, complete) triples; false on a malformed reply.
struct ParsedAnswer {
  std::string Spec;
  std::vector<std::string> Sites;
  bool Complete = true;
};
bool parseQueryReply(const std::string &Reply,
                     std::vector<ParsedAnswer> &Out) {
  Out.clear();
  size_t Pos = 0;
  bool SawGeneration = false;
  while (Pos < Reply.size()) {
    size_t Nl = Reply.find('\n', Pos);
    std::string Line = Reply.substr(Pos, Nl - Pos);
    Pos = Nl == std::string::npos ? Reply.size() : Nl + 1;
    if (Line.rfind("[generation ", 0) == 0) {
      SawGeneration = true;
      continue;
    }
    if (Line.rfind("pts(", 0) != 0)
      return false;
    size_t Close = Line.find(") = {");
    size_t End = Line.find('}', Close);
    if (Close == std::string::npos || End == std::string::npos)
      return false;
    ParsedAnswer A;
    A.Spec = Line.substr(4, Close - 4);
    std::string Body = Line.substr(Close + 5, End - Close - 5);
    for (size_t B = 0; B < Body.size();) {
      size_t C = Body.find(", ", B);
      A.Sites.push_back(Body.substr(B, C - B));
      B = C == std::string::npos ? Body.size() : C + 2;
    }
    std::sort(A.Sites.begin(), A.Sites.end());
    A.Complete = Line.find(" (", End) == std::string::npos;
    Out.push_back(std::move(A));
  }
  return SawGeneration && !Out.empty();
}

TenantInput makeTenant(const RunOptions &O, const TenantChoice &T) {
  TenantInput In;
  In.Text = generateIr(O.WorkDir, T.Spec, T.Scale, 0);
  In.Mirror = parseIr(In.Text);
  const ir::Program &P = *In.Mirror;
  // Locals by owning method, keeping only specs that resolve back to
  // the same variable (a shadowed name would reach its twin).
  std::vector<std::vector<ir::VarId>> ByMethod(P.methods().size());
  for (const ir::Variable &V : P.variables())
    if (!V.IsGlobal && V.Owner != ir::kNone)
      ByMethod[V.Owner].push_back(V.Id);
  // Popularity is fixed (which methods are hot decides how many
  // budget-bound queries repeat), and so is the set of requests drawn
  // from it; the seed only orders them (see makeRequests).
  uint64_t Rng = 0x2545f491;
  std::vector<size_t> Order;
  for (size_t M = 0; M < ByMethod.size(); ++M)
    if (!ByMethod[M].empty())
      Order.push_back(M);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[mix(Rng) % I]);
  for (size_t M : Order) {
    std::vector<ir::VarId> &Vs = ByMethod[M];
    for (size_t I = Vs.size(); I > 1; --I)
      std::swap(Vs[I - 1], Vs[mix(Rng) % I]);
    std::string Line = "query";
    unsigned N = 0;
    for (ir::VarId V : Vs) {
      std::string Spec = varSpec(P, V);
      if (server::resolveVarSpec(P, Spec) != V)
        continue;
      Line += " " + Spec;
      if (++N == kVarsPerQuery)
        break;
    }
    if (N == 0)
      continue;
    In.Lines.push_back(Line);
    std::string Spec = varSpec(P, Vs.front());
    In.Methods.push_back(Spec.substr(0, Spec.rfind('.')));
  }
  In.AllocClass = std::string(P.names().text(P.classes().back().Name));
  return In;
}

/// Per-connection request list: Zipf over the tenant's methods, with
/// writes mixed in.  Write I of connection C in round R allocates into
/// a fresh local, so its label names one site only.  The requests are a
/// fixed draw; the seed orders them (each write stays a pair).  Which
/// requests are drawn decides how many budget-bound queries repeat, and
/// that alone moves every figure of the workload by up to 2x.
std::vector<Request> makeRequests(const TenantInput &T, unsigned Conn,
                                  uint64_t Seed) {
  std::vector<double> Cdf;
  double Sum = 0.0;
  for (size_t I = 0; I < T.Lines.size(); ++I) {
    Sum += 1.0 / std::pow(double(I + 1), kZipfExponent);
    Cdf.push_back(Sum);
  }
  uint64_t Rng = 0x9e3779b1 + Conn * 7919;
  std::vector<std::vector<Request>> Units;
  size_t Count = 0;
  while (Count < kRequestsPerRound) {
    double U = double(mix(Rng) >> 11) / double(1ULL << 53) * Sum;
    size_t I = size_t(std::lower_bound(Cdf.begin(), Cdf.end(), U) -
                      Cdf.begin());
    I = std::min(I, T.Lines.size() - 1);
    if (double(mix(Rng) >> 11) / double(1ULL << 53) < kWriteShare) {
      Request A;
      A.Line = "alloc " + T.Methods[I] + " w" + std::to_string(Conn) + "_" +
               std::to_string(Count) + "_r%R " + T.AllocClass;
      Request C;
      C.Line = "commit";
      Units.push_back({A, C});
      Count += 2;
      continue;
    }
    Request Q;
    Q.Line = T.Lines[I];
    Q.Query = true;
    Q.Answers = unsigned(std::count(Q.Line.begin(), Q.Line.end(), ' '));
    Units.push_back({Q});
    ++Count;
  }
  uint64_t Order = Seed * 0x9e3779b1 + Conn * 7919 + 1;
  for (size_t I = Units.size(); I > 1; --I)
    std::swap(Units[I - 1], Units[mix(Order) % I]);
  std::vector<Request> Out;
  for (const std::vector<Request> &U : Units)
    Out.insert(Out.end(), U.begin(), U.end());
  return Out;
}

/// The request line of round \p Round (fresh local names per round).
std::string lineFor(const Request &Q, uint64_t Round) {
  size_t P = Q.Line.find("%R");
  if (P == std::string::npos)
    return Q.Line;
  return Q.Line.substr(0, P) + std::to_string(Round) + Q.Line.substr(P + 2);
}

/// Applies an "alloc <method> <var> <class>" line to \p P the way the
/// command interpreter does, for the mirror program the check reads.
void mirrorAlloc(ir::Program &P, const std::string &Line) {
  std::vector<std::string> W = server::splitWords(Line);
  ir::MethodId M = server::resolveMethodSpec(P, W[1]);
  ir::TypeId T = P.findClass(P.names().lookup(W[3]));
  ir::VarId Dst = server::resolveVarSpec(P, W[1] + "." + W[2]);
  if (Dst == ir::kNone)
    Dst = P.createLocal(P.name(W[2]), M, T);
  ir::Statement New;
  New.Kind = ir::StmtKind::Alloc;
  New.Dst = Dst;
  New.Type = T;
  New.Alloc = P.createAllocSite(T, M, P.name(W[2] + "@serve"));
  P.addStatement(M, std::move(New));
}

/// The store counters a tenant's "stats" reply carries.
struct TenantStats {
  double Entries = 0, Hits = 0, Fetches = 0, Publishes = 0, Invalidated = 0,
         Contended = 0;
};
TenantStats parseStats(const std::string &Reply) {
  TenantStats S;
  auto Num = [&](const char *Before, const char *After) {
    size_t A = Reply.find(Before);
    if (A == std::string::npos)
      return 0.0;
    A += std::strlen(Before);
    size_t B = Reply.find(After, A);
    return std::atof(Reply.substr(A, B - A).c_str());
  };
  S.Entries = Num(", store ", " summaries");
  S.Hits = Num("store: ", "/");
  S.Fetches = Num("/", " fetches hit");
  S.Publishes = Num("stale), ", " published");
  S.Invalidated = Num(" stale), ", " invalidated");
  S.Contended = Num(" invalidated, ", " contended");
  return S;
}

/// Sums the store counters over the tenants.
TenantStats tenantStats(std::vector<std::unique_ptr<LineClient>> &Conns) {
  TenantStats Sum;
  std::string Reply;
  for (unsigned C = 0; C < kConnections; ++C) {
    if (!Conns[C]->request("stats", Reply))
      continue;
    TenantStats S = parseStats(Reply);
    Sum.Entries += S.Entries;
    Sum.Hits += S.Hits;
    Sum.Fetches += S.Fetches;
    Sum.Publishes += S.Publishes;
    Sum.Invalidated += S.Invalidated;
    Sum.Contended += S.Contended;
  }
  return Sum;
}

} // namespace

void runServe(const RunOptions &O, Result &R, Measured &M) {
  std::vector<TenantInput> Tenants;
  for (const TenantChoice &T : kTenants)
    Tenants.push_back(makeTenant(O, T));

  server::ServerOptions SO;
  SO.MaxConnections = kConnections + 2;
  SO.QueryThreads = 1;
  SO.CommitThreads = 1;
  // IR text -> a started server with both tenants registered.  The
  // first set-up gives the server the rounds talk to; the timed phase
  // repeats it kSetupsPerRound times per round, so the setup_s samples
  // spread over the whole run like the requests' repetitions.
  std::vector<double> SetupS, ParseS, ConstructS;
  auto SetUp = [&] {
    Span SS("bench.setup");
    auto Srv = std::make_unique<server::AnalysisServer>(SO);
    double Parse = 0.0, Construct = 0.0;
    for (size_t I = 0; I < Tenants.size(); ++I) {
      double T0 = now();
      std::unique_ptr<ir::Program> P = parseIr(Tenants[I].Text);
      Parse += now() - T0;
      Span SA("server.add_tenant");
      if (!Srv->addTenant(kTenants[I].Name, std::move(P))) {
        std::fprintf(stderr, "perfbench: addTenant refused\n");
        std::exit(2);
      }
      Construct += SA.stop();
    }
    std::string Error;
    {
      Span SStart("server.start");
      if (!Srv->start(Error)) {
        std::fprintf(stderr, "perfbench: server start failed: %s\n",
                     Error.c_str());
        std::exit(2);
      }
    }
    SetupS.push_back(SS.stop());
    ParseS.push_back(Parse);
    ConstructS.push_back(Construct);
    return Srv;
  };
  std::unique_ptr<server::AnalysisServer> Server = SetUp();
  SetupS.clear();

  // Connect and bind.
  std::vector<std::unique_ptr<LineClient>> Conns;
  std::vector<std::vector<Request>> Lists;
  std::string Reply;
  for (unsigned C = 0; C < kConnections; ++C) {
    Conns.push_back(std::make_unique<LineClient>(Server->port()));
    unsigned T = kConnTenant[C];
    if (!Conns[C]->ok() || !Conns[C]->readBlock(Reply) ||
        !Conns[C]->request(std::string("tenant ") + kTenants[T].Name,
                           Reply) ||
        Reply.find(" bound ") == std::string::npos) {
      std::fprintf(stderr, "perfbench: cannot bind connection %u\n", C);
      std::exit(2);
    }
    Lists.push_back(makeRequests(Tenants[T], C, O.Seed));
  }

  TenantStats Before = tenantStats(Conns);

  // Timed phase: rounds of the closed loop, one thread per connection,
  // a barrier between rounds.
  RoundLog Log;
  std::vector<std::vector<std::string>> LastReplies(kConnections);
  std::vector<std::vector<std::string>> Writes(kConnections);
  std::vector<uint64_t> Failed(kConnections, 0);
  std::vector<std::vector<double>> RoundTripMs(kConnections);
  std::vector<std::vector<double>> Lat(kConnections);
  // The client threads' spans are the top-level spans of this phase;
  // the main thread only waits for them.
  double Start = now();
  {
    uint64_t Round = 0;
    while (Round == 0 || now() - Start < O.Seconds) {
      Log.beginRound();
      for (unsigned K = 0; K < kSetupsPerRound; ++K)
        SetUp();
      std::vector<std::thread> Threads;
      for (unsigned C = 0; C < kConnections; ++C)
        Threads.emplace_back([&, C] {
          Span SC("bench.client");
          Lat[C].assign(Lists[C].size(), 0.0);
          LastReplies[C].assign(Lists[C].size(), std::string());
          for (size_t I = 0; I < Lists[C].size(); ++I) {
            const Request &Q = Lists[C][I];
            std::string Line = lineFor(Q, Round);
            std::string &Rep = LastReplies[C][I];
            Span SR("server.request", (uint64_t(C) << 32) | I);
            bool Ok = Conns[C]->request(Line, Rep);
            Lat[C][I] = SR.stop();
            if (!Ok || Rep.rfind("error:", 0) == 0 ||
                Rep.find("\nerror:") != std::string::npos)
              ++Failed[C];
            if (Q.Query)
              RoundTripMs[C].push_back(Lat[C][I] * 1e3);
            else if (Q.Line.rfind("alloc", 0) == 0)
              Writes[C].push_back(Line);
          }
        });
      for (std::thread &T : Threads)
        T.join();
      size_t OpIndex = 0;
      for (unsigned C = 0; C < kConnections; ++C)
        for (size_t I = 0; I < Lists[C].size(); ++I)
          Log.op(OpIndex++, Lat[C][I], Lists[C][I].Answers);
      ++Round;
    }
  }
  M.E2E["peak_rss_mb"] = peakRssMb();
  TenantStats After = tenantStats(Conns);
  uint64_t Attempted = 0, FailedTotal = 0;
  for (unsigned C = 0; C < kConnections; ++C) {
    Attempted += Lists[C].size() * Log.rounds();
    FailedTotal += Failed[C];
  }
  R.ops(Attempted, FailedTotal);

  // Checks.
  {
    Span SC("bench.check");
    for (unsigned C = 0; C < kConnections; ++C)
      for (const std::string &W : Writes[C])
        mirrorAlloc(*Tenants[kConnTenant[C]].Mirror, W);
    AnswerCheck Names("serve/reply-sites"), Fresh("serve/fresh-dynsum");
    std::vector<std::unordered_set<std::string>> Sites(Tenants.size());
    for (size_t T = 0; T < Tenants.size(); ++T) {
      const ir::Program &P = *Tenants[T].Mirror;
      for (ir::AllocId A = 0; A < ir::AllocId(P.allocs().size()); ++A)
        Sites[T].insert(P.describeAlloc(A));
    }
    std::vector<ParsedAnswer> Parsed;
    for (unsigned C = 0; C < kConnections; ++C)
      for (size_t I = 0; I < Lists[C].size(); ++I) {
        if (!Lists[C][I].Query)
          continue;
        if (!parseQueryReply(LastReplies[C][I], Parsed)) {
          Names.mismatch();
          continue;
        }
        for (const ParsedAnswer &A : Parsed) {
          Names.counted();
          for (const std::string &S : A.Sites)
            if (!Sites[kConnTenant[C]].count(S)) {
              Names.mismatch();
              break;
            }
        }
      }
    uint64_t Rng = O.Seed * 31 + 5;
    for (unsigned C = 0; C < kConnections; ++C) {
      const TenantInput &T = Tenants[kConnTenant[C]];
      pag::BuiltPAG G = pag::buildPAG(*T.Mirror);
      analysis::AnalysisOptions AO;
      analysis::DynSumAnalysis Ref(*G.Graph, AO);
      for (unsigned K = 0; K < kCheckSample; ++K) {
        const std::string &Line = T.Lines[mix(Rng) % T.Lines.size()];
        if (!Conns[C]->request(Line, Reply) ||
            !parseQueryReply(Reply, Parsed)) {
          Fresh.mismatch();
          continue;
        }
        for (const ParsedAnswer &A : Parsed) {
          ir::VarId V = server::resolveVarSpec(*T.Mirror, A.Spec);
          analysis::QueryResult E = Ref.query(G.Graph->nodeOfVar(V));
          std::vector<std::string> Want;
          for (uint32_t S : sortedSites(E))
            Want.push_back(T.Mirror->describeAlloc(S));
          std::sort(Want.begin(), Want.end());
          if (!A.Complete || E.BudgetExceeded) {
            Fresh.skipped();
            continue;
          }
          Fresh.counted();
          if (Want != A.Sites)
            Fresh.mismatch();
        }
      }
    }
    Names.report(R);
    Fresh.report(R);
  }

  // Per-layer: the same query lines through an in-process
  // CommandInterpreter and straight into AnalysisService::queryVars, on
  // a service of the first tenant's (mirror) program.
  if (O.Trace) {
    const TenantInput &T = Tenants[0];
    service::ServiceOptions SvcO;
    SvcO.Engine.NumThreads = 1;
    service::AnalysisService Svc(parseIr(T.Text), SvcO);
    server::CommandInterpreter Interp(Svc);
    std::vector<double> InterpMs, QueryMs;
    StringOStream Out;
    // Pass 0 fills the service's store, as the timed rounds filled the
    // tenant's; passes 1-3 are timed.
    for (int Pass = 0; Pass < 4; ++Pass)
      for (const Request &Q : Lists[0]) {
        if (!Q.Query)
          continue;
        Out.clear();
        if (Pass == 0) {
          Interp.execute(Q.Line, Out, Out);
          continue;
        }
        Span SI("server.interpret");
        Interp.execute(Q.Line, Out, Out);
        InterpMs.push_back(SI.stop() * 1e3);
        std::vector<ir::VarId> Vars;
        for (const std::string &W : server::splitWords(Q.Line))
          if (W != "query")
            Vars.push_back(server::resolveVarSpec(Svc.program(), W));
        Span SQ("service.query");
        Svc.queryVars(Vars);
        QueryMs.push_back(SQ.stop() * 1e3);
      }
    double RoundTrip = median(RoundTripMs[0]);
    M.Layer["server.roundtrip_ms"] = RoundTrip;
    M.Layer["server.interpret_ms"] = median(InterpMs);
    M.Layer["service.query_ms"] = median(QueryMs);
    M.Layer["server.overhead_ms"] = RoundTrip - median(QueryMs);
  }
  // Analysis counters, read off the last round's replies.
  double Steps = 0, BudgetSteps = 0, Budget = 0, Computed = 0, Shared = 0;
  for (unsigned C = 0; C < kConnections; ++C)
    for (const std::string &Rep : LastReplies[C])
      for (size_t P = Rep.find("pts("); P != std::string::npos;
           P = Rep.find("pts(", P + 1)) {
        size_t Nl = Rep.find('\n', P);
        std::string Line = Rep.substr(P, Nl - P);
        size_t B = Line.rfind("  [");
        double N = B == std::string::npos ? 0 : std::atof(Line.c_str() + B + 3);
        Steps += N;
        if (Line.find("} (") != std::string::npos) {
          ++Budget;
          BudgetSteps += N;
        }
        if (size_t G = Rep.find("[generation ", Nl); G != std::string::npos &&
            Rep.find("pts(", P + 1) > G) {
          size_t Colon = Rep.find(": ", G);
          Shared += std::atof(Rep.c_str() + Colon + 2);
          size_t Comma = Rep.find(", ", Colon);
          Computed += std::atof(Rep.c_str() + Comma + 2);
        }
      }
  double PerRound = 1.0 / double(Log.rounds());
  M.Layer["analysis.ppta_steps"] = Steps;
  M.Layer["analysis.budget_exceeded"] = Budget;
  M.Layer["analysis.budget_steps_share"] = Steps ? BudgetSteps / Steps : 0.0;
  M.Layer["analysis.summaries_computed"] = Computed;
  M.Layer["engine.shared_hits"] = Shared;
  M.Layer["engine.threads_used"] = SO.QueryThreads;
  double Fetches = After.Fetches - Before.Fetches;
  M.Layer["engine.store_fetches"] = Fetches * PerRound;
  M.Layer["engine.store_hit_rate"] =
      Fetches > 0 ? (After.Hits - Before.Hits) / Fetches : 0.0;
  M.Layer["engine.store_entries"] = After.Entries;
  M.Layer["engine.store_publishes"] =
      (After.Publishes - Before.Publishes) * PerRound;
  M.Layer["engine.store_invalidated"] =
      (After.Invalidated - Before.Invalidated) * PerRound;
  M.Layer["engine.store_lock_contended"] =
      (After.Contended - Before.Contended) * PerRound;
  M.Layer["ir.parse_s"] = median(ParseS);
  M.Layer["pag.build_s"] = median(ConstructS);
  M.E2E["setup_s"] = setupSeconds(SetupS, kSetupsPerRound);
  Log.report(M);
  std::fprintf(stderr,
               "perfbench: serve: %u connections x %u requests per round, "
               "%llu rounds, %llu failed\n",
               kConnections, kRequestsPerRound,
               (unsigned long long)Log.rounds(),
               (unsigned long long)FailedTotal);
  Conns.clear();
  Server->stop();
}

} // namespace perfbench
