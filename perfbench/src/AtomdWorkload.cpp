//===- perfbench/src/AtomdWorkload.cpp - `atomd` workload -----------------===//
//
// The instrumentation daemon as a service: an in-process atomd::Daemon in
// the CLI-default isolate mode (workers are the built atomd binary), two
// workers, an on-disk store. Two client threads, one connection each,
// send the `instrument` request mix in a closed loop; --seed shuffles the
// request order and how requests are split between the two clients.
//
//   cold phase  repeated cycles of a fresh daemon with an empty store,
//               serving one request per application (so every request
//               misses the cache and writes the store);
//   warm phase  the daemon started by setup, after one untimed warm-up
//               pass: passes alternately over the whole O0 and the whole
//               O2 matrix (cache hits, so only instrument() runs).
//
// The engine is the same as in the `instrument` workload, behind the
// cache, protocol, queue and worker hop. Every reply's executable and
// statistics must equal an in-process runAtom() of the same request.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "BenchUtil.h"
#include "atomd/Client.h"
#include "atomd/Daemon.h"
#include "obs/Trace.h"
#include "trace/TraceTool.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string_view>
#include <thread>
#include <unistd.h>

using namespace atom;
namespace fs = std::filesystem;

namespace perfbench {

namespace {

constexpr unsigned SetupReps = 7;
constexpr unsigned NumClients = 2;
constexpr unsigned NumWorkers = 2;
/// Share of --seconds given to the cold phase (at least MinColdCycles).
constexpr double ColdShare = 0.2;
constexpr unsigned MinColdCycles = 2;

struct Request {
  size_t Tool = 0;
  size_t App = 0;
  int Opt = 0; ///< 0 or 2.
};

struct Expected {
  size_t Hash = 0;
  size_t Bytes = 0;
  InstrStats Stats;
};

bool sameStats(const InstrStats &A, const InstrStats &B) {
  return A.Points == B.Points && A.InsertedInsts == B.InsertedInsts &&
         A.Wrappers == B.Wrappers && A.PatchedProcs == B.PatchedProcs &&
         A.AnalysisProcs == B.AnalysisProcs &&
         A.StrippedProcs == B.StrippedProcs && A.SaveSlots == B.SaveSlots &&
         A.ProbeInlinedSites == B.ProbeInlinedSites &&
         A.ProbeGuardedSites == B.ProbeGuardedSites &&
         A.ProbeArgsElided == B.ProbeArgsElided &&
         A.ProbeConstsFolded == B.ProbeConstsFolded;
}

size_t hashBytes(const std::vector<uint8_t> &B) {
  return std::hash<std::string_view>()(
      std::string_view(reinterpret_cast<const char *>(B.data()), B.size()));
}

/// What one client thread saw.
struct ClientLog {
  std::vector<double> LatencyMs;
  std::vector<std::string> TraceIds;
  std::vector<std::string> Failures;
  uint64_t Attempted = 0;
  /// From the worker spans each reply carries: the pipeline needs two
  /// artifacts per request (analysis unit, lifted application); a miss
  /// in the worker's memory cache shows as a store-load, a store miss as
  /// a build followed by a store-store.
  uint64_t CacheHits = 0, CacheMisses = 0, StoreHits = 0, StoreMisses = 0;
};

/// Per-phase daemon-side figures.
struct PhaseStats {
  std::vector<double> StartMs;
  uint64_t CacheHits = 0, CacheMisses = 0, StoreHits = 0, StoreMisses = 0;
  uint64_t StoreBytes = 0, Spawns = 0, Retries = 0;
  unsigned Daemons = 0; ///< Daemons whose spawns and store were counted.
  unsigned Rounds = 0;  ///< Measured exchanges (cold cycles, warm passes).
  std::vector<double> QueueWaitUs, DispatchUs, PipelineUs, StoreIoUs;
};

class AtomdBench {
public:
  AtomdBench(const Args &A, Result &R) : A(A), R(R) {
    for (const Tool &T : tools::allTools())
      Tools.push_back(&T);
    Tools.push_back(&trace::traceTool());
  }
  ~AtomdBench() {
    stopDaemon(Warm);
    std::error_code Ec;
    fs::remove_all(Root, Ec);
  }

  bool run();

private:
  struct Live {
    std::unique_ptr<atomd::Daemon> D;
    std::string Dir, Sock;
  };

  AtomOptions optionsFor(size_t Tool, int Opt) const;
  bool startDaemon(Live &L, const std::string &Name, PhaseStats &P);
  void stopDaemon(Live &L);
  bool setup(unsigned Reps, PhaseStats &P, std::vector<double> &Times);
  void buildReferences();
  /// Sends \p Reqs from two clients over \p Conns (connected to \p L),
  /// split by seed, appending each request's latency to \p Latencies;
  /// returns the wall time of the exchange.
  double exchange(Live &L, std::vector<std::unique_ptr<atomd::Client>> &Conns,
                  const std::vector<Request> &Reqs, uint64_t SplitSeed,
                  std::vector<std::pair<Request, double>> &Latencies,
                  PhaseStats &P, bool Traced);
  bool connect(Live &L, std::vector<std::unique_ptr<atomd::Client>> &Conns);
  /// The daemon's segment timings of the requests just served (`trace`
  /// op; it keeps the most recent atomd::MaxTraceIndex).
  void collectSegments(Live &L, const std::vector<std::string> &TraceIds,
                       PhaseStats &P);
  /// One daemon's worker spawns (`status` op) and store size.
  void collectDaemon(Live &L, PhaseStats &P);
  uint64_t rejectCount(atomd::Client &C);
  void coldPhase(double Seconds, bool Traced, std::vector<double> &ColdMs,
                 Calibration &Cal);
  void warmPhase(double Seconds, bool Traced, Timing &T, Calibration &Cal);

  const Args &A;
  Result &R;
  SpanLog Log;
  std::vector<const Tool *> Tools;
  Suite S;
  std::vector<std::vector<uint8_t>> AppBytes;
  std::map<std::tuple<size_t, size_t, int>, Expected> Ref;
  std::string Root;
  Live Warm;
  uint64_t NextReq = 0;
  unsigned Daemons = 0;
  PhaseStats Cold, WarmStats;
};

AtomOptions AtomdBench::optionsFor(size_t Tool, int Opt) const {
  AtomOptions O;
  O.Opt = Opt == 0 ? AtomOptions::OptPreset::O0 : AtomOptions::OptPreset::O2;
  if (Tools[Tool]->Name == trace::traceTool().Name)
    O.AnalysisHeapOffset = trace::ToolRecordOptions().AnalysisHeapOffset;
  return O;
}

bool AtomdBench::startDaemon(Live &L, const std::string &Name,
                             PhaseStats &P) {
  L.Dir = Root + "/" + Name;
  L.Sock = Root + "/" + Name + ".sock";
  std::error_code Ec;
  fs::remove_all(L.Dir, Ec);
  fs::remove(L.Sock, Ec);
  fs::create_directories(L.Dir, Ec);
  atomd::DaemonOptions O;
  O.SocketPath = L.Sock;
  O.Jobs = NumWorkers;
  O.StoreDir = L.Dir + "/store";
  O.Isolate = true;
  O.WorkerExe = PERFBENCH_ATOMD_EXE;
  L.D = std::make_unique<atomd::Daemon>(O);
  std::string Err;
  int64_t T0 = nowNs();
  bool Ok;
  {
    Scope Sp(Log, "atomd.start", ++NextReq);
    Ok = L.D->start(Err);
  }
  P.StartMs.push_back(nsToMs(nowNs() - T0));
  if (!Ok) {
    R.note("atomd: daemon failed to start: " + Err);
    L.D.reset();
  }
  return Ok;
}

void AtomdBench::stopDaemon(Live &L) {
  if (!L.D)
    return;
  L.D->requestShutdown();
  L.D->wait();
  L.D.reset();
  std::error_code Ec;
  fs::remove_all(L.Dir, Ec);
  fs::remove(L.Sock, Ec);
}

bool AtomdBench::connect(Live &L,
                         std::vector<std::unique_ptr<atomd::Client>> &Conns) {
  Conns.clear();
  for (unsigned I = 0; I < NumClients; ++I) {
    Conns.push_back(std::make_unique<atomd::Client>());
    std::string Err;
    if (!Conns.back()->connect(L.Sock, Err)) {
      R.note("atomd: cannot connect: " + Err);
      return false;
    }
  }
  return true;
}

bool AtomdBench::setup(unsigned Reps, PhaseStats &P,
                       std::vector<double> &Times) {
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    stopDaemon(Warm);
    int64_t T0 = nowNs();
    S = buildSuite(Log);
    AppBytes.clear();
    for (const obj::Executable &App : S.Apps)
      AppBytes.push_back(App.serialize());
    if (!startDaemon(Warm, fmt("warm-%u", Daemons++), P))
      return false;
    Times.push_back(nsToS(nowNs() - T0));
  }
  return true;
}

void AtomdBench::buildReferences() {
  // Every slice of a run is a fresh process, so the in-process runAtom()
  // results are computed once per build and kept next to the run records.
  std::string Path = A.OutDir + "/atomd-references.txt";
  std::string Id = buildIdentity();
  const size_t Want = Tools.size() * S.Apps.size() * 2;
  std::ifstream In(Path);
  std::string Header;
  if (In && std::getline(In, Header) && Header == Id) {
    size_t TI, AI;
    int Opt;
    Expected E;
    InstrStats &St = E.Stats;
    while (In >> TI >> AI >> Opt >> E.Hash >> E.Bytes >> St.Points >>
           St.InsertedInsts >> St.Wrappers >> St.PatchedProcs >>
           St.AnalysisProcs >> St.StrippedProcs >> St.SaveSlots >>
           St.ProbeInlinedSites >> St.ProbeGuardedSites >>
           St.ProbeArgsElided >> St.ProbeConstsFolded)
      Ref[{TI, AI, Opt}] = E;
    if (Ref.size() == Want) {
      R.note("in-process runAtom references: loaded " + Path);
      return;
    }
    Ref.clear();
  }

  int64_t T0 = nowNs();
  std::ofstream Out(Path + ".tmp", std::ios::trunc);
  Out << Id << "\n";
  for (size_t TI = 0; TI < Tools.size(); ++TI)
    for (size_t AI = 0; AI < S.Apps.size(); ++AI)
      for (int Opt : {0, 2}) {
        InstrumentedProgram Run;
        DiagEngine D;
        Expected E;
        if (runAtom(S.Apps[AI], *Tools[TI], optionsFor(TI, Opt), Run, D)) {
          std::vector<uint8_t> B = Run.Exe.serialize();
          E = {hashBytes(B), B.size(), Run.Stats};
        }
        Ref[{TI, AI, Opt}] = E;
        const InstrStats &St = E.Stats;
        Out << TI << " " << AI << " " << Opt << " " << E.Hash << " "
            << E.Bytes << " " << St.Points << " " << St.InsertedInsts << " "
            << St.Wrappers << " " << St.PatchedProcs << " "
            << St.AnalysisProcs << " " << St.StrippedProcs << " "
            << St.SaveSlots << " " << St.ProbeInlinedSites << " "
            << St.ProbeGuardedSites << " " << St.ProbeArgsElided << " "
            << St.ProbeConstsFolded << "\n";
      }
  Out.close();
  if (Out)
    std::rename((Path + ".tmp").c_str(), Path.c_str());
  R.note(fmt("in-process runAtom references: %zu in %.3f s", Ref.size(),
             nsToS(nowNs() - T0)));
}

double AtomdBench::exchange(Live &L,
                            std::vector<std::unique_ptr<atomd::Client>> &Conns,
                            const std::vector<Request> &Reqs,
                            uint64_t SplitSeed,
                            std::vector<std::pair<Request, double>> &Latencies,
                            PhaseStats &P, bool Traced) {
  std::vector<std::vector<Request>> Split(NumClients);
  std::mt19937_64 G(SplitSeed);
  for (const Request &Q : Reqs)
    Split[G() % NumClients].push_back(Q);

  std::vector<ClientLog> Logs(NumClients);
  int64_t T0 = nowNs();
  std::vector<std::thread> Threads;
  for (unsigned CI = 0; CI < NumClients; ++CI)
    Threads.emplace_back([&, CI] {
      atomd::Client &C = *Conns[CI];
      ClientLog &CL = Logs[CI];
      std::string Label = fmt("perfbench-%u", CI);
      for (const Request &Q : Split[CI]) {
        const Tool &Tl = *Tools[Q.Tool];
        uint64_t Id = C.nextId();
        std::string Json = atomd::makeInstrumentRequest(
            Id, Tl.Name, Label, optionsFor(Q.Tool, Q.Opt));
        atomd::Reply Rep;
        atomd::Frame F;
        std::string Err;
        int64_t S0 = nowNs();
        bool Ok;
        {
          Scope Sp(Log, "atomd.call", Id + (uint64_t(CI) << 40));
          Ok = C.call(Json, AppBytes[Q.App], Rep, F, Err);
        }
        CL.LatencyMs.push_back(nsToMs(nowNs() - S0));
        ++CL.Attempted;
        std::string What = fmt("%s on %s at O%d", Tl.Name.c_str(),
                               S.Names[Q.App].c_str(), Q.Opt);
        if (!Ok) {
          CL.Failures.push_back(What + ": transport: " + Err);
          continue;
        }
        CL.TraceIds.push_back(Rep.TraceId);
        const Expected &E = Ref.at({Q.Tool, Q.App, Q.Opt});
        if (!Rep.Ok)
          CL.Failures.push_back(What + ": " + Rep.Error);
        else if (F.Bin.size() != E.Bytes || hashBytes(F.Bin) != E.Hash)
          CL.Failures.push_back(What + ": executable differs from runAtom()");
        else if (!sameStats(Rep.Stats, E.Stats))
          CL.Failures.push_back(What + ": stats differ from runAtom()");
        unsigned Loads = 0, Stores = 0;
        if (const obs::json::Value *TR = Rep.Doc.find("trace"))
          for (const obs::json::Value &RV : TR->Items) {
            obs::TraceRecordRow Row;
            if (!obs::parseTraceRow(RV, Row) || Row.Proc != "worker")
              continue;
            Loads += Row.Name == "store-load";
            Stores += Row.Name == "store-store";
          }
        CL.CacheMisses += Loads;
        CL.CacheHits += Loads < 2 ? 2 - Loads : 0;
        CL.StoreMisses += Stores;
        CL.StoreHits += Loads > Stores ? Loads - Stores : 0;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  double WallS = nsToS(nowNs() - T0);

  for (unsigned CI = 0; CI < NumClients; ++CI) {
    const ClientLog &CL = Logs[CI];
    R.Attempted += CL.Attempted;
    for (const std::string &Why : CL.Failures)
      R.fail("atomd: " + Why);
    for (size_t J = 0; J < CL.LatencyMs.size(); ++J)
      Latencies.push_back({Split[CI][J], CL.LatencyMs[J]});
    P.CacheHits += CL.CacheHits;
    P.CacheMisses += CL.CacheMisses;
    P.StoreHits += CL.StoreHits;
    P.StoreMisses += CL.StoreMisses;
  }
  ++P.Rounds;
  if (Traced) {
    std::vector<std::string> Ids;
    for (ClientLog &CL : Logs)
      Ids.insert(Ids.end(), CL.TraceIds.begin(), CL.TraceIds.end());
    collectSegments(L, Ids, P);
  }
  return WallS;
}

uint64_t AtomdBench::rejectCount(atomd::Client &C) {
  atomd::Reply Rep;
  atomd::Frame F;
  std::string Err;
  if (!C.call(atomd::makeSimpleRequest(C.nextId(), "metrics"), {}, Rep, F,
              Err))
    return 0;
  obs::json::Value Doc;
  if (!obs::json::parse(std::string(F.Bin.begin(), F.Bin.end()), Doc, Err))
    return 0;
  const obs::json::Value *Cs = Doc.find("counters");
  return Cs ? Cs->u64("atomd.rejects-quota") + Cs->u64("atomd.rejects-queue")
            : 0;
}

void AtomdBench::collectSegments(Live &L,
                                 const std::vector<std::string> &TraceIds,
                                 PhaseStats &P) {
  atomd::Client C;
  std::string Err;
  if (!C.connect(L.Sock, Err))
    return;
  size_t From = TraceIds.size() > atomd::MaxTraceIndex
                    ? TraceIds.size() - atomd::MaxTraceIndex
                    : 0;
  for (size_t I = From; I < TraceIds.size(); ++I) {
    std::string Json = fmt("{\"id\":%llu,\"op\":\"trace\",\"trace\":\"%s\"}",
                           (unsigned long long)C.nextId(),
                           TraceIds[I].c_str());
    atomd::Reply Rep;
    atomd::Frame F;
    if (!C.call(Json, {}, Rep, F, Err) || !Rep.Ok)
      continue;
    const obs::json::Value *T = Rep.Doc.find("trace");
    const obs::json::Value *Seg = T ? T->find("segments") : nullptr;
    if (!Seg)
      continue;
    P.QueueWaitUs.push_back(double(Seg->u64("queue-wait-us")));
    P.DispatchUs.push_back(double(Seg->u64("dispatch-us")));
    P.PipelineUs.push_back(double(Seg->u64("pipeline-us")));
    P.StoreIoUs.push_back(double(Seg->u64("store-io-us")));
  }
}

void AtomdBench::collectDaemon(Live &L, PhaseStats &P) {
  atomd::Client C;
  std::string Err;
  if (!C.connect(L.Sock, Err))
    return;
  ++P.Daemons;
  atomd::Reply Rep;
  atomd::Frame F;
  if (C.call(atomd::makeSimpleRequest(C.nextId(), "status"), {}, Rep, F,
             Err) &&
      Rep.Ok)
    if (const obs::json::Value *WP = Rep.Doc.find("worker-pool"))
      P.Spawns += WP->u64("spawns");
  std::error_code Ec;
  for (const fs::directory_entry &E :
       fs::recursive_directory_iterator(L.Dir + "/store", Ec))
    if (E.is_regular_file(Ec))
      P.StoreBytes += E.file_size(Ec);
}

void AtomdBench::coldPhase(double Seconds, bool Traced,
                           std::vector<double> &ColdMs, Calibration &Cal) {
  Budget B(Seconds);
  unsigned Cycle = 0;
  do {
    ++Cycle;
    // One request per application, each with a seeded tool and preset:
    // every request misses the lifted-application cache, and the first
    // requests for each tool miss the analysis-unit cache too.
    std::vector<Request> Reqs;
    std::mt19937_64 G(A.Seed * 0x2545F4914F6CDD1Dull + Cycle);
    std::vector<size_t> ToolOrder(Tools.size());
    for (size_t I = 0; I < ToolOrder.size(); ++I)
      ToolOrder[I] = I;
    seededShuffle(ToolOrder, G());
    for (size_t AI = 0; AI < S.Apps.size(); ++AI)
      Reqs.push_back({ToolOrder[AI % ToolOrder.size()], AI,
                      G() % 2 ? 2 : 0});
    seededShuffle(Reqs, G());

    Cal.sample();
    Live L;
    if (!startDaemon(L, fmt("cold-%u", Daemons++), Cold)) {
      R.fail("atomd: cold daemon did not start");
      return;
    }
    std::vector<std::unique_ptr<atomd::Client>> Conns;
    if (!connect(L, Conns)) {
      R.fail("atomd: cannot connect to the cold daemon");
      stopDaemon(L);
      return;
    }
    uint64_t Rejects0 = rejectCount(*Conns[0]);
    std::vector<std::pair<Request, double>> Latencies;
    exchange(L, Conns, Reqs, G(), Latencies, Cold, Traced);
    for (const auto &[Q, Ms] : Latencies)
      ColdMs.push_back(Ms);
    Cold.Retries += rejectCount(*Conns[0]) - Rejects0;
    collectDaemon(L, Cold);
    Conns.clear();
    stopDaemon(L);
  } while (B.another() || Cycle < MinColdCycles);
}

void AtomdBench::warmPhase(double Seconds, bool Traced, Timing &T,
                           Calibration &Cal) {
  std::vector<std::unique_ptr<atomd::Client>> Conns;
  if (!connect(Warm, Conns)) {
    R.fail("atomd: cannot connect to the warm daemon");
    return;
  }
  auto matrix = [&](int Opt, uint64_t Seed) {
    std::vector<Request> Reqs;
    for (size_t TI = 0; TI < Tools.size(); ++TI)
      for (size_t AI = 0; AI < S.Apps.size(); ++AI)
        Reqs.push_back({TI, AI, Opt});
    seededShuffle(Reqs, Seed);
    return Reqs;
  };
  // Untimed warm-up: fills both workers' caches and the store.
  std::vector<std::pair<Request, double>> Discard;
  PhaseStats Ignored;
  for (int Opt : {0, 2})
    exchange(Warm, Conns, matrix(Opt, A.Seed + Opt), A.Seed + 7, Discard,
             Ignored, false);

  uint64_t Rejects0 = rejectCount(*Conns[0]);
  Budget B(Seconds);
  // Best of N, as in the single-threaded workloads: each request's
  // fastest repetition. A pass takes the sum of its requests' times shared
  // by the two clients (its wall time with the clients evenly loaded).
  uint64_t Pass = 0;
  BestOf Best;
  std::vector<double> WallS[2];
  do {
    for (int Opt : {0, 2}) {
      Cal.sample();
      ++Pass;
      uint64_t Seed = A.Seed * 0x9E3779B97F4A7C15ull + Pass;
      std::vector<std::pair<Request, double>> Latencies;
      WallS[Opt == 0 ? 0 : 1].push_back(
          exchange(Warm, Conns, matrix(Opt, Seed), Seed ^ 0xA5, Latencies,
                   WarmStats, Traced));
      for (const auto &[Q, Ms] : Latencies)
        Best.add(Q.Opt == 0 ? 1 : 2, Q.Tool * S.Apps.size() + Q.App, Ms);
    }
  } while (B.another());
  Best.fill(T);
  T.O0PassS[0] /= NumClients;
  T.O2PassS[0] /= NumClients;
  T.BusyS /= NumClients;
  R.note(fmt("warm pass wall seconds (median): O0 %.4f, O2 %.4f",
             median(WallS[0]) * Cal.scale(), median(WallS[1]) * Cal.scale()));
  WarmStats.Retries += rejectCount(*Conns[0]) - Rejects0;
}

bool AtomdBench::run() {
  Root = A.OutDir + fmt("/atomd-%d", int(::getpid()));
  std::error_code Ec;
  fs::create_directories(Root, Ec);
  // As the atomd CLI does: the daemon's counters and histograms need the
  // registry (workers enable their own).
  obs::Registry::global().setEnabled(true);
  R.note(fmt("daemon: isolate, %u workers (%s), %u client threads, "
             "on-disk store",
             NumWorkers, PERFBENCH_ATOMD_EXE, NumClients));
  for (int Opt : {0, 2}) {
    obs::JsonWriter J;
    J.beginObject();
    atom::bench::writeConfigStamp(J, optionsFor(0, Opt));
    J.endObject();
    R.note(fmt("atom options (O%d): %s; trace adds heap-offset %llu", Opt,
               J.take().c_str(),
               (unsigned long long)trace::ToolRecordOptions()
                   .AnalysisHeapOffset));
  }

  std::vector<double> SetupTimes, TracedSetupTimes;
  PhaseStats Discard;
  if (!setup(SetupReps, Discard, SetupTimes))
    return false;
  buildReferences();

  double UntracedS = A.Trace ? A.Seconds / 2 : A.Seconds;
  Timing Untraced, Traced;
  Untraced.SetupS = median(SetupTimes);
  std::vector<double> ColdMs, TracedColdMs;
  // The workload keeps about four threads busy (two clients, two
  // workers); four copies of the kernel took 10.5 ms each on the quiet VM.
  Calibration UntracedCal(NumClients + NumWorkers, 10.5),
      TracedCal(NumClients + NumWorkers, 10.5);
  coldPhase(UntracedS * ColdShare, false, ColdMs, UntracedCal);
  warmPhase(UntracedS * (1 - ColdShare), false, Untraced, UntracedCal);
  Untraced.Scale = UntracedCal.scale();
  R.note(UntracedCal.note());
  if (A.Trace) {
    Log.enable(true);
    Cold = PhaseStats();
    WarmStats = PhaseStats();
    if (!setup(SetupReps, WarmStats, TracedSetupTimes))
      return false;
    Traced.SetupS = median(TracedSetupTimes);
    coldPhase(A.Seconds / 2 * ColdShare, true, TracedColdMs, TracedCal);
    warmPhase(A.Seconds / 2 * (1 - ColdShare), true, Traced, TracedCal);
    Traced.Scale = TracedCal.scale();
    collectDaemon(Warm, WarmStats);
  }
  reportTiming(R, Untraced, A.Trace ? &Traced : nullptr);

  // This workload's figures under their own names (scaled to the
  // reference host speed like the metrics).
  double K = Untraced.Scale;
  R.note(fmt("request_ms_p50 = %.4f ms (warm, best of N, n=%zu)",
             quantile(Untraced.OpMs, 0.5) * K, Untraced.OpMs.size()));
  R.note(fmt("request_ms_p99 = %.4f ms (warm, best of N, n=%zu)",
             quantile(Untraced.OpMs, 0.99) * K, Untraced.OpMs.size()));
  R.note(fmt("cold_request_ms_p50 = %.4f ms (n=%zu)", median(ColdMs) * K,
             ColdMs.size()));
  R.note(fmt("requests_per_s = %.2f 1/s (warm)", Untraced.opsPerS() / K));

  if (!A.Trace)
    return true;
  for (const auto &[Name, P] :
       {std::pair<const char *, PhaseStats *>{"cold", &Cold},
        {"warm", &WarmStats}}) {
    // Counts per measured exchange (a cold cycle or a warm pass) and per
    // daemon, so they do not depend on how many fit in the run.
    std::string Sfx = std::string(".") + Name;
    double Rounds = P->Rounds ? double(P->Rounds) : 1;
    double Daemons = P->Daemons ? double(P->Daemons) : 1;
    R.layer("atomd.start_ms" + Sfx, "ms", median(P->StartMs));
    uint64_t Lookups = P->CacheHits + P->CacheMisses;
    R.layer("atomd.cache_hit_ratio" + Sfx, "ratio",
            Lookups ? double(P->CacheHits) / double(Lookups) : 0);
    R.layer("atomd.store_hits" + Sfx, "count", double(P->StoreHits) / Rounds);
    R.layer("atomd.store_misses" + Sfx, "count",
            double(P->StoreMisses) / Rounds);
    R.layer("atomd.store_bytes" + Sfx, "bytes",
            double(P->StoreBytes) / Daemons);
    R.layer("atomd.worker_spawns" + Sfx, "count",
            double(P->Spawns) / Daemons);
    R.layer("atomd.backpressure_retries" + Sfx, "count",
            double(P->Retries) / Rounds);
    R.layer("atomd.queue_wait_us_p50" + Sfx, "us", median(P->QueueWaitUs));
    R.layer("atomd.dispatch_us_p50" + Sfx, "us", median(P->DispatchUs));
    R.layer("atomd.pipeline_us_p50" + Sfx, "us", median(P->PipelineUs));
    R.layer("atomd.store_io_us_p50" + Sfx, "us", median(P->StoreIoUs));
  }
  R.layer("atomd.call_ms.cold", "ms", median(TracedColdMs));
  R.layer("atomd.call_ms.warm", "ms", median(Traced.OpMs));
  R.layer("mcc.compile_app_ms", "ms", selfMedianMs(Log, "mcc.compile_app"));
  R.layer("link.app_ms", "ms", selfMedianMs(Log, "link.app"));
  if (!Log.write(A.OutDir + fmt("/spans-atomd-%llu.json",
                                 (unsigned long long)A.Seed)))
    R.note("could not write the span log");
  return true;
}

} // namespace

bool runAtomdWorkload(const Args &A, Result &R) {
  return AtomdBench(A, R).run();
}

} // namespace perfbench
