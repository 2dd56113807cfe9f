//===- perfbench/src/RunWorkload.cpp - `run` workload ---------------------===//
//
// Figure 6 as a user feels it: host time of instrumented programs under
// the default DBT tier. Setup builds the suite and instruments it with
// cache, unalign, prof and trace at O0 and O2 (runAtom, 160 executables).
// The timed part is a fixed batch, run in passes: the 20 plain
// applications, then the 80 O0 executables, then the 80 O2 executables,
// each loaded into a fresh sim::Machine and run to exit. sim and its DBT
// tier do all the work; the engine does none.
//
// Checks: every run exits 0 with the plain application's stdout (and the
// workload's golden stdout where it has one), and each tool's report file
// is byte-identical at O0 and O2.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "BenchUtil.h"
#include "sim/dbt/Dbt.h"
#include "trace/TraceTool.h"

#include <cmath>
#include <memory>
#include <string_view>

using namespace atom;

namespace perfbench {

namespace {

constexpr unsigned SetupReps = 1;
const char *const ToolNames[] = {"cache", "unalign", "prof", "trace"};
constexpr size_t NumTools = 4;
const char *const GroupNames[] = {"app", "o0", "o2"};

/// Per-group sums over one pass.
struct GroupPass {
  int64_t LoadNs = 0, RunNs = 0;
  double Insts = 0;
  double Blocks = 0, Fallbacks = 0, Chains = 0, SideExits = 0, SlowMem = 0,
         TlbFills = 0, CacheBytes = 0, Flushes = 0;
  double FastEntries = 0, SlowEntries = 0;
  double TransHits = 0, TransMisses = 0;
};

struct Prog {
  int Group = 0;   ///< 0 app, 1 O0, 2 O2.
  size_t Tool = 0; ///< Index into ToolNames (instrumented groups).
  size_t App = 0;
  obj::Executable Exe;
};

size_t hashOf(const std::string &S) {
  return std::hash<std::string_view>()(std::string_view(S));
}

class RunBench {
public:
  RunBench(const Args &A, Result &R) : A(A), R(R) {}
  bool run();

private:
  bool setup(unsigned Reps, std::vector<double> &Times);
  void pass(int Group, BestOf &Best);
  /// Also sets \p AppS, the plain applications' pass time.
  void segment(double Seconds, Timing &T, double &AppS);
  void observeDeterminism(int Group, const GroupPass &G);

  const Args &A;
  Result &R;
  SpanLog Log;
  Determinism Det;
  Suite S;
  std::vector<Prog> Progs;
  uint64_t NextReq = 0;
  std::vector<std::string> AppStdout;           ///< Per app, from its run.
  std::vector<double> Insts[3];                 ///< Per program of a group.
  std::vector<std::pair<size_t, size_t>> Report[3]; ///< (hash, bytes).
  std::vector<GroupPass> Passes[3];             ///< Every completed pass.
};

bool RunBench::setup(unsigned Reps, std::vector<double> &Times) {
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    int64_t T0 = nowNs();
    S = buildSuite(Log);
    Progs.clear();
    for (size_t AI = 0; AI < S.Apps.size(); ++AI)
      Progs.push_back({0, 0, AI, S.Apps[AI]});
    for (int Group : {1, 2})
      for (size_t TI = 0; TI < NumTools; ++TI)
        for (size_t AI = 0; AI < S.Apps.size(); ++AI) {
          const Tool *Tl = tools::findTool(ToolNames[TI]);
          AtomOptions O;
          O.Opt = Group == 1 ? AtomOptions::OptPreset::O0
                             : AtomOptions::OptPreset::O2;
          if (Tl->Name == trace::traceTool().Name)
            O.AnalysisHeapOffset =
                trace::ToolRecordOptions().AnalysisHeapOffset;
          InstrumentedProgram Out;
          DiagEngine D;
          if (!runAtom(S.Apps[AI], *Tl, O, Out, D)) {
            R.note(fmt("setup: %s on %s failed: %s", ToolNames[TI],
                       S.Names[AI].c_str(), D.str().c_str()));
            return false;
          }
          Progs.push_back({Group, TI, AI, std::move(Out.Exe)});
        }
    Times.push_back(nsToS(nowNs() - T0));
  }
  return true;
}

void RunBench::pass(int Group, BestOf &Best) {
  GroupPass G;
  std::vector<double> &GroupInsts = Insts[Group];
  GroupInsts.assign(Group == 0 ? S.Apps.size() : NumTools * S.Apps.size(),
                    0);
  Report[Group].assign(GroupInsts.size(), {0, 0});
  for (const Prog &P : Progs) {
    if (P.Group != Group)
      continue;
    uint64_t Req = ++NextReq;
    std::unique_ptr<sim::Machine> M;
    sim::RunResult Res;
    int64_t T0, T1, T2;
    {
      Scope Root(Log, "sim.program", Req);
      T0 = nowNs();
      {
        Scope Sp(Log, "sim.load", Req, Root.index());
        M = std::make_unique<sim::Machine>(P.Exe);
      }
      T1 = nowNs();
      {
        Scope Sp(Log, "sim.run", Req, Root.index());
        Res = M->run();
      }
      T2 = nowNs();
    }
    G.LoadNs += T1 - T0;
    G.RunNs += T2 - T1;
    size_t Slot = Group == 0 ? P.App : P.Tool * S.Apps.size() + P.App;
    Best.add(Group, Slot, nsToMs(T2 - T0));
    ++R.Attempted;

    const sim::Stats &St = M->stats();
    GroupInsts[Slot] = double(St.Instructions);
    G.Insts += double(St.Instructions);
    if (const sim::dbt::DbtPerf *D = M->dbtPerf()) {
      G.Blocks += double(D->BlocksTranslated);
      G.Fallbacks += double(D->InterpFallbacks);
      G.Chains += double(D->ChainLinks);
      G.SideExits += double(D->SideExits);
      G.SlowMem += double(D->SlowMemOps);
      G.TlbFills += double(D->TlbFills);
      G.CacheBytes += double(D->CacheBytes);
      G.Flushes += double(D->CacheFlushes);
    }
    G.FastEntries += double(M->loopPerf().FastEntries);
    G.SlowEntries += double(M->loopPerf().SlowEntries);
    G.TransHits += double(M->memory().perf().TransHits);
    G.TransMisses += double(M->memory().perf().TransMisses);

    std::string What =
        Group == 0 ? S.Names[P.App]
                   : fmt("%s on %s at %s", ToolNames[P.Tool],
                         S.Names[P.App].c_str(), GroupNames[Group]);
    const std::string &Out = M->vfs().stdoutText();
    if (!Res.exitedWith(0)) {
      R.fail(What + ": did not exit 0: " + Res.FaultMessage);
      continue;
    }
    const std::string &Golden = S.ExpectedStdout[P.App];
    if (!Golden.empty() && Out != Golden) {
      R.fail(What + ": stdout differs from the workload's golden output");
      continue;
    }
    if (Group == 0) {
      AppStdout[P.App] = Out;
      continue;
    }
    if (Out != AppStdout[P.App]) {
      R.fail(What + ": stdout differs from the uninstrumented run");
      continue;
    }
    // The trace tool's raw stream determines its ATF trace (the converter
    // is a function of the application and the raw bytes), so equal raw
    // streams at O0 and O2 mean equal ATF traces.
    std::string File = std::string(ToolNames[P.Tool]) == "trace"
                           ? std::string(trace::RawTraceFile)
                           : std::string(ToolNames[P.Tool]) + ".out";
    if (!M->vfs().fileExists(File)) {
      R.fail(What + ": wrote no " + File);
      continue;
    }
    std::string Rep = M->vfs().fileContents(File);
    Report[Group][Slot] = {hashOf(Rep), Rep.size()};
    if (Group == 2 && Report[2][Slot] != Report[1][Slot])
      R.fail(What + ": " + File + " differs from the O0 report");
  }
  Passes[Group].push_back(G);
  observeDeterminism(Group, G);
}

void RunBench::observeDeterminism(int Group, const GroupPass &G) {
  std::string Pre = std::string(GroupNames[Group]) + ".";
  Det.observe(Pre + "sim.guest_insts", G.Insts, R);
  Det.observe(Pre + "dbt.blocks_translated", G.Blocks, R);
  Det.observe(Pre + "dbt.interp_fallbacks", G.Fallbacks, R);
  Det.observe(Pre + "dbt.chain_links", G.Chains, R);
  Det.observe(Pre + "dbt.side_exits", G.SideExits, R);
  Det.observe(Pre + "dbt.slow_mem_ops", G.SlowMem, R);
  Det.observe(Pre + "dbt.tlb_fills", G.TlbFills, R);
  Det.observe(Pre + "dbt.cache_bytes", G.CacheBytes, R);
  Det.observe(Pre + "dbt.cache_flushes", G.Flushes, R);
  if (Group == 0)
    return;
  // Figure 6 ratio: geomean over (tool, app) of instrumented / plain
  // instructions, in matrix order.
  std::vector<double> Ratios;
  for (size_t TI = 0; TI < NumTools; ++TI)
    for (size_t AI = 0; AI < S.Apps.size(); ++AI)
      if (Insts[0][AI] > 0)
        Ratios.push_back(Insts[Group][TI * S.Apps.size() + AI] /
                         Insts[0][AI]);
  Det.observe(std::string("sim.insts_overhead_") + GroupNames[Group] + "_x",
              atom::bench::geomean(Ratios), R);
}

void RunBench::segment(double Seconds, Timing &T, double &AppS) {
  Budget B(Seconds);
  BestOf Best;
  Calibration Cal(1, 8.0);
  do {
    for (int Group : {0, 1, 2}) {
      Cal.sample();
      pass(Group, Best);
    }
  } while (B.another());
  Best.fill(T);
  T.Scale = Cal.scale();
  R.note(Cal.note());
  AppS = Best.groupS(0);
  R.note(fmt("%zu program runs, best of %zu passes per program",
             Best.samples(), Best.samples() / T.OpMs.size()));
}

bool RunBench::run() {
  sim::MachineOptions MO;
  R.note("machine options: " + machineOptionsStamp(MO) +
         fmt(" (dbt host support: %d)", int(sim::dbt::DbtTier::supported())));
  for (auto P : {AtomOptions::OptPreset::O0, AtomOptions::OptPreset::O2}) {
    AtomOptions O;
    O.Opt = P;
    obs::JsonWriter J;
    J.beginObject();
    atom::bench::writeConfigStamp(J, O);
    J.endObject();
    R.note(fmt("atom options (%s): %s; trace adds heap-offset %llu",
               optPresetName(P), J.take().c_str(),
               (unsigned long long)trace::ToolRecordOptions()
                   .AnalysisHeapOffset));
  }

  std::vector<double> SetupTimes, TracedSetupTimes;
  if (!setup(SetupReps, SetupTimes))
    return false;
  AppStdout.assign(S.Apps.size(), "");
  Timing Untraced, Traced;
  double AppS = 0, TracedAppS = 0;
  Untraced.SetupS = median(SetupTimes);
  segment(A.Trace ? A.Seconds / 2 : A.Seconds, Untraced, AppS);
  if (A.Trace) {
    Log.enable(true);
    if (!setup(SetupReps, TracedSetupTimes))
      return false;
    Traced.SetupS = median(TracedSetupTimes);
    segment(A.Seconds / 2, Traced, TracedAppS);
  }
  reportTiming(R, Untraced, A.Trace ? &Traced : nullptr);
  Det.checkAcrossRuns(A, R);

  // This workload's figures under their own names (scaled to the
  // reference host speed like the metrics).
  double K = Untraced.Scale;
  R.note(fmt("run_o0_s = %.6f s", median(Untraced.O0PassS) * K));
  R.note(fmt("run_o2_s = %.6f s", median(Untraced.O2PassS) * K));
  R.note(fmt("app_run_s = %.6f s", AppS * K));
  R.note(fmt("insts_overhead_o0_x = %.6f x",
             Det.get("sim.insts_overhead_o0_x")));
  R.note(fmt("insts_overhead_o2_x = %.6f x",
             Det.get("sim.insts_overhead_o2_x")));
  for (int Group : {0, 1, 2})
    R.note(fmt("dbt.interp_fallbacks.%s = %.0f count", GroupNames[Group],
               Det.get(std::string(GroupNames[Group]) +
                       ".dbt.interp_fallbacks")));

  if (!A.Trace)
    return true;
  for (int Group : {0, 1, 2}) {
    // Host times: median over every pass of the run; counts repeat
    // exactly.
    std::vector<double> Load, Run, Mips;
    for (const GroupPass &G : Passes[Group]) {
      Load.push_back(nsToMs(G.LoadNs));
      Run.push_back(nsToMs(G.RunNs));
      Mips.push_back(G.RunNs ? G.Insts / (double(G.RunNs) / 1e3) : 0);
    }
    const GroupPass &G = Passes[Group].back();
    std::string Sfx = std::string(".") + GroupNames[Group];
    R.layer("sim.load_ms" + Sfx, "ms", median(Load));
    R.layer("sim.run_ms" + Sfx, "ms", median(Run));
    R.layer("sim.guest_insts" + Sfx, "count", G.Insts);
    R.layer("sim.mips" + Sfx, "MIPS", median(Mips));
    R.layer("dbt.blocks_translated" + Sfx, "count", G.Blocks);
    R.layer("dbt.interp_fallbacks" + Sfx, "count", G.Fallbacks);
    R.layer("dbt.chain_links" + Sfx, "count", G.Chains);
    R.layer("dbt.side_exits" + Sfx, "count", G.SideExits);
    R.layer("dbt.slow_mem_ops" + Sfx, "count", G.SlowMem);
    R.layer("dbt.tlb_fills" + Sfx, "count", G.TlbFills);
    R.layer("dbt.cache_bytes" + Sfx, "bytes", G.CacheBytes);
    R.layer("dbt.cache_flushes" + Sfx, "count", G.Flushes);
    R.layer("sim.fast_entries" + Sfx, "count", G.FastEntries);
    R.layer("sim.slow_entries" + Sfx, "count", G.SlowEntries);
    double Scalar = G.TransHits + G.TransMisses;
    R.layer("mem.trans_hit_ratio" + Sfx, "ratio",
            Scalar > 0 ? G.TransHits / Scalar : 0);
  }
  R.layer("sim.insts_overhead_o0_x", "x", Det.get("sim.insts_overhead_o0_x"));
  R.layer("sim.insts_overhead_o2_x", "x", Det.get("sim.insts_overhead_o2_x"));
  R.layer("mcc.compile_app_ms", "ms", selfMedianMs(Log, "mcc.compile_app"));
  R.layer("link.app_ms", "ms", selfMedianMs(Log, "link.app"));
  if (!Log.write(A.OutDir + fmt("/spans-run-%llu.json",
                                 (unsigned long long)A.Seed)))
    R.note("could not write the span log");
  return true;
}

} // namespace

bool runRunWorkload(const Args &A, Result &R) {
  return RunBench(A, R).run();
}

} // namespace perfbench
