//===- perfbench/src/InstrumentWorkload.cpp - `instrument` workload ------===//
//
// The paper's Figure 5 path: serial runAtom() on one thread over 12 tools
// (the 11 Figure 6 tools plus trace) x the 20 workloads, with explicit
// --opt presets, no pipeline cache. Passes alternate between the whole O0
// matrix and the whole O2 matrix; --seed shuffles the order inside each
// pass. mcc (analysis compile), om lift, the engine and ProbeOpt do all
// the work; the simulator does none.
//
// The traced half of a traced run replaces runAtom() by its public steps
// (compileAnalysisModules, buildAnalysisUnit, om::liftExecutable,
// instrument() with PipelineReuse) so each gets a span, and checks that
// the executable is byte-identical to the one runAtom() produced.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "BenchUtil.h"
#include "om/Lift.h"
#include "trace/TraceTool.h"

#include <cmath>
#include <functional>
#include <string_view>

using namespace atom;

namespace perfbench {

namespace {

constexpr unsigned SetupReps = 9;

/// Every suite tool instrumented with the options the repo's own figures
/// use: trace records with a partitioned analysis heap, as
/// `axp-trace record --tool` does.
AtomOptions optionsFor(const Tool &T, AtomOptions::OptPreset P) {
  AtomOptions O;
  O.Opt = P;
  O.Jobs = 1;
  O.CachePipeline = false;
  if (T.Name == trace::traceTool().Name)
    O.AnalysisHeapOffset = trace::ToolRecordOptions().AnalysisHeapOffset;
  return O;
}

struct OutputId {
  size_t Hash = 0;
  size_t Bytes = 0;
  bool operator==(const OutputId &O) const {
    return Hash == O.Hash && Bytes == O.Bytes;
  }
};

OutputId identify(const obj::Executable &Exe) {
  std::vector<uint8_t> B = Exe.serialize();
  std::string_view V(reinterpret_cast<const char *>(B.data()), B.size());
  return {std::hash<std::string_view>()(V), B.size()};
}

/// runAtom() split into its public steps, one span each.
bool decomposedRunAtom(SpanLog &Log, uint64_t Req, const obj::Executable &App,
                       const Tool &T, const AtomOptions &O,
                       InstrumentedProgram &Out, DiagEngine &D) {
  Scope Root(Log, "atom.run", Req);
  std::vector<obj::ObjectModule> Mods;
  {
    Scope S(Log, "mcc.compile_analysis", Req, Root.index());
    if (!compileAnalysisModules(T, Mods, D))
      return false;
  }
  om::Unit Analysis;
  {
    Scope S(Log, "atom.analysis_unit", Req, Root.index());
    if (!buildAnalysisUnit(Mods, Analysis, D))
      return false;
  }
  om::Unit Lifted;
  {
    Scope S(Log, "om.lift_app", Req, Root.index());
    if (!om::liftExecutable(App, Lifted, D))
      return false;
  }
  PipelineReuse Reuse;
  Reuse.LiftedApp = &Lifted;
  Reuse.AnalysisUnit = &Analysis;
  Scope S(Log, "atom.instrument", Req, Root.index());
  return instrument(App, T.Instrument, {}, O, Out, D, &Reuse);
}

struct Counts {
  double Points = 0, Inserted = 0, SaveSlots = 0, Wrappers = 0,
         Inlined = 0, Guarded = 0, ArgsElided = 0, Rejects = 0;
  /// Instrumented / original text bytes per (tool, app), in matrix order
  /// so the geomean does not depend on the shuffled run order.
  std::vector<double> Growth;
  size_t N = 0;

  double logGrowth() const {
    double Sum = 0;
    for (double G : Growth)
      Sum += G > 0 ? std::log(G) : 0;
    return Sum;
  }

  void add(const InstrStats &S, size_t Slot, double G) {
    Points += S.Points;
    Inserted += S.InsertedInsts;
    SaveSlots += S.SaveSlots;
    Wrappers += S.Wrappers;
    Inlined += S.ProbeInlinedSites;
    Guarded += S.ProbeGuardedSites;
    ArgsElided += S.ProbeArgsElided;
    for (unsigned I = 1; I < probeopt::NumRejectReasons; ++I)
      Rejects += S.ProbeRejects[I];
    Growth[Slot] = G;
    ++N;
  }
};

class InstrumentBench {
public:
  InstrumentBench(const Args &A, Result &R) : A(A), R(R) {
    for (const Tool &T : tools::allTools())
      Tools.push_back(&T);
    Tools.push_back(&trace::traceTool());
  }

  bool run();

private:
  double setup(unsigned Reps);
  void pass(AtomOptions::OptPreset P, bool Traced, BestOf &Best);
  void segment(double Seconds, bool Traced, Timing &T);

  const Args &A;
  Result &R;
  SpanLog Log;
  Determinism Det;
  std::vector<const Tool *> Tools;
  Suite S;
  uint64_t Passes = 0;
  uint64_t NextReq = 0;
  /// Output of each (opt, tool, app), from its first untraced run.
  std::map<std::tuple<int, size_t, size_t>, OutputId> Ref;
  Counts Last[2]; ///< Counts of the latest O0 / O2 pass.
};

double InstrumentBench::setup(unsigned Reps) {
  std::vector<double> Times;
  for (unsigned I = 0; I < Reps; ++I) {
    int64_t T0 = nowNs();
    S = buildSuite(Log);
    Times.push_back(nsToS(nowNs() - T0));
  }
  return median(Times);
}

void InstrumentBench::pass(AtomOptions::OptPreset P, bool Traced,
                           BestOf &Best) {
  const int OptIdx = P == AtomOptions::OptPreset::O0 ? 1 : 2;
  std::vector<std::pair<size_t, size_t>> Jobs;
  for (size_t TI = 0; TI < Tools.size(); ++TI)
    for (size_t AI = 0; AI < S.Apps.size(); ++AI)
      Jobs.push_back({TI, AI});
  seededShuffle(Jobs, A.Seed * 0x9E3779B97F4A7C15ull + ++Passes);

  Counts C;
  C.Growth.assign(Jobs.size(), 0);
  for (const auto &[TI, AI] : Jobs) {
    const Tool &Tl = *Tools[TI];
    const obj::Executable &App = S.Apps[AI];
    AtomOptions O = optionsFor(Tl, P);
    InstrumentedProgram Out;
    DiagEngine D;
    uint64_t Req = ++NextReq;
    int64_t T0 = nowNs();
    bool Ok = Traced ? decomposedRunAtom(Log, Req, App, Tl, O, Out, D)
                     : runAtom(App, Tl, O, Out, D);
    Best.add(OptIdx, TI * S.Apps.size() + AI, nsToMs(nowNs() - T0));
    ++R.Attempted;

    std::string What = fmt("%s on %s at %s", Tl.Name.c_str(),
                           S.Names[AI].c_str(), optPresetName(P));
    if (!Ok) {
      R.fail(What + ": " + D.str());
      continue;
    }
    OutputId Id = identify(Out.Exe);
    auto [It, New] = Ref.emplace(std::make_tuple(OptIdx, TI, AI), Id);
    if (New && Traced)
      R.fail(What + ": traced before any untraced reference");
    else if (!New && !(It->second == Id))
      R.fail(What + (Traced ? ": decomposed pipeline output differs from "
                              "runAtom()"
                            : ": output differs between passes"));
    C.add(Out.Stats, TI * S.Apps.size() + AI,
          double(Out.Exe.Text.size()) / double(App.Text.size()));
  }

  // Deterministic per-pass figures: must repeat in every pass.
  std::string Pre = OptIdx == 1 ? "O0." : "O2.";
  Det.observe(Pre + "atom.points", C.Points, R);
  Det.observe(Pre + "atom.inserted_insts", C.Inserted, R);
  Det.observe(Pre + "atom.save_slots", C.SaveSlots, R);
  Det.observe(Pre + "atom.wrappers", C.Wrappers, R);
  Det.observe(Pre + "atom.probe_inlined_sites", C.Inlined, R);
  Det.observe(Pre + "atom.probe_guarded_sites", C.Guarded, R);
  Det.observe(Pre + "atom.probe_args_elided", C.ArgsElided, R);
  Det.observe(Pre + "atom.probe_rejects", C.Rejects, R);
  Det.observe(Pre + "atom.log_text_growth", C.logGrowth(), R);
  Last[OptIdx - 1] = C;
}

void InstrumentBench::segment(double Seconds, bool Traced, Timing &T) {
  Budget B(Seconds);
  BestOf Best;
  Calibration Cal(1, 8.0);
  do {
    Cal.sample();
    pass(AtomOptions::OptPreset::O0, Traced, Best);
    Cal.sample();
    pass(AtomOptions::OptPreset::O2, Traced, Best);
  } while (B.another());
  Best.fill(T);
  T.Scale = Cal.scale();
  R.note(Cal.note());
  R.note(fmt("%s: %zu runAtom calls, best of %zu cycles per (tool, app, "
             "opt)",
             Traced ? "traced" : "untraced", Best.samples(),
             Best.samples() / T.OpMs.size()));
}

bool InstrumentBench::run() {
  for (auto P : {AtomOptions::OptPreset::O0, AtomOptions::OptPreset::O2})
    for (const Tool *T : {Tools.front(), Tools.back()}) {
      obs::JsonWriter J;
      J.beginObject();
      atom::bench::writeConfigStamp(J, optionsFor(*T, P));
      J.key("heap-offset");
      J.value(uint64_t(optionsFor(*T, P).AnalysisHeapOffset));
      J.endObject();
      R.note(fmt("atom options (%s, %s): %s", T->Name.c_str(),
                 optPresetName(P), J.take().c_str()));
    }

  Timing Untraced, Traced;
  Untraced.SetupS = setup(SetupReps);
  segment(A.Trace ? A.Seconds / 2 : A.Seconds, false, Untraced);
  if (A.Trace) {
    Log.enable(true);
    Traced.SetupS = setup(SetupReps);
    segment(A.Seconds / 2, true, Traced);
  }
  reportTiming(R, Untraced, A.Trace ? &Traced : nullptr);
  Det.checkAcrossRuns(A, R);

  const Counts &C0 = Last[0], &C2 = Last[1];
  double Growth = C0.N + C2.N
                      ? std::exp((C0.logGrowth() + C2.logGrowth()) /
                                 double(C0.N + C2.N))
                      : 0;
  // This workload's figures under their own names (scaled to the
  // reference host speed like the metrics).
  double K = Untraced.Scale;
  R.note(fmt("instrument_ms_p50 = %.4f ms (n=%zu)",
             quantile(Untraced.OpMs, 0.5) * K, Untraced.OpMs.size()));
  R.note(fmt("instrument_ms_p99 = %.4f ms (n=%zu)",
             quantile(Untraced.OpMs, 0.99) * K, Untraced.OpMs.size()));
  R.note(fmt("instruments_per_s = %.2f 1/s", Untraced.opsPerS() / K));
  R.note(fmt("text_growth_x = %.6f x (geomean over %zu outputs)", Growth,
             C0.N + C2.N));

  if (!A.Trace)
    return true;
  R.layer("mcc.compile_analysis_ms", "ms",
          selfMedianMs(Log, "mcc.compile_analysis"));
  R.layer("atom.analysis_unit_ms", "ms",
          selfMedianMs(Log, "atom.analysis_unit"));
  R.layer("om.lift_app_ms", "ms", selfMedianMs(Log, "om.lift_app"));
  R.layer("atom.instrument_ms", "ms", selfMedianMs(Log, "atom.instrument"));
  R.layer("atom.run_self_ms", "ms", selfMedianMs(Log, "atom.run"));
  R.layer("atom.points", "count", C0.Points + C2.Points);
  R.layer("atom.inserted_insts", "count", C0.Inserted + C2.Inserted);
  R.layer("atom.save_slots", "count", C0.SaveSlots + C2.SaveSlots);
  R.layer("atom.wrappers", "count", C0.Wrappers + C2.Wrappers);
  R.layer("atom.probe_inlined_sites", "count", C0.Inlined + C2.Inlined);
  R.layer("atom.probe_guarded_sites", "count", C0.Guarded + C2.Guarded);
  R.layer("atom.probe_args_elided", "count", C0.ArgsElided + C2.ArgsElided);
  R.layer("atom.probe_rejects", "count", C0.Rejects + C2.Rejects);
  R.layer("atom.text_growth_x", "x", Growth);
  R.layer("mcc.compile_app_ms", "ms", selfMedianMs(Log, "mcc.compile_app"));
  R.layer("link.app_ms", "ms", selfMedianMs(Log, "link.app"));
  if (!Log.write(A.OutDir + fmt("/spans-instrument-%llu.json",
                                 (unsigned long long)A.Seed)))
    R.note("could not write the span log");
  return true;
}

} // namespace

bool runInstrumentWorkload(const Args &A, Result &R) {
  return InstrumentBench(A, R).run();
}

} // namespace perfbench
