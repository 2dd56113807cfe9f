//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// The pieces every workload shares: the command line, the result document
// (end-to-end and per-layer metrics plus a human-readable report), the
// in-memory span log of the traced run, order statistics, and the suite
// build that every workload's setup starts with.
//
// Spans are recorded only around calls into the program's public
// functions, from this directory's code: the program itself is unchanged.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "obj/ObjectModule.h"
#include "sim/Machine.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir; ///< Where span logs and run records are written.
};

/// Monotonic nanoseconds (steady_clock).
int64_t nowNs();

inline double nsToMs(int64_t Ns) { return double(Ns) / 1e6; }
inline double nsToS(int64_t Ns) { return double(Ns) / 1e9; }

/// One timed interval at a layer boundary. Spans of one request (one
/// runAtom, one program run, one daemon request) share Request.
struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int64_t Parent = -1; ///< Index into the log, or -1 for a root.
  uint64_t Request = 0;
};

/// Spans kept in memory for the whole run and written out at the end.
/// Safe for concurrent use (the atomd workload records from two client
/// threads). A disabled log records nothing and costs one branch.
class SpanLog {
public:
  void enable(bool On) { Enabled = On; }

  /// Opens a span; returns its index (or -1 when disabled).
  int64_t open(const char *Name, uint64_t Request, int64_t Parent = -1);
  void close(int64_t Idx);

  /// Self time of every span (duration minus the union of its children's
  /// intervals), grouped by span name, in milliseconds.
  std::map<std::string, std::vector<double>> selfTimesMs() const;

  /// Writes every span as one JSON document.
  bool write(const std::string &Path) const;

private:
  bool Enabled = false;
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span around one call into a layer.
class Scope {
public:
  Scope(SpanLog &L, const char *Name, uint64_t Request, int64_t Parent = -1)
      : L(L), Idx(L.open(Name, Request, Parent)) {}
  ~Scope() { L.close(Idx); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  int64_t index() const { return Idx; }

private:
  SpanLog &L;
  int64_t Idx;
};

/// Value at quantile \p Q (0..1) of \p Xs, linearly interpolated between
/// order statistics. 0 for an empty sample.
double quantile(std::vector<double> Xs, double Q);
inline double median(const std::vector<double> &Xs) {
  return quantile(Xs, 0.5);
}

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
};

/// Everything one run reports.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;      ///< Failed or wrong-output operations.
  bool SelfCheckOk = true;  ///< Deterministic figures repeated exactly.
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  std::vector<std::string> Report; ///< Human-readable lines.

  void e2e(const std::string &Name, const std::string &Unit, double V) {
    EndToEnd.push_back({Name, Unit, V});
  }
  void layer(const std::string &Name, const std::string &Unit, double V) {
    PerLayer.push_back({Name, Unit, V});
  }
  void note(const std::string &Line) { Report.push_back(Line); }
  /// Records one failed check with its reason.
  void fail(const std::string &Why);
  /// Records a deterministic figure that did not repeat.
  void selfCheckFail(const std::string &Why);
};

/// Timings of one measurement segment: the whole run when untraced; the
/// untraced and the traced half of a traced run. Every workload pushes
/// its batch through its layer in passes, alternately all O0 and all O2
/// requests (the `run` workload adds a pass of the plain applications).
struct Timing {
  std::vector<double> OpMs;    ///< Latency of every operation.
  std::vector<double> O0PassS; ///< Seconds of each completed O0 pass.
  std::vector<double> O2PassS; ///< Seconds of each completed O2 pass.
  double BusyS = 0;            ///< Seconds spent in timed passes.
  double SetupS = 0;           ///< Median of the repeated setups.
  /// Host-speed normalization (Calibration::scale) applied to every
  /// reported time.
  double Scale = 1;

  double opsPerS() const {
    return BusyS > 0 ? double(OpMs.size()) / BusyS : 0;
  }
};

/// The speed of the host while a segment ran, measured by a fixed CPU
/// workload (container churn, sorting, hashing; benchmark code only, so
/// no change to the program moves it) sampled between the timed passes.
/// On a shared host, other tenants slow everything by a common factor that
/// drifts over minutes; dividing it out keeps the reported times
/// comparable between runs. The fastest sample estimates the speed, as
/// the fastest repetition does for each operation.
class Calibration {
public:
  /// \p Threads copies of the kernel run at once per sample, and a sample
  /// is their mean time: a workload that keeps several CPUs busy runs at
  /// their average speed, and on a shared host the CPUs' speeds differ.
  /// \p ReferenceMs is the sample on the reference host speed (about the
  /// fastest seen on a quiet 4-vCPU VM); a host time t is reported as
  /// t * scale().
  Calibration(unsigned Threads, double ReferenceMs)
      : Threads(Threads), ReferenceMs(ReferenceMs) {}

  /// Takes \p N samples.
  void sample(unsigned N = 2);
  double scale() const { return Best > 0 ? ReferenceMs / Best : 1; }
  /// One report line: the fastest sample, the reference and the scale.
  std::string note() const;

private:
  unsigned Threads;
  double ReferenceMs;
  double Best = 0;
};

/// Min-of-N host times. Every operation (one key per executable or request
/// of a group) repeats once per cycle; its time is the fastest repetition,
/// which filters interference from other tenants of the host. A group's
/// pass time is the sum of its operations' times.
class BestOf {
public:
  /// Group: 0 = plain applications, 1 = O0, 2 = O2.
  void add(int Group, size_t Key, double Ms);
  double groupS(int Group) const;
  /// Fills OpMs, O0PassS, O2PassS and BusyS of \p T.
  void fill(Timing &T) const;
  size_t samples() const { return Samples; }

private:
  std::map<std::pair<int, size_t>, double> Min;
  size_t Samples = 0;
};

/// Adds the end-to-end metrics of \p T to R.EndToEnd and the report. With
/// \p Traced, also adds each metric's traced-minus-untraced difference as
/// a trace_overhead.* per-layer metric.
void reportTiming(Result &R, const Timing &T, const Timing *Traced);

/// FNV-1a of this process's executable image: runs of the same build share
/// it, so they may share records of deterministic results.
std::string buildIdentity();

/// Deterministic figures of one pass. Every pass of a run must produce
/// the same map, and runs of the same binary must agree with the record
/// the first run left in Args::OutDir.
class Determinism {
public:
  void observe(const std::string &Name, double V, Result &R);
  /// Compares against, or creates, the cross-run record of A.Workload.
  void checkAcrossRuns(const Args &A, Result &R) const;
  double get(const std::string &Name) const;

private:
  std::map<std::string, double> Values;
};

/// The 20 workload applications, built through the public toolchain steps
/// (mcc::compile, then link::linkExecutable with the runtime library),
/// which is byte-identical to atom::buildApplication.
struct Suite {
  std::vector<std::string> Names;
  std::vector<atom::obj::Executable> Apps;
  std::vector<std::string> ExpectedStdout;
};

/// Builds the suite, recording mcc.compile_app and link.app spans. Exits
/// with an error if any application fails to build.
Suite buildSuite(SpanLog &Log);

/// The time share of one timed loop. The loop always completes its first
/// cycle (its O0 and O2 passes, or one cold daemon), then starts another
/// only while that one is expected to end closer to the deadline than
/// stopping now.
class Budget {
public:
  explicit Budget(double Seconds) : Start(nowNs()), Seconds(Seconds) {}

  /// Call at the end of every cycle.
  bool another() {
    double Now = nsToS(nowNs() - Start);
    double Cycle = Now - LastEnd;
    LastEnd = Now;
    return Now + Cycle / 2 < Seconds;
  }

private:
  int64_t Start;
  double Seconds;
  double LastEnd = 0;
};

/// Median self time of the spans named \p Name, in ms (0 if none).
double selfMedianMs(const SpanLog &Log, const std::string &Name);

/// Names the resolved MachineOptions of the default tier, for the report.
std::string machineOptionsStamp(const atom::sim::MachineOptions &O);

/// Shuffles \p V with a generator seeded from --seed.
template <typename T> void seededShuffle(std::vector<T> &V, uint64_t Seed) {
  std::mt19937_64 G(Seed);
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[size_t(G() % I)]);
}

std::string fmt(const char *Format, ...)
    __attribute__((format(printf, 1, 2)));

// The three workloads. Each fills \p R; a false return means the workload
// could not run at all (the caller prints no result).
bool runInstrumentWorkload(const Args &A, Result &R);
bool runRunWorkload(const Args &A, Result &R);
bool runAtomdWorkload(const Args &A, Result &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
