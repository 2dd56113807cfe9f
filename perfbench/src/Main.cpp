//===- perfbench/src/Main.cpp - The repository benchmark -----------------===//
//
//   perfbench --workload instrument|run|atomd --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Runs one workload for S seconds, checks every output, prints a readable
// report, and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics; traced runs
// report the per-layer metrics (see README.md for the names).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "obs/Obs.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sys/stat.h>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload instrument|run|atomd --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               Msg);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  A.OutDir = ".bench_build/perfbench-out";
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + K).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (K == "--workload") {
      A.Workload = V;
      HaveWorkload = true;
    } else if (K == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        usage("--seed takes a whole number");
    } else if (K == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(A.Seconds > 0) || A.Seconds > 3600)
        usage("--seconds takes a positive number");
    } else if (K == "--trace") {
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      A.Trace = V == "1";
    } else if (K == "--out-dir") {
      A.OutDir = V;
    } else {
      usage(("unknown argument " + K).c_str());
    }
  }
  if (!HaveWorkload)
    usage("--workload is required");
  return A;
}

/// Each of these silently changes the measured program (and daemon
/// workers inherit them), so a run under any of them is refused.
bool environmentClean() {
  bool Clean = true;
  for (const char *Var : {"ATOM_SIM_DBT", "ATOMD_FAULTPOINTS", "ATOM_OPT"})
    if (std::getenv(Var)) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", Var);
      Clean = false;
    }
  return Clean;
}

bool makeDirs(const std::string &Path) {
  for (size_t P = Path.find('/', 1);; P = Path.find('/', P + 1)) {
    std::string Prefix = Path.substr(0, P);
    if (::mkdir(Prefix.c_str(), 0755) != 0 && errno != EEXIST)
      return false;
    if (P == std::string::npos)
      return true;
  }
}

void printResult(const Result &R, bool Trace) {
  const std::vector<Metric> &Ms = Trace ? R.PerLayer : R.EndToEnd;
  bool Finite = true;
  for (const Metric &M : Ms)
    Finite = Finite && std::isfinite(M.Value);
  atom::obs::JsonWriter W;
  W.beginObject();
  W.key("correct");
  W.value(R.Failed == 0 && R.SelfCheckOk && Finite);
  W.key("attempted");
  W.value(R.Attempted);
  W.key("failed");
  W.value(R.Failed);
  W.key("metrics");
  W.beginObject();
  for (const Metric &M : Ms) {
    W.key(M.Name);
    W.beginObject();
    W.key("value");
    W.value(std::isfinite(M.Value) ? M.Value : 0.0);
    W.key("unit");
    W.value(M.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  std::printf("%s\n", W.take().c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  if (!environmentClean())
    return 2;
  if (!makeDirs(A.OutDir)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", A.OutDir.c_str());
    return 1;
  }

  Result R;
  bool Ran;
  if (A.Workload == "instrument")
    Ran = runInstrumentWorkload(A, R);
  else if (A.Workload == "run")
    Ran = runRunWorkload(A, R);
  else if (A.Workload == "atomd")
    Ran = runAtomdWorkload(A, R);
  else
    usage(("unknown workload " + A.Workload).c_str());
  if (!Ran) {
    for (const std::string &L : R.Report)
      std::fprintf(stderr, "%s\n", L.c_str());
    std::fprintf(stderr, "perfbench: workload %s could not run\n",
                 A.Workload.c_str());
    return 1;
  }

  std::printf("== perfbench %s (seed %llu, %.0f s, trace %d)\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, A.Seconds,
              int(A.Trace));
  for (const std::string &L : R.Report)
    std::printf("%s\n", L.c_str());
  std::printf("failed_ratio = %.6f (%llu of %llu operations)\n",
              R.Attempted ? double(R.Failed) / double(R.Attempted) : 1.0,
              (unsigned long long)R.Failed, (unsigned long long)R.Attempted);
  for (const Metric &M : A.Trace ? R.PerLayer : R.EndToEnd)
    std::printf("%-40s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  printResult(R, A.Trace);
  return 0;
}
