//===- perfbench/src/Common.cpp -------------------------------------------===//

#include "Common.h"

#include "link/Linker.h"
#include "mcc/Compiler.h"
#include "obs/Obs.h"
#include "runtime/Runtime.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>
#include <unordered_map>

using namespace atom;

namespace perfbench {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string fmt(const char *Format, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Format);
  int N = std::vsnprintf(Buf, sizeof(Buf), Format, Ap);
  va_end(Ap);
  if (N < 0)
    return std::string();
  if (size_t(N) < sizeof(Buf))
    return std::string(Buf, size_t(N));
  std::string Out(size_t(N) + 1, '\0');
  va_start(Ap, Format);
  std::vsnprintf(Out.data(), Out.size(), Format, Ap);
  va_end(Ap);
  Out.resize(size_t(N));
  return Out;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

int64_t SpanLog::open(const char *Name, uint64_t Request, int64_t Parent) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Request = Request;
  S.Parent = Parent;
  std::lock_guard<std::mutex> L(Mu);
  S.StartNs = nowNs();
  Spans.push_back(std::move(S));
  return int64_t(Spans.size() - 1);
}

void SpanLog::close(int64_t Idx) {
  if (Idx < 0)
    return;
  int64_t End = nowNs();
  std::lock_guard<std::mutex> L(Mu);
  Spans[size_t(Idx)].EndNs = End;
}

std::map<std::string, std::vector<double>> SpanLog::selfTimesMs() const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<std::vector<size_t>> Children(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[size_t(Spans[I].Parent)].push_back(I);
  std::map<std::string, std::vector<double>> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<int64_t, int64_t>> Iv;
    for (size_t C : Children[I])
      Iv.push_back({std::max(Spans[C].StartNs, S.StartNs),
                    std::min(Spans[C].EndNs, S.EndNs)});
    std::sort(Iv.begin(), Iv.end());
    int64_t Covered = 0, Lo = 0, Hi = -1;
    for (const auto &[A, B] : Iv) {
      if (B <= A)
        continue;
      if (A > Hi) {
        if (Hi > Lo)
          Covered += Hi - Lo;
        Lo = A;
        Hi = B;
      } else {
        Hi = std::max(Hi, B);
      }
    }
    if (Hi > Lo)
      Covered += Hi - Lo;
    Out[S.Name].push_back(nsToMs(S.EndNs - S.StartNs - Covered));
  }
  return Out;
}

bool SpanLog::write(const std::string &Path) const {
  obs::JsonWriter W;
  W.beginObject();
  W.key("spans");
  W.beginArray();
  {
    std::lock_guard<std::mutex> L(Mu);
    for (const Span &S : Spans) {
      W.beginObject();
      W.key("name");
      W.value(S.Name);
      W.key("start_ns");
      W.value(S.StartNs);
      W.key("end_ns");
      W.value(S.EndNs);
      W.key("parent");
      W.value(S.Parent);
      W.key("request");
      W.value(S.Request);
      W.endObject();
    }
  }
  W.endArray();
  W.endObject();
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << W.take() << "\n";
  return bool(Out);
}

double selfMedianMs(const SpanLog &Log, const std::string &Name) {
  auto All = Log.selfTimesMs();
  auto It = All.find(Name);
  return It == All.end() ? 0 : median(It->second);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double quantile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  double Pos = Q * double(Xs.size() - 1);
  size_t Lo = size_t(Pos);
  if (Lo + 1 >= Xs.size())
    return Xs.back();
  double Frac = Pos - double(Lo);
  return Xs[Lo] + (Xs[Lo + 1] - Xs[Lo]) * Frac;
}

//===----------------------------------------------------------------------===//
// Results and self-checks
//===----------------------------------------------------------------------===//

void Result::fail(const std::string &Why) {
  ++Failed;
  // Keep the report readable when one defect fails every operation.
  if (Failed <= 20)
    note("FAILED: " + Why);
}

void Result::selfCheckFail(const std::string &Why) {
  SelfCheckOk = false;
  note("SELF-CHECK FAILED: " + Why);
}

namespace {

std::vector<Metric> timingMetrics(const Timing &T, double Scale) {
  return {{"setup_s", "s", T.SetupS * Scale},
          {"op_ms_p50", "ms", quantile(T.OpMs, 0.5) * Scale},
          {"op_ms_p99", "ms", quantile(T.OpMs, 0.99) * Scale},
          {"ops_per_s", "1/s", T.opsPerS() / Scale},
          {"o0_pass_s", "s", median(T.O0PassS) * Scale},
          {"o2_pass_s", "s", median(T.O2PassS) * Scale}};
}

} // namespace

void BestOf::add(int Group, size_t Key, double Ms) {
  ++Samples;
  auto [It, New] = Min.emplace(std::make_pair(Group, Key), Ms);
  if (!New)
    It->second = std::min(It->second, Ms);
}

double BestOf::groupS(int Group) const {
  double Ms = 0;
  for (const auto &[K, V] : Min)
    if (K.first == Group)
      Ms += V;
  return Ms / 1e3;
}

void BestOf::fill(Timing &T) const {
  T.OpMs.clear();
  for (const auto &[K, V] : Min)
    T.OpMs.push_back(V);
  T.O0PassS = {groupS(1)};
  T.O2PassS = {groupS(2)};
  T.BusyS = groupS(0) + groupS(1) + groupS(2);
}

void reportTiming(Result &R, const Timing &T, const Timing *Traced) {
  std::vector<Metric> Mine = timingMetrics(T, T.Scale);
  for (const Metric &M : Mine)
    R.e2e(M.Name, M.Unit, M.Value);
  std::string Raw = "unnormalized:";
  for (const Metric &M : timingMetrics(T, 1))
    Raw += fmt(" %s %.6g %s;", M.Name.c_str(), M.Value, M.Unit.c_str());
  R.note(Raw);
  R.note(fmt("%zu operation times (the percentiles' sample), %.3f s busy",
             T.OpMs.size(), T.BusyS));
  for (const auto &[Name, Passes] :
       {std::pair<const char *, const std::vector<double> *>{"O0", &T.O0PassS},
        {"O2", &T.O2PassS}}) {
    std::string Line = fmt("%s pass seconds:", Name);
    for (double S : *Passes)
      Line += fmt(" %.4f", S);
    R.note(Line);
  }
  if (!Traced)
    return;
  R.layer("bench.host_scale", "x", T.Scale);
  std::vector<Metric> Theirs = timingMetrics(*Traced, Traced->Scale);
  for (size_t I = 0; I < Mine.size(); ++I)
    R.layer("trace_overhead." + Mine[I].Name, Mine[I].Unit,
            Theirs[I].Value - Mine[I].Value);
  R.note(fmt("traced segment: %zu operation times", Traced->OpMs.size()));
}

void Determinism::observe(const std::string &Name, double V, Result &R) {
  auto [It, New] = Values.emplace(Name, V);
  if (!New && It->second != V)
    R.selfCheckFail(fmt("%s changed between passes: %.17g then %.17g",
                        Name.c_str(), It->second, V));
}

double Determinism::get(const std::string &Name) const {
  auto It = Values.find(Name);
  return It == Values.end() ? 0 : It->second;
}

std::string buildIdentity() {
  std::ifstream In("/proc/self/exe", std::ios::binary);
  uint64_t H = 0xcbf29ce484222325ull;
  char Buf[1 << 16];
  while (In.read(Buf, sizeof(Buf)) || In.gcount() > 0) {
    for (std::streamsize I = 0; I < In.gcount(); ++I) {
      H ^= uint8_t(Buf[I]);
      H *= 0x100000001b3ull;
    }
  }
  return fmt("%016llx", (unsigned long long)H);
}

void Determinism::checkAcrossRuns(const Args &A, Result &R) const {
  std::string Path = A.OutDir + "/determinism-" + A.Workload + ".txt";
  std::string Id = buildIdentity();
  std::ostringstream Mine;
  Mine << Id << "\n";
  for (const auto &[Name, V] : Values)
    Mine << Name << " " << fmt("%.17g", V) << "\n";

  std::ifstream In(Path, std::ios::binary);
  if (In) {
    std::string Prev((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    if (Prev.compare(0, Id.size() + 1, Id + "\n") == 0) {
      if (Prev != Mine.str())
        R.selfCheckFail("deterministic figures differ from the record an "
                        "earlier run of this build left in " +
                        Path);
      return;
    }
  }
  // First run of this build: leave the record for later runs.
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Mine.str();
}

//===----------------------------------------------------------------------===//
// Suite build
//===----------------------------------------------------------------------===//

Suite buildSuite(SpanLog &Log) {
  Suite S;
  if (!runtime::image().Ok) {
    std::fprintf(stderr, "runtime library failed to build: %s\n",
                 runtime::image().Error.c_str());
    std::exit(1);
  }
  uint64_t Req = 0;
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    DiagEngine Diags;
    ++Req;
    std::vector<obj::ObjectModule> Modules(1);
    bool Ok;
    {
      Scope Sp(Log, "mcc.compile_app", Req);
      Ok = mcc::compile(W.Source, "app", Modules[0], Diags);
    }
    obj::Executable Exe;
    if (Ok) {
      for (const obj::ObjectModule &M : runtime::modules())
        Modules.push_back(M);
      Scope Sp(Log, "link.app", Req);
      Ok = link::linkExecutable(Modules, Exe, Diags);
    }
    if (!Ok) {
      std::fprintf(stderr, "workload %s failed to build:\n%s", W.Name,
                   Diags.str().c_str());
      std::exit(1);
    }
    S.Names.push_back(W.Name);
    S.Apps.push_back(std::move(Exe));
    S.ExpectedStdout.push_back(W.ExpectedStdout ? W.ExpectedStdout : "");
  }
  return S;
}

namespace {

uint64_t calibrationKernel() {
  std::mt19937_64 G(12345);
  std::map<uint64_t, std::string> M;
  std::unordered_map<uint64_t, uint64_t> H;
  std::vector<uint64_t> V;
  for (uint64_t I = 0; I < 20000; ++I) {
    uint64_t K = G() % 50000;
    M[K] = std::to_string(K * 7919);
    H[K ^ I] += K;
    V.push_back(K * 2654435761u);
  }
  std::sort(V.begin(), V.end());
  uint64_t Acc = 0;
  for (const auto &[K, S] : M)
    Acc += S.size() + K;
  for (const auto &[K, X] : H)
    Acc ^= X + K;
  for (uint64_t X : V)
    Acc = Acc * 31 + X;
  return Acc;
}

} // namespace

void Calibration::sample(unsigned N) {
  auto timed = [] {
    int64_t T0 = nowNs();
    volatile uint64_t Sink = calibrationKernel();
    (void)Sink;
    return nsToMs(nowNs() - T0);
  };
  for (unsigned I = 0; I < N; ++I) {
    std::vector<double> Ms(Threads);
    std::vector<std::thread> Others;
    for (unsigned T = 1; T < Threads; ++T)
      Others.emplace_back([&Ms, &timed, T] { Ms[T] = timed(); });
    Ms[0] = timed();
    for (std::thread &T : Others)
      T.join();
    double Mean = 0;
    for (double M : Ms)
      Mean += M / double(Threads);
    Best = Best > 0 ? std::min(Best, Mean) : Mean;
  }
}

std::string Calibration::note() const {
  return fmt("host speed: calibration kernel (%u at once) %.4f ms at best, "
             "so times are scaled by %.4f to the %.1f ms reference",
             Threads, Best, scale(), ReferenceMs);
}

std::string machineOptionsStamp(const sim::MachineOptions &O) {
  return fmt("protection=%d strict-align=%d trap-div0=%d stack-max=%llu "
             "heap-max=%llu fast-path=%d dbt=%d dbt-threshold=%u",
             int(O.MemoryProtection), int(O.StrictAlignment),
             int(O.TrapOnDivideByZero), (unsigned long long)O.StackMaxBytes,
             (unsigned long long)O.HeapMaxBytes, int(O.EnableFastPath),
             int(O.EnableDbt), unsigned(O.DbtThreshold));
}

} // namespace perfbench
