//===- perfbench/cpp/main.cpp - One workload's job loop -------------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Runs one benchmark workload as a closed loop with one client: each job
/// (a fresh Runtime running the workload's program) starts when the
/// previous one has finished. Prints one JSON line per event on stdout:
///
///   {"kind": "expected", ...}  the checksum every job must produce
///   {"kind": "job", ...}       one finished (or failed) job
///   {"kind": "end"}
///
/// run.py aggregates the lines, enforces the per-job wall limit and checks
/// the outputs.
///
/// Usage:
///   perfbench_jobs --workload=NAME [--seed=N] --expected
///   perfbench_jobs --workload=NAME [--seed=N] --seconds=S [--trace=0|1]
///                  [--spans=FILE]
///
/// --expected prints only the "expected" line and exits. run.py runs it in
/// a process of its own, so the host reference or the plain-configuration
/// job it needs does not count in the job loop's peak resident memory.
/// Jobs run at BenchScale of the shipped datasets.
///
/// The runner pins itself to the highest-numbered CPUs it may use, one per
/// worker thread of the workload's configuration, and samples each one's
/// speed with a SpeedProbe; every job line carries the median probe burst
/// during the job ("burst_ns") and during set-up plus job
/// ("window_burst_ns").
///
/// --trace=1 alternates untraced and traced jobs; traced jobs record
/// host-clock spans (written to --spans at exit) and time every GC
/// request through a forwarding heap::GcHost proxy.
///
//===----------------------------------------------------------------------===//

#include "Jobs.h"

#include "support/CliParse.h"
#include "support/Errors.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <malloc.h>
#include <memory>
#include <sched.h>
#include <string>
#include <vector>

using namespace panthera;
using namespace perfbench;

/// Mean over the CPUs of each probe's median burst in [From, To); 0 when
/// a probe has no sample there.
static double burstNs(const std::vector<std::unique_ptr<SpeedProbe>> &Probes,
                      uint64_t From, uint64_t To) {
  double Sum = 0.0;
  for (const auto &P : Probes) {
    double Ns = P->medianBurstNs(From, To);
    if (Ns == 0.0)
      return 0.0;
    Sum += Ns;
  }
  return Probes.empty() ? 0.0 : Sum / static_cast<double>(Probes.size());
}

static void printJob(uint32_t Index, bool Warmup, bool Traced,
                     const JobResult &R,
                     const std::vector<std::unique_ptr<SpeedProbe>> &Probes) {
  auto D = [](double V) { return support::jsonDouble(V); };
  std::string Line = "{\"kind\": \"job\", \"index\": " + std::to_string(Index) +
                     ", \"warmup\": " + (Warmup ? "true" : "false") +
                     ", \"traced\": " + (Traced ? "true" : "false") +
                     ", \"setup_s\": " + D(R.SetupS) +
                     ", \"ctor_s\": " + D(R.CtorS) +
                     ", \"install_s\": " + D(R.InstallS) +
                     ", \"datagen_s\": " + D(R.DatagenS) +
                     ", \"job_s\": " + D(R.JobS) + ", \"cpu_s\": " + D(R.CpuS) +
                     ", \"burst_ns\": " +
                     D(burstNs(Probes, R.JobStartNs, R.JobEndNs)) +
                     ", \"window_burst_ns\": " +
                     D(burstNs(Probes, R.SetupStartNs, R.JobEndNs)) +
                     ", \"records\": " + std::to_string(R.Records) +
                     ", \"checksum\": " + D(R.Checksum);
  if (Traced)
    Line += ", \"gc_host\": {\"minor_calls\": " +
            std::to_string(R.Gc.MinorCalls) +
            ", \"major_calls\": " + std::to_string(R.Gc.MajorCalls) +
            ", \"safepoints\": " + std::to_string(R.Gc.Safepoints) +
            ", \"host_ns\": " + std::to_string(R.Gc.TotalNs) +
            ", \"executor_calls\": " + std::to_string(R.ExecutorGcCalls) +
            "}";
  Line += ", \"registry\": {";
  bool First = true;
  for (const auto &[Name, V] : R.Registry) {
    Line += (First ? "\"" : ", \"") + support::jsonEscape(Name) +
            "\": " + D(V);
    First = false;
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}

/// The highest-numbered CPUs this process may use, one per worker thread
/// (fewer when fewer are allowed).
static std::vector<int> jobCpus(unsigned Threads) {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  std::vector<int> Cpus;
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return Cpus;
  for (int C = CPU_SETSIZE - 1; C >= 0 && Cpus.size() < Threads; --C)
    if (CPU_ISSET(C, &Allowed))
      Cpus.push_back(C);
  return Cpus;
}

static void printFailure(uint32_t Index, bool Warmup, bool Traced,
                         const char *What) {
  std::printf("{\"kind\": \"job\", \"index\": %u, \"warmup\": %s, "
              "\"traced\": %s, \"error\": \"%s\"}\n",
              Index, Warmup ? "true" : "false", Traced ? "true" : "false",
              support::jsonEscape(What).c_str());
  std::fflush(stdout);
}

/// Prints the checksum every job must reproduce: a host-side reference from
/// the same generated input, or the plain configuration's job.
static int printExpected(const Workload &W, const JobOptions &O) {
  double Expected = 0.0, Tolerance = 0.0;
  const char *Source = "host reference";
  try {
    JobInput In = generateInput(W, O, jobConfig(W, O).Engine.NumPartitions);
    if (!referenceChecksum(W, In, Expected, Tolerance)) {
      JobOptions Plain = O;
      Plain.Plain = true;
      Expected = runJob(W, Plain).Checksum;
      Source = "plain configuration";
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "cannot compute the expected checksum: %s\n",
                 E.what());
    return 2;
  }
  std::printf("{\"kind\": \"expected\", \"workload\": \"%s\", \"seed\": %llu, "
              "\"checksum\": %s, \"rel_tolerance\": %s, \"source\": \"%s\", "
              "\"reference_burst_ns\": %s}\n",
              W.Name, static_cast<unsigned long long>(O.Seed),
              support::jsonDouble(Expected).c_str(),
              support::jsonDouble(Tolerance).c_str(), Source,
              support::jsonDouble(ReferenceBurstNs).c_str());
  return 0;
}

int main(int Argc, char **Argv) {
  std::string Name, SpansPath;
  uint64_t Seed = 0;
  bool SeedGiven = false, Trace = false, ExpectedOnly = false;
  double Seconds = -1.0;
  JobOptions O;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    auto Val = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return std::strncmp(A, Prefix, N) == 0 ? A + N : nullptr;
    };
    uint64_t U = 0;
    bool Ok = true;
    if (const char *V = Val("--workload="))
      Name = V;
    else if (const char *V = Val("--seed=")) {
      Ok = support::parseUnsigned(V, 0, 1ull << 62, Seed);
      SeedGiven = true;
    } else if (const char *V = Val("--seconds="))
      Ok = support::parseF64(V, 0.0, 3600.0, Seconds);
    else if (const char *V = Val("--trace=")) {
      Ok = support::parseUnsigned(V, 0, 1, U);
      Trace = U == 1;
    } else if (const char *V = Val("--spans="))
      SpansPath = V;
    else if (std::strcmp(A, "--expected") == 0)
      ExpectedOnly = true;
    else
      Ok = false;
    if (!Ok) {
      std::fprintf(stderr, "bad argument '%s'\n", A);
      return 1;
    }
  }
  const Workload *W = findBenchWorkload(Name);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'\n", Name.c_str());
    return 1;
  }
  O.Seed = SeedGiven ? Seed : W->DefaultSeed;
  if (ExpectedOnly)
    return printExpected(*W, O);
  if (Seconds < 0.0) {
    std::fprintf(stderr, "--seconds=S is required\n");
    return 1;
  }
  std::vector<int> Cpus = jobCpus(jobConfig(*W, O).NumThreads);
  if (!pinTo(Cpus)) {
    std::fprintf(stderr, "cannot pin the job runner to its CPUs\n");
    return 1;
  }

  std::vector<std::unique_ptr<SpeedProbe>> Probes;
  for (int C : Cpus)
    Probes.push_back(std::make_unique<SpeedProbe>(C));
  O.Probes = &Probes;
  Tracer Spans;
  auto Start = std::chrono::steady_clock::now();
  // Job 0 warms caches and lazy set-up and is not timed. The loop then
  // alternates untraced and traced jobs under --trace=1.
  for (uint32_t Index = 0;; ++Index) {
    bool Warmup = Index == 0;
    if (Index == 1)
      Start = std::chrono::steady_clock::now();
    double Elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    // At least two timed jobs (a traced and an untraced one under
    // --trace=1); then start jobs until the measuring window is spent.
    if (Index > 2 && Elapsed >= Seconds)
      break;
    bool Traced = Trace && Index % 2 == 0 && !Warmup;
    JobOptions JO = O;
    JO.Trace = Traced ? &Spans : nullptr;
    Spans.setJob(Index);
    // Hand the last job's freed memory back to the kernel, so every job
    // sets up from the same cold allocator state a fresh process has.
    // Otherwise set-up time flips between reusing warm pages and faulting
    // in new ones, and its median jumps between runs.
    malloc_trim(0);
    try {
      printJob(Index, Warmup, Traced, runJob(*W, JO), Probes);
    } catch (const std::exception &E) {
      printFailure(Index, Warmup, Traced, E.what());
    }
  }
  if (Trace && !SpansPath.empty() && !Spans.writeJson(SpansPath)) {
    std::fprintf(stderr, "cannot write spans to '%s'\n", SpansPath.c_str());
    return 2;
  }
  std::printf("{\"kind\": \"end\"}\n");
  return 0;
}
