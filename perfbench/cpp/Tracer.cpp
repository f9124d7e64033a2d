//===- perfbench/cpp/Tracer.cpp - Host-clock spans and a GC timing proxy --===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"

#include "support/Metrics.h"

#include <cassert>
#include <chrono>
#include <cstdio>

using namespace panthera;
using namespace perfbench;

uint64_t perfbench::hostNowNs() {
  static const auto Origin = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Origin)
          .count());
}

uint64_t Tracer::begin(std::string Name, std::string Detail) {
  uint64_t Now = hostNowNs();
  std::lock_guard<std::mutex> G(Lock);
  Span S;
  S.Id = NextId++;
  S.Parent = Open.empty() ? 0 : Spans[Open.back()].Id;
  S.Job = Job;
  S.Name = std::move(Name);
  S.Detail = std::move(Detail);
  S.StartNs = Now;
  Open.push_back(Spans.size());
  Spans.push_back(std::move(S));
  Current.store(Spans.back().Id, std::memory_order_release);
  return Spans.back().Id;
}

void Tracer::end(uint64_t Id) {
  uint64_t Now = hostNowNs();
  std::lock_guard<std::mutex> G(Lock);
  assert(!Open.empty() && Spans[Open.back()].Id == Id &&
         "spans must close innermost-first");
  (void)Id;
  Spans[Open.back()].EndNs = Now;
  Open.pop_back();
  Current.store(Open.empty() ? 0 : Spans[Open.back()].Id,
                std::memory_order_release);
}

void Tracer::record(std::string Name, std::string Detail, uint64_t StartNs,
                    uint64_t EndNs) {
  std::lock_guard<std::mutex> G(Lock);
  Span S;
  S.Id = NextId++;
  S.Parent = Current.load(std::memory_order_acquire);
  S.Job = Job;
  S.Name = std::move(Name);
  S.Detail = std::move(Detail);
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  Spans.push_back(std::move(S));
  // Spans.push_back may reallocate; Open holds indices, so it stays valid.
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> G(Lock);
  return Spans;
}

bool Tracer::writeJson(const std::string &Path) const {
  std::vector<Span> All = spans();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"clock\": \"host steady_clock ns\", \"spans\": [\n");
  for (size_t I = 0; I != All.size(); ++I) {
    const Span &S = All[I];
    std::fprintf(F,
                 "  {\"id\": %llu, \"parent\": %llu, \"job\": %u, "
                 "\"name\": \"%s\", \"detail\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu}%s\n",
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent), S.Job,
                 support::jsonEscape(S.Name).c_str(),
                 support::jsonEscape(S.Detail).c_str(),
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs),
                 I + 1 == All.size() ? "" : ",");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

template <typename Fn>
void GcTimingHost::timed(bool Major, Fn &&Forward) {
  uint64_t Start = hostNowNs();
  Forward();
  uint64_t End = hostNowNs();
  {
    std::lock_guard<std::mutex> G(Lock);
    ++(Major ? S.MajorCalls : S.MinorCalls);
    S.TotalNs += End - Start;
  }
  if (T)
    T->record("gc.collect", Major ? "major" : "minor", Start, End);
}

void GcTimingHost::collectMinor(const char *Reason) {
  timed(/*Major=*/false, [&] { Target.collectMinor(Reason); });
}

void GcTimingHost::collectMajor(const char *Reason) {
  timed(/*Major=*/true, [&] { Target.collectMajor(Reason); });
}

GcHostStats GcTimingHost::stats() const {
  std::lock_guard<std::mutex> G(Lock);
  GcHostStats Copy = S;
  Copy.Safepoints = Safepoints.load(std::memory_order_relaxed);
  return Copy;
}

GcProxyInstall::GcProxyInstall(core::Runtime &RT, Tracer *T) : RT(RT) {
  Driver = std::make_unique<GcTimingHost>(RT.collector(), T);
  RT.heap().setGcHost(Driver.get());
  if (cluster::Cluster *CL = RT.clusterSim())
    for (unsigned I = 0; I != CL->numExecutors(); ++I) {
      Executors.push_back(std::make_unique<GcTimingHost>(RT.collector(), T));
      CL->executor(I).heap().setGcHost(Executors.back().get());
    }
}

GcProxyInstall::~GcProxyInstall() {
  RT.heap().setGcHost(&RT.collector());
  if (cluster::Cluster *CL = RT.clusterSim())
    for (unsigned I = 0; I != Executors.size(); ++I)
      CL->executor(I).heap().setGcHost(nullptr);
}

uint64_t GcProxyInstall::executorCalls() const {
  uint64_t N = 0;
  for (const auto &P : Executors) {
    GcHostStats S = P->stats();
    N += S.MinorCalls + S.MajorCalls + S.Safepoints;
  }
  return N;
}
