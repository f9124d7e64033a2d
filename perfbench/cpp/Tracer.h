//===- perfbench/cpp/Tracer.h - Host-clock spans and a GC timing proxy ----===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's instruments, all outside the program: a span recorder
/// (name, start, end, parent on the host steady_clock, kept in memory and
/// written out once at exit) and a heap::GcHost proxy that times every
/// collection request a heap makes and forwards it, unchanged, to the
/// real collector.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include "core/Runtime.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

namespace core = panthera::core;
namespace heap = panthera::heap;

/// Host steady-clock nanoseconds since the first call in this process.
uint64_t hostNowNs();

/// One closed span. Parent 0 means a root span.
struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint32_t Job = 0;
  std::string Name;
  std::string Detail;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
};

/// In-memory span log. begin/end nest on the driver thread; record() may
/// be called from any thread (GC requests can come from pool workers) and
/// parents its span under the driver thread's innermost open span.
class Tracer {
public:
  void setJob(uint32_t J) { Job = J; }

  uint64_t begin(std::string Name, std::string Detail = "");
  void end(uint64_t Id);

  /// Records a finished span under the innermost span open on the driver
  /// thread.
  void record(std::string Name, std::string Detail, uint64_t StartNs,
              uint64_t EndNs);

  std::vector<Span> spans() const;
  /// Writes {"spans": [...]} with one object per span.
  bool writeJson(const std::string &Path) const;

private:
  mutable std::mutex Lock; ///< Guards Spans, Open, NextId.
  std::vector<Span> Spans;
  std::vector<size_t> Open; ///< Indices into Spans of open spans.
  uint64_t NextId = 1;
  std::atomic<uint64_t> Current{0};
  uint32_t Job = 0;
};

/// RAII span; a no-op when the tracer is null (the untraced run).
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, std::string Name, std::string Detail = "")
      : T(T), Id(T ? T->begin(std::move(Name), std::move(Detail)) : 0) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer *T;
  uint64_t Id;
};

/// Host-clock totals a GcTimingHost collected.
struct GcHostStats {
  uint64_t MinorCalls = 0;
  uint64_t MajorCalls = 0;
  uint64_t Safepoints = 0;
  uint64_t TotalNs = 0;
};

/// Forwards every heap::GcHost call to \p Target and times the collect
/// calls. A pool worker may ask for a collection, so the statistics are
/// guarded by a lock and the span goes under the driver thread's open span.
class GcTimingHost final : public heap::GcHost {
public:
  GcTimingHost(heap::GcHost &Target, Tracer *T) : Target(Target), T(T) {}

  void collectMinor(const char *Reason) override;
  void collectMajor(const char *Reason) override;
  void allocationSafepoint() override {
    Safepoints.fetch_add(1, std::memory_order_relaxed);
    Target.allocationSafepoint();
  }

  GcHostStats stats() const;

private:
  template <typename Fn> void timed(bool Major, Fn &&Forward);

  heap::GcHost &Target;
  Tracer *T;
  std::atomic<uint64_t> Safepoints{0};
  mutable std::mutex Lock; ///< Guards S.
  GcHostStats S;
};

/// Installs timing proxies on the runtime's driver heap and on every
/// executor heap, forwarding to RT.collector(), and restores the previous
/// hosts on destruction. Executor heaps hold only native shuffle blocks
/// and have no host of their own, so any call through one of their
/// proxies is counted apart (executorCalls()): the run treats it as a
/// failure because forwarding it would collect the driver heap.
class GcProxyInstall {
public:
  GcProxyInstall(core::Runtime &RT, Tracer *T);
  ~GcProxyInstall();
  GcProxyInstall(const GcProxyInstall &) = delete;
  GcProxyInstall &operator=(const GcProxyInstall &) = delete;

  const GcTimingHost &driver() const { return *Driver; }
  uint64_t executorCalls() const;

private:
  core::Runtime &RT;
  std::unique_ptr<GcTimingHost> Driver;
  std::vector<std::unique_ptr<GcTimingHost>> Executors;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
