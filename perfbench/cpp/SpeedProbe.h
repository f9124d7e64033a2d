//===- perfbench/cpp/SpeedProbe.h - Core-speed sampling ---------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On a shared VM the throughput of a vCPU moves by more than 2x within
/// seconds, with whatever the host runs on the same physical core. A
/// SpeedProbe measures that while a job runs: a thread pinned to the job's
/// CPU wakes every 10 ms and times a fixed burst of multiply-xor chains
/// (about 0.13 ms on an idle core). The job runner pins itself to the same
/// CPUs, so every burst samples the core the job is using at that moment.
/// Multiplying a job's host time by ReferenceBurstNs over the median burst
/// during the job gives its host time on a core running at the reference
/// speed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPEEDPROBE_H
#define PERFBENCH_SPEEDPROBE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <pthread.h>
#include <thread>
#include <vector>

namespace perfbench {

/// Nominal duration of one burst on an uncontended core: a round figure
/// near the fastest bursts on the 4-vCPU Xeon VM the baseline was measured
/// on (128-134 us).
constexpr double ReferenceBurstNs = 125000.0;

/// Times one fixed burst on the calling thread; returns nanoseconds.
double timeBurstNs();

class SpeedProbe {
public:
  /// Starts the sampling thread pinned to \p Cpu.
  explicit SpeedProbe(int Cpu);
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe &) = delete;
  SpeedProbe &operator=(const SpeedProbe &) = delete;

  /// Median burst duration of the samples started in [StartNs, EndNs)
  /// (hostNowNs() clock); 0 when there are none.
  double medianBurstNs(uint64_t StartNs, uint64_t EndNs) const;
  /// CPU seconds the sampling thread has used so far.
  double cpuSeconds() const;

private:
  void loop(int Cpu);

  mutable std::mutex Lock; ///< Guards Samples.
  std::vector<std::pair<uint64_t, double>> Samples; ///< (start, ns).
  std::atomic<bool> Stop{false};
  std::atomic<bool> Pinned{false};
  /// Declared after the members its loop uses.
  std::thread Worker;
  pthread_t Handle; ///< Worker's, for its CPU clock.
};

/// Pins the calling thread (and threads it creates later) to \p Cpus.
/// Returns false when the kernel refuses.
bool pinTo(const std::vector<int> &Cpus);

} // namespace perfbench

#endif // PERFBENCH_SPEEDPROBE_H
