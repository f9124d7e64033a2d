//===- perfbench/cpp/SpeedProbe.cpp - Core-speed sampling -----------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "SpeedProbe.h"

#include "Tracer.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <sched.h>

using namespace perfbench;

namespace {
/// Keeps the burst from being optimised out; one probe thread per CPU
/// stores to it.
std::atomic<uint64_t> BurstSink{0};
} // namespace

// Aligned so that the burst loop sits at the same offset from a cache-line
// boundary in every build: its speed depends on that offset (by ~40% on
// the 4-vCPU Xeon VM the baseline was measured on), and the rest of the
// binary moves whenever the program changes.
__attribute__((aligned(64), noinline)) double perfbench::timeBurstNs() {
  // Eight independent multiply-xor chains through a small stack array:
  // each step is a load, ALU work and a store, the mix of the simulator's
  // own inner loops, so the burst slows down with them when another
  // hardware thread competes for the core. (The same chains held in
  // registers barely slow down at all.)
  uint64_t Start = hostNowNs();
  uint64_t H[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int I = 0; I != 20000; ++I)
    for (uint64_t &X : H) {
      X ^= X >> 7;
      X *= 0x9E3779B97F4A7C15ull;
    }
  uint64_t End = hostNowNs();
  BurstSink.store(H[0] ^ H[7], std::memory_order_relaxed);
  return static_cast<double>(End - Start);
}

bool perfbench::pinTo(const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  return sched_setaffinity(0, sizeof(Set), &Set) == 0;
}

SpeedProbe::SpeedProbe(int Cpu)
    : Worker([this, Cpu] { loop(Cpu); }), Handle(Worker.native_handle()) {
  while (!Pinned.load(std::memory_order_acquire))
    std::this_thread::yield();
}

SpeedProbe::~SpeedProbe() {
  Stop.store(true, std::memory_order_release);
  Worker.join();
}

void SpeedProbe::loop(int Cpu) {
  pinTo({Cpu});
  Pinned.store(true, std::memory_order_release);
  while (!Stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    uint64_t At = hostNowNs();
    double Ns = timeBurstNs();
    std::lock_guard<std::mutex> G(Lock);
    Samples.emplace_back(At, Ns);
  }
}

double SpeedProbe::medianBurstNs(uint64_t StartNs, uint64_t EndNs) const {
  std::vector<double> In;
  {
    std::lock_guard<std::mutex> G(Lock);
    for (const auto &[At, Ns] : Samples)
      if (At >= StartNs && At < EndNs)
        In.push_back(Ns);
  }
  if (In.empty())
    return 0.0;
  auto Mid = In.begin() + In.size() / 2;
  std::nth_element(In.begin(), Mid, In.end());
  return *Mid;
}

double SpeedProbe::cpuSeconds() const {
  clockid_t Clock;
  timespec TS{};
  if (pthread_getcpuclockid(Handle, &Clock) != 0 ||
      clock_gettime(Clock, &TS) != 0)
    return 0.0;
  return static_cast<double>(TS.tv_sec) +
         1e-9 * static_cast<double>(TS.tv_nsec);
}
