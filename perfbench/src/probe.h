// Measurement plumbing for the benchmark binary: wall clocks, the
// deterministic counters reported beside them (heap allocations through a
// counting global operator new, read/write syscalls from /proc/self/io, peak
// RSS), percentiles, and the one-line JSON result.
#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }
inline double MicrosSince(Clock::time_point start) { return SecondsSince(start) * 1e6; }

// When the process started, as near as user code can see it: the first
// static initializer of the binary.
Clock::time_point ProcessStart();

// Heap allocations (operator new calls, every thread) since the process
// started.
std::uint64_t AllocationCount();

// Read and write syscalls of the whole process so far (/proc/self/io syscr +
// syscw); 0 when the file is unreadable.
std::uint64_t IoSyscallCount();

// ru_maxrss in megabytes.
double PeakRssMb();

// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

// The highest of p90/p99 that leaves at least ten samples beyond it, for the
// README's reference figures (0 when not even p90 qualifies).
double SupportedTailPercentile(std::size_t samples);

// One metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// What every run prints as its last standard-output line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};
std::string ResultJson(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
