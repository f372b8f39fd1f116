#include "perfbench/src/probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

namespace {

std::atomic<std::uint64_t> g_allocations{0};
const perfbench::Clock::time_point g_process_start = perfbench::Clock::now();

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// The counting allocator: every operator new in the process, server threads
// included, bumps one relaxed counter.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

Clock::time_point ProcessStart() { return g_process_start; }

std::uint64_t AllocationCount() { return g_allocations.load(std::memory_order_relaxed); }

std::uint64_t IoSyscallCount() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  std::uint64_t total = 0;
  while (in >> key >> value) {
    if (key == "syscr:" || key == "syscw:") {
      total += value;
    }
  }
  return total;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50); }

double SupportedTailPercentile(std::size_t samples) {
  for (double p : {99.0, 90.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) {
      return p;
    }
  }
  return 0;
}

std::string ResultJson(const RunResult& result) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    double value = std::isfinite(metric.value) ? metric.value : 0.0;
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
       << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
