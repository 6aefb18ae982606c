#include "host_facts.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>

#include "sjoin/engine/scoring_batch.h"

namespace perfbench {

HostFacts CurrentHost() {
  HostFacts facts;
  facts.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  facts.compiler =
      std::string(PERFBENCH_COMPILER_ID) + " " + PERFBENCH_COMPILER_VERSION;
  facts.build_type = PERFBENCH_BUILD_TYPE;
  facts.scoring_batch = sjoin::ScoringBatchEnabled();
  return facts;
}

double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  // cpu user nice system idle iowait irq softirq steal
  long long fields[8] = {};
  const int read = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                               &fields[0], &fields[1], &fields[2], &fields[3],
                               &fields[4], &fields[5], &fields[6], &fields[7]);
  std::fclose(f);
  if (read != 8) return 0.0;
  return static_cast<double>(fields[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(saved_), &saved_);
}

void CpuRotation::Pin(std::size_t i) const {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[i % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double ResidentMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long long size = 0;
  long long resident = 0;
  const int read = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace perfbench
