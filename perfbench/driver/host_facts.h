#ifndef PERFBENCH_HOST_FACTS_H_
#define PERFBENCH_HOST_FACTS_H_

#include <sched.h>

#include <cstddef>
#include <string>
#include <vector>

/// \file
/// Facts about the host and build that every result file is stamped with.

namespace perfbench {

struct HostFacts {
  int nproc = 0;
  std::string compiler;  // Id and version, e.g. "GNU 12.2.0".
  std::string build_type;
  /// Whether the library's batched scoring kernels are on (main.cc pins
  /// them on, whatever SJOIN_BATCH_SCORING says).
  bool scoring_batch = false;
};

HostFacts CurrentHost();

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Current resident set size of this process, in MiB. Drivers read it once
/// their inputs are sampled and report peak_rss_mb as the peak above it.
double ResidentMb();

/// CPU time the hypervisor gave to other guests while this host's CPUs
/// wanted to run ("steal" in /proc/stat), summed over CPUs, in seconds
/// since boot; 0 where the kernel does not report it. The difference over
/// a run, divided by nproc x wall time, is the share of the run's CPU
/// capacity other tenants took, noted so a reader can judge the run.
double StealSeconds();

/// Pins the calling thread to each CPU it may run on in turn, and restores
/// its affinity when destroyed. On a shared host the vCPUs run at
/// different speeds (other tenants contend for the cores beneath them,
/// and which vCPUs are slow changes over minutes), so single-threaded
/// figures are sampled on every CPU alike rather than on whichever one the
/// kernel picked. Threads created while pinned inherit the pin. Without
/// affinity support it pins nothing and counts one CPU.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  std::size_t size() const { return cpus_.empty() ? 1 : cpus_.size(); }

  /// Pins the calling thread to CPU `i % size()` of the rotation.
  void Pin(std::size_t i) const;

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_FACTS_H_
