// Host facts printed with every result, and process memory readings.
#pragma once

#include <sys/types.h>

#include <string>

namespace perfbench {

/// One-minute load average (/proc/loadavg); -1 when unreadable.
double loadavg1();

/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable (the
/// process already exited). pid 0 means this process.
double peak_rss_mb(pid_t pid = 0);

struct HostFacts {
  unsigned nproc = 0;
  std::string variant;            ///< hls::kernels::variant()
  std::string narrow_dp_variant;  ///< hls::kernels::narrow_dp_variant()
  double load_start = 0.0;
  double load_end = 0.0;
  double gen_lag_p99_ms = 0.0;

  static HostFacts probe();
  /// One-line JSON object, printed after "host: ".
  std::string json() const;
};

}  // namespace perfbench
