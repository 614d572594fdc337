#include "host.hpp"

#include <fstream>
#include <sstream>
#include <thread>

#include "hls/qkernels.hpp"
#include "util/stats.hpp"

namespace perfbench {

double loadavg1() {
  std::ifstream in("/proc/loadavg");
  double load = -1.0;
  if (!(in >> load)) return -1.0;
  return load;
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

HostFacts HostFacts::probe() {
  HostFacts h;
  h.nproc = std::thread::hardware_concurrency();
  h.variant = reads::hls::kernels::variant();
  h.narrow_dp_variant = reads::hls::kernels::narrow_dp_variant();
  h.load_start = loadavg1();
  return h;
}

std::string HostFacts::json() const {
  using reads::util::json_double;
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"variant\": \"" << variant
      << "\", \"narrow_dp_variant\": \"" << narrow_dp_variant
      << "\", \"load_start\": " << json_double(load_start)
      << ", \"load_end\": " << json_double(load_end)
      << ", \"gen_lag_p99_ms\": " << json_double(gen_lag_p99_ms) << "}";
  return out.str();
}

}  // namespace perfbench
