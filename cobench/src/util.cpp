#include <dirent.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "cobench/src/bench.h"
#include "src/co/kernels/kernels.h"

namespace cobench {

// --- DeliveryChecker ---------------------------------------------------------

DeliveryChecker::DeliveryChecker(std::size_t n) : receivers_(n) {
  for (auto& r : receivers_) r.next.assign(n, 0);
}

void DeliveryChecker::on_delivery(EntityId at, EntityId src,
                                  std::uint64_t index) {
  Receiver& r = receivers_.at(static_cast<std::size_t>(at));
  const bool known = src >= 0 && static_cast<std::size_t>(src) < r.next.size();
  std::uint64_t* next =
      known ? &r.next[static_cast<std::size_t>(src)] : nullptr;
  if ((next == nullptr || index != *next) && !r.first_violation) {
    std::ostringstream why;
    if (next == nullptr)
      why << "E" << at << " delivered a PDU from unknown source " << src;
    else
      why << "E" << at << " delivered E" << src << "'s submit #" << index
          << " when #" << *next << " was due (FIFO broken)";
    r.first_violation = why.str();
  }
  if (next != nullptr) *next = std::max(*next, index + 1);
}

std::optional<std::string> DeliveryChecker::verify(
    const std::vector<std::uint64_t>& accepted) const {
  for (const Receiver& r : receivers_)
    if (r.first_violation) return r.first_violation;
  for (std::size_t at = 0; at < receivers_.size(); ++at) {
    const Receiver& r = receivers_[at];
    for (std::size_t src = 0; src < accepted.size() && src < r.next.size();
         ++src) {
      if (r.next[src] == accepted[src]) continue;
      std::ostringstream why;
      why << "E" << at << " delivered " << r.next[src] << " of E" << src
          << "'s " << accepted[src]
          << " accepted submits before the drain deadline";
      return why.str();
    }
  }
  return std::nullopt;
}

// --- statistics --------------------------------------------------------------

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

// --- process and machine -----------------------------------------------------

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

void reset_peak_rss() {
#ifdef __GLIBC__
  // Hand freed heap back first, so every measurement starts from the same
  // floor instead of whatever the allocator kept from earlier hosts.
  ::malloc_trim(0);
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {
volatile std::uint64_t reference_sink;
}  // namespace

double reference_cpu_s() {
  const double t0 = thread_cpu_s();
  std::uint64_t x = 0x9e3779b97f4a7c15ull, sum = 0;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> table;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x % 50000].push_back(static_cast<std::uint32_t>(x));
  }
  for (const auto& [key, values] : table) sum += key + values.size();
  const double cpu = thread_cpu_s() - t0;
  reference_sink = sum;  // so the loop cannot be optimised away
  return cpu;
}

ThreadTimes other_threads_cpu() {
  ThreadTimes out;
  const long self = static_cast<long>(::syscall(SYS_gettid));
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* ent = ::readdir(dir)) {
    if (ent->d_name[0] == '.') continue;
    if (std::atol(ent->d_name) == self) continue;
    std::ifstream stat(std::string("/proc/self/task/") + ent->d_name +
                       "/stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    // Fields after the parenthesised command: state is field 3, utime 14,
    // stime 15.
    const auto close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    for (int f = 3; f <= 15 && rest >> field; ++f) {
      if (f == 14) utime = std::stod(field);
      if (f == 15) stime = std::stod(field);
    }
    out.user_s += utime / tick;
    out.sys_s += stime / tick;
  }
  ::closedir(dir);
  return out;
}

std::vector<std::string> machine_notes() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  return {
      "machine: nproc=" + std::to_string(std::thread::hardware_concurrency()) +
          " cpu=\"" + model + "\"",
      std::string("build: kernels=") + co::proto::kern::selected().name +
          " build_type=" + COBENCH_BUILD_TYPE,
  };
}

}  // namespace cobench
