// cobench — run one workload and print its figures.
//
//   cobench --workload steady|sim_lossy --seed N --seconds S
//           --trace 0|1
//
// Prints human-readable notes (machine, workload, validity), then as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
// A failed correctness check exits 1 and prints no result line; a usage
// error exits 2.
#include <charconv>
#include <exception>
#include <iostream>
#include <string>

#include "cobench/src/bench.h"

namespace {

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

int usage() {
  std::cerr << "usage: cobench --workload steady|sim_lossy "
               "--seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") workload = value;
      else if (arg == "--seed") seed = std::stoull(value);
      else if (arg == "--seconds") seconds = std::stod(value);
      else if (arg == "--trace") trace = std::stoi(value) != 0;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (seconds <= 0) return usage();

  cobench::Report rep;
  try {
    if (workload == "steady") {
      cobench::WireConfig c;
      c.seconds = seconds;
      rep = cobench::run_wire(c, seed, trace);
    } else if (workload == "sim_lossy") {
      cobench::SimConfig c;
      c.seconds = seconds;
      rep = cobench::run_sim(c, seed, trace);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "cobench: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }

  for (const auto& line : rep.notes) std::cout << "# " << line << "\n";
  if (!rep.correct) {
    std::cout.flush();
    std::cerr << "cobench: correctness check failed on " << workload << ": "
              << rep.failure << "\n";
    return 1;
  }
  for (const auto& m : rep.metrics)
    std::cout << "# " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  std::cout << "{\"correct\": true, \"attempted\": " << rep.attempted
            << ", \"failed\": " << rep.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& m = rep.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
