// Figure 8 reproduction — "Processing time and delay time".
//
// The paper plots, against the number of entities n in the cluster:
//   Tco — the processing time per PDU of each (system) entity, and
//   Tap — the transmission delay among the application entities,
// measured on SPARC2 workstations over Ethernet with every application
// entity sending DT requests continuously (file transfer). The figure shows
// both growing roughly linearly in n (§5: "the processing overhead of each
// entity is O(n)").
//
// Here Tco is the measured wall-clock time inside the protocol handler per
// message (real work of the real implementation, on today's CPU), and Tap
// is the simulated broadcast->delivery delay. Absolute values differ from
// 1994 hardware; the reproduced result is the O(n) shape, reported as a
// log-log power-fit exponent.
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "src/common/json.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/harness/experiment.h"
#include "src/obs/export.h"
#include "src/obs/observe.h"

int main(int argc, char** argv) {
  using namespace co;

  // --json FILE: machine-readable sweep (rows + fits + the final metrics
  // snapshot of the largest-n run) for the nightly CI artifact.
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_fig8 [--json FILE]\n";
      return 2;
    }
  }

  std::cout << "=== Figure 8: processing time (Tco) and delay (Tap) vs n ===\n"
            << "Workload: continuous DT requests from every entity "
            << "(paper: 'like the file transfer')\n\n";

  Table table({"n", "Tco [us/PDU]", "Tap [ms]", "ack delay [ms]",
               "PDUs on wire", "sim time [ms]"});
  std::vector<double> ns, tcos, taps;
  Json::Array rows;
  Json last_snapshot;

  for (const std::size_t n : {2u, 3u, 4u, 6u, 8u, 10u, 12u, 16u, 24u, 32u,
                              48u}) {
    harness::ExperimentConfig cfg;
    cfg.n = n;
    cfg.window = 8;
    cfg.link_delay = 100 * sim::kMicrosecond;
    // Finite receiver processing speed — the paper's premise (the network
    // outruns the entities). Tap therefore includes queueing behind the
    // O(n) PDUs each entity must process per delivered PDU.
    cfg.service_time = 30 * sim::kMicrosecond;
    cfg.buffer_capacity = 1u << 20;
    // The confirmation cadence must not exceed the cluster's service
    // capacity (each entity needs n * service_time to digest one round of
    // confirmations), or ingress queues grow without bound.
    cfg.defer_timeout = std::max<sim::SimDuration>(
        500 * sim::kMicrosecond,
        2 * static_cast<sim::SimDuration>(n) * cfg.service_time);
    cfg.workload.arrival = app::WorkloadConfig::Arrival::kContinuous;
    // Keep total broadcasts roughly constant across n so wall-clock noise
    // in Tco is comparable.
    cfg.workload.messages_per_entity = std::max<std::size_t>(100, 4800 / n);
    cfg.workload.payload_bytes = 64;
    cfg.seed = 42 + n;

    // The introspection bundle is callback-sampled, so attaching it does
    // not perturb the run (obs_test proves this); the JSON artifact gets
    // the full final snapshot of the largest-n run.
    obs::Observability bundle(n);
    if (!json_path.empty()) cfg.obs = &bundle;

    const auto r = harness::run_co_experiment(cfg);
    if (!r.completed) {
      std::cout << "n=" << n << ": DID NOT COMPLETE\n";
      return 1;
    }
    ns.push_back(static_cast<double>(n));
    tcos.push_back(r.tco_us);
    taps.push_back(r.tap_ms);
    table.add_row({Table::num(static_cast<std::uint64_t>(n)),
                   Table::num(r.tco_us, 3), Table::num(r.tap_ms, 3),
                   Table::num(r.accept_to_ack_ms, 3),
                   Table::num(r.wire_pdus), Table::num(r.sim_ms, 1)});
    if (!json_path.empty()) {
      Json::Object row;
      row["n"] = Json(static_cast<std::uint64_t>(n));
      row["tco_us"] = Json(r.tco_us);
      row["tap_ms"] = Json(r.tap_ms);
      row["accept_to_ack_ms"] = Json(r.accept_to_ack_ms);
      row["wire_pdus"] = Json(r.wire_pdus);
      row["sim_ms"] = Json(r.sim_ms);
      rows.push_back(Json(std::move(row)));
      if (r.metrics) last_snapshot = obs::metrics_to_json(*r.metrics);
    }
  }
  table.print(std::cout);
  table.write_csv_if_requested("fig8");

  const auto tco_fit = fit_power(ns, tcos);
  const auto tap_fit = fit_power(ns, taps);
  std::cout << "\nTco growth: Tco(n) ~ n^" << Table::num(tco_fit.exponent, 2)
            << " (R^2=" << Table::num(tco_fit.r2, 3) << ")\n"
            << "Tap growth: Tap(n) ~ n^" << Table::num(tap_fit.exponent, 2)
            << " (R^2=" << Table::num(tap_fit.r2, 3) << ")\n"
            << "Paper's claim: both O(n); exponents near 1 (and well below 2) "
               "reproduce the figure's shape.\n";

  if (!json_path.empty()) {
    auto fit_json = [](const PowerFit& fit) {
      Json::Object o;
      o["coeff"] = Json(fit.coeff);
      o["exponent"] = Json(fit.exponent);
      o["r2"] = Json(fit.r2);
      return Json(std::move(o));
    };
    Json::Object doc;
    doc["bench"] = Json("fig8");
    doc["rows"] = Json(std::move(rows));
    doc["tco_fit"] = fit_json(tco_fit);
    doc["tap_fit"] = fit_json(tap_fit);
    doc["final_metrics"] = last_snapshot;  // largest-n run's snapshot
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << '\n';
      return 1;
    }
    out << Json(std::move(doc)).dump(2) << '\n';
    std::cout << "wrote " << json_path << '\n';
  }
  return 0;
}
