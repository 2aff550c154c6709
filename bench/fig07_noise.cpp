// Figure 7: noise impact on broadcast and reduce at 4 MB.
//
// Reproduces the paper's §5.1.1 experiment: uniform bursts at 10 Hz, 0-10 ms
// ("5%") and 0-20 ms ("10%"), injected on every rank's CPU. Reported per
// library: absolute time without noise and the slowdown percentage under each
// injection level — the numbers printed above the bars in Fig. 7.
//
//   fig07_noise [--cluster cori|stampede2|both] [--iters N] [--msg BYTES]
//               [--json [FILE]]
#include <iostream>

#include "src/bench/cli.hpp"
#include "src/bench/imb.hpp"
#include "src/bench/report.hpp"
#include "src/coll/library.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/table.hpp"

namespace {

using namespace adapt;

double run_one(const topo::Machine& machine, const mpi::Comm& world,
               const std::string& lib_name, bool is_bcast, Bytes msg,
               int duty_percent, int iters) {
  runtime::SimEngineOptions options;
  options.noise = noise::paper_noise(duty_percent, /*seed=*/0xADA57 + duty_percent);
  runtime::SimEngine engine(machine, options);
  auto lib = coll::make_library(lib_name, machine);
  mpi::MutView buffer{nullptr, msg};
  // IMB rotates the operation root round-robin across iterations; rotate over
  // a small prefix so tree construction stays cheap while successive
  // iterations still depend on each other the way IMB runs do.
  auto fn = [&](runtime::Context& ctx, int iteration) -> sim::Task<> {
    const Rank root = (iteration * 37) % std::min(world.size(), 8);
    if (is_bcast) {
      co_await lib->bcast(ctx, world, buffer, root);
    } else {
      co_await lib->reduce(ctx, world, buffer, mpi::ReduceOp::kSum,
                           mpi::Datatype::kFloat, root);
    }
  };
  // IMB timing: back-to-back iterations, per-rank loop average. The gap just
  // de-correlates the loop start from the warm-up's noise alignment.
  return bench::measure_throughput(engine, world, fn,
                                   {.warmup = 1, .iterations = iters,
                                    .gap = milliseconds(17)})
      .avg_ms();
}

void run_cluster(const std::string& cluster, int nodes, int ranks, Bytes msg,
                 int iters, bench::JsonReport& report) {
  const auto setup = bench::make_cluster(cluster, nodes, ranks);
  const mpi::Comm world = mpi::Comm::world(setup.ranks);
  for (const char* op : {"Broadcast", "Reduce"}) {
    const bool is_bcast = std::string(op) == "Broadcast";
    std::cout << "Performance of " << op
              << " with CPU data varies by noise injection, MSG="
              << format_bytes(msg) << " (" << cluster << ", " << setup.ranks
              << " ranks)\n";
    Table table({"library", "no-noise(ms)", "5%-noise(ms)", "10%-noise(ms)",
                 "slowdown@5%", "slowdown@10%"});
    for (const std::string& name : coll::end_to_end_libraries(cluster)) {
      const double base =
          run_one(setup.machine, world, name, is_bcast, msg, 0, iters);
      const double at5 =
          run_one(setup.machine, world, name, is_bcast, msg, 5, iters);
      const double at10 =
          run_one(setup.machine, world, name, is_bcast, msg, 10, iters);
      char b1[32], b2[32], b3[32], s1[32], s2[32];
      std::snprintf(b1, sizeof b1, "%.3f", base);
      std::snprintf(b2, sizeof b2, "%.3f", at5);
      std::snprintf(b3, sizeof b3, "%.3f", at10);
      std::snprintf(s1, sizeof s1, "%.0f%%", (at5 / base - 1.0) * 100.0);
      std::snprintf(s2, sizeof s2, "%.0f%%", (at10 / base - 1.0) * 100.0);
      table.add_row({name, b1, b2, b3, s1, s2});
    }
    table.print(std::cout);
    std::cout << "\n";
    report.add_table(std::string(op) + " under noise on " + cluster, table);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli(
      argc, argv,
      {{"cluster", "cori|stampede2|both (default both)"},
       {"iters", "N: timed iterations per point (default 16)"},
       {"msg", "BYTES: message size (default 4 MiB)"},
       {"nodes", "N: nodes per cluster (default 32)"},
       {"ranks", "N: ranks (default 1024 on cori, 1536 on stampede2)"},
       {"json", "[FILE]: also write the tables as JSON (stdout if bare)"}});
  const std::string which = cli.get("cluster", "both");
  const int iters = static_cast<int>(cli.get_int("iters", 16));
  const Bytes msg = cli.get_int("msg", mib(4));
  std::cout << "== Figure 7: noise impact on broadcast/reduce ==\n\n";
  bench::JsonReport report("fig07_noise");
  report.set_meta("cluster", which);
  report.set_meta("iters", iters);
  report.set_meta("msg_bytes", msg);
  if (which == "cori" || which == "both") {
    run_cluster("cori", static_cast<int>(cli.get_int("nodes", 32)),
                static_cast<int>(cli.get_int("ranks", 1024)), msg, iters,
                report);
  }
  if (which == "stampede2" || which == "both") {
    run_cluster("stampede2", static_cast<int>(cli.get_int("nodes", 32)),
                static_cast<int>(cli.get_int("ranks", 1536)), msg, iters,
                report);
  }
  return bench::emit_json(cli, report) ? 0 : 1;
}
