// Figure 8: topology-aware broadcast and reduce vs message size, comparing
// ADAPT against every topology-aware algorithm variant of Intel MPI plus the
// Open MPI default module equipped with ADAPT's topo tree
// ("OMPI-default-topo", which isolates the Waitall penalty: same tree, ~20%
// slower — §5.1.2).
//
//   fig08_topo [--cluster cori|stampede2|both] [--iters N] [--json [FILE]]
#include <iostream>

#include "src/bench/cli.hpp"
#include "src/bench/imb.hpp"
#include "src/bench/report.hpp"
#include "src/coll/library.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/table.hpp"

namespace {

using namespace adapt;

void run_cluster(const std::string& cluster, int nodes, int ranks, int iters,
                 bench::JsonReport& report) {
  const auto setup = bench::make_cluster(cluster, nodes, ranks);
  const mpi::Comm world = mpi::Comm::world(setup.ranks);
  const std::vector<Bytes> sizes = {kib(64),  kib(128), kib(256), kib(512),
                                    mib(1),   mib(2),   mib(4)};
  std::vector<std::string> header = {"algorithm"};
  for (Bytes s : sizes) header.push_back(format_bytes(s));

  for (const char* op : {"Broadcast", "Reduce"}) {
    const bool is_bcast = std::string(op) == "Broadcast";
    std::cout << "Performance of Topology-aware " << op
              << " varies by MSG size on " << setup.ranks << " cores ("
              << cluster << "), time in ms\n";
    std::vector<std::string> libs = is_bcast
                                        ? coll::intel_topo_bcast_variants()
                                        : coll::intel_topo_reduce_variants();
    libs.push_back("ompi-default-topo");
    libs.push_back("ompi-adapt");
    Table table(header);
    for (const std::string& name : libs) {
      auto lib = coll::make_library(name, setup.machine);
      std::vector<double> row;
      for (Bytes msg : sizes) {
        runtime::SimEngine engine(setup.machine);
        mpi::MutView buffer{nullptr, msg};
        auto fn = [&](runtime::Context& ctx, int) -> sim::Task<> {
          if (is_bcast) {
            co_await lib->bcast(ctx, world, buffer, 0);
          } else {
            co_await lib->reduce(ctx, world, buffer, mpi::ReduceOp::kSum,
                                 mpi::Datatype::kFloat, 0);
          }
        };
        row.push_back(bench::measure(engine, world, fn,
                                     {.warmup = 1, .iterations = iters})
                          .avg_ms());
      }
      table.add_row_numeric(name, row);
    }
    table.print(std::cout);
    std::cout << "\n";
    report.add_table(std::string("Topology-aware ") + op + " time (ms) on " +
                         cluster,
                     table);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli(
      argc, argv,
      {{"cluster", "cori|stampede2|both (default both)"},
       {"iters", "N: timed iterations per point (default 2)"},
       {"nodes", "N: nodes per cluster (default 32)"},
       {"ranks", "N: ranks (default 1024 on cori, 1536 on stampede2)"},
       {"json", "[FILE]: also write the tables as JSON (stdout if bare)"}});
  const std::string which = cli.get("cluster", "both");
  const int iters = static_cast<int>(cli.get_int("iters", 2));
  std::cout << "== Figure 8: topology-aware broadcast/reduce vs message size "
               "==\n\n";
  bench::JsonReport report("fig08_topo");
  report.set_meta("cluster", which);
  report.set_meta("iters", iters);
  if (which == "cori" || which == "both") {
    run_cluster("cori", static_cast<int>(cli.get_int("nodes", 32)),
                static_cast<int>(cli.get_int("ranks", 1024)), iters, report);
  }
  if (which == "stampede2" || which == "both") {
    run_cluster("stampede2", static_cast<int>(cli.get_int("nodes", 32)),
                static_cast<int>(cli.get_int("ranks", 1536)), iters, report);
  }
  return bench::emit_json(cli, report) ? 0 : 1;
}
