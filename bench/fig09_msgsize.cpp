// Figure 9: end-to-end broadcast and reduce time vs message size (64 KB-4 MB)
// on Cori (1K ranks) and Stampede2 (1.5K ranks), comparing the four MPI
// library personalities relevant to each machine.
//
//   fig09_msgsize [--cluster cori|stampede2|both] [--iters N] [--ranks N]
//                 [--nodes N] [--csv] [--json [FILE]]
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
                 bool csv, bench::JsonReport& report) {
  const auto setup = bench::make_cluster(cluster, nodes, ranks);
  const mpi::Comm world = mpi::Comm::world(setup.ranks);
  const std::vector<Bytes> sizes = {kib(64),  kib(128), kib(256), kib(512),
                                    mib(1),   mib(2),   mib(4)};
  std::vector<std::string> header = {"library"};
  for (Bytes s : sizes) header.push_back(format_bytes(s));

  for (const char* op : {"Broadcast", "Reduce"}) {
    const bool is_bcast = std::string(op) == "Broadcast";
    std::cout << "Performance of " << op << " varies by MSG size on "
              << setup.ranks << " cores (" << cluster << "), time in ms\n";
    Table table(header);
    for (const std::string& name : coll::end_to_end_libraries(cluster)) {
      auto lib = coll::make_library(name, setup.machine);
      std::vector<double> row;
      for (Bytes msg : sizes) {
        runtime::SimEngine engine(setup.machine);
        mpi::MutView buffer{nullptr, msg};  // synthetic at paper scale
        auto fn = [&](runtime::Context& ctx, int) -> sim::Task<> {
          if (is_bcast) {
            co_await lib->bcast(ctx, world, buffer, 0);
          } else {
            co_await lib->reduce(ctx, world, buffer, mpi::ReduceOp::kSum,
                                 mpi::Datatype::kFloat, 0);
          }
        };
        const auto result =
            bench::measure(engine, world, fn, {.warmup = 1, .iterations = iters});
        row.push_back(result.avg_ms());
      }
      table.add_row_numeric(name, row);
    }
    if (csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
    std::cout << "\n";
    report.add_table(std::string(op) + " time (ms) on " + cluster, table);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli(
      argc, argv,
      {{"cluster", "cori|stampede2|both (default both)"},
       {"iters", "N: timed iterations per point (default 3)"},
       {"nodes", "N: nodes per cluster (default 32)"},
       {"ranks", "N: ranks (default 1024 on cori, 1536 on stampede2)"},
       {"csv", "also print each table as CSV"},
       {"json", "[FILE]: also write the tables as JSON (stdout if bare)"}});
  const std::string which = cli.get("cluster", "both");
  const int iters = static_cast<int>(cli.get_int("iters", 3));
  const bool csv = cli.has("csv");
  std::cout << "== Figure 9: performance of broadcast/reduce vs message size "
               "==\n\n";
  bench::JsonReport report("fig09_msgsize");
  report.set_meta("cluster", which);
  report.set_meta("iters", iters);
  if (which == "cori" || which == "both") {
    run_cluster("cori", static_cast<int>(cli.get_int("nodes", 32)),
                static_cast<int>(cli.get_int("ranks", 1024)), iters, csv,
                report);
  }
  if (which == "stampede2" || which == "both") {
    run_cluster("stampede2", static_cast<int>(cli.get_int("nodes", 32)),
                static_cast<int>(cli.get_int("ranks", 1536)), iters, csv,
                report);
  }
  return bench::emit_json(cli, report) ? 0 : 1;
}
