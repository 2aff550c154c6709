// Figure 10: strong scalability of broadcast and reduce with CPU data on
// Cori — 4 MB message, 8 to 32 nodes (128-1024 ranks at the paper's
// placement density for this experiment: the paper varies nodes with ranks
// 128/256/512/1024).
//
// ADAPT uses chains at every topo level; with enough segments the chain cost
// ns*(alpha+beta*m) is independent of P (§5.2.1), so its curve should be
// flat while rank-order trees grow.
//
// Every (op, library, ranks) point is an independent SimEngine run, so the
// sweep fans points across --jobs worker threads; simulated times are
// bit-identical for any jobs value (results land in per-point slots and the
// tables are assembled in point order). Per-point host wall clock is also
// recorded — that is the simulator-performance number BENCH_fig10.json
// tracks, and it is only meaningful with --jobs 1.
//
//   fig10_scaling_cpu [--iters N] [--msg BYTES] [--jobs N] [--json [FILE]]
//                     [--trace FILE [--trace-lib NAME] [--trace-ranks N]]
//
// --trace writes the Chrome/Perfetto trace of one designated point (default
// ompi-adapt broadcast at 128 ranks) for adapt-trace summarize/diff — the
// trace is virtual-time only, so it is byte-identical across hosts and
// --jobs values and serves as the perf gate's attribution baseline.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "src/bench/cli.hpp"
#include "src/bench/imb.hpp"
#include "src/bench/report.hpp"
#include "src/coll/library.hpp"
#include "src/obs/export.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/parallel.hpp"
#include "src/support/table.hpp"

int main(int argc, char** argv) {
  using namespace adapt;
  bench::Cli cli(
      argc, argv,
      {{"iters", "N: timed iterations per point (default 3)"},
       {"msg", "BYTES: message size (default 4 MiB)"},
       {"jobs", "N: worker threads for the sweep, 0 = all cores (default 1)"},
       {"json", "[FILE]: also write the tables as JSON (stdout if bare)"},
       {"trace", "[FILE]: write one point's trace (default fig10.trace.json)"},
       {"trace-lib", "NAME: library of the traced point (default ompi-adapt)"},
       {"trace-ranks", "N: rank count of the traced point (default 128)"}});
  const int iters = static_cast<int>(cli.get_int("iters", 3));
  const Bytes msg = cli.get_int("msg", mib(4));
  int jobs = static_cast<int>(cli.get_int("jobs", 1));
  if (jobs <= 0) jobs = support::hardware_jobs();
  const std::vector<int> rank_counts = {128, 256, 512, 1024};
  const std::vector<std::string> libraries =
      coll::end_to_end_libraries("cori");

  struct Point {
    bool is_bcast;
    std::string library;
    int ranks;
  };
  std::vector<Point> points;
  for (const bool is_bcast : {true, false}) {
    for (const std::string& name : libraries) {
      for (int ranks : rank_counts) {
        points.push_back(Point{is_bcast, name, ranks});
      }
    }
  }

  std::cout << "== Figure 10: strong scalability on Cori, MSG="
            << format_bytes(msg) << " ==\n\n";

  // One designated point may carry a trace recorder; exactly one point
  // matches, so the shared_ptr is written by at most one worker.
  const bool tracing = cli.has("trace");
  const std::string trace_lib = cli.get("trace-lib", "ompi-adapt");
  const int trace_ranks = static_cast<int>(cli.get_int("trace-ranks", 128));
  std::shared_ptr<obs::Recorder> trace_recorder;

  std::vector<double> sim_ms(points.size());
  std::vector<double> wall_ms(points.size());
  support::parallel_for(
      jobs, static_cast<int>(points.size()), [&](int i) {
        const Point& p = points[static_cast<std::size_t>(i)];
        const auto start = std::chrono::steady_clock::now();
        const int nodes = (p.ranks + 31) / 32;
        const auto setup = bench::make_cluster("cori", nodes, p.ranks);
        const mpi::Comm world = mpi::Comm::world(p.ranks);
        auto lib = coll::make_library(p.library, setup.machine);
        runtime::SimEngineOptions options;
        if (tracing && p.is_bcast && p.library == trace_lib &&
            p.ranks == trace_ranks) {
          trace_recorder = std::make_shared<obs::Recorder>();
          options.recorder = trace_recorder;
        }
        runtime::SimEngine engine(setup.machine, options);
        mpi::MutView buffer{nullptr, msg};
        auto fn = [&](runtime::Context& ctx, int) -> sim::Task<> {
          if (p.is_bcast) {
            co_await lib->bcast(ctx, world, buffer, 0);
          } else {
            co_await lib->reduce(ctx, world, buffer, mpi::ReduceOp::kSum,
                                 mpi::Datatype::kFloat, 0);
          }
        };
        sim_ms[static_cast<std::size_t>(i)] =
            bench::measure(engine, world, fn,
                           {.warmup = 1, .iterations = iters})
                .avg_ms();
        wall_ms[static_cast<std::size_t>(i)] =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
      });

  bench::JsonReport report("fig10_scaling_cpu");
  report.set_meta("iters", iters);
  report.set_meta("msg_bytes", msg);
  report.set_meta("jobs", jobs);
  std::size_t next = 0;
  for (const char* op : {"Broadcast", "Reduce"}) {
    std::cout << "Strong Scalability of " << op
              << " with CPU data, NB nodes from 8 to 32, time in ms\n";
    std::vector<std::string> header = {"library"};
    for (int r : rank_counts) header.push_back(std::to_string(r));
    Table table(header);
    Table wall_table(header);
    for (const std::string& name : libraries) {
      std::vector<double> row;
      std::vector<double> wall_row;
      for (std::size_t k = 0; k < rank_counts.size(); ++k) {
        row.push_back(sim_ms[next]);
        wall_row.push_back(wall_ms[next]);
        ++next;
      }
      table.add_row_numeric(name, row);
      wall_table.add_row_numeric(name, wall_row);
    }
    table.print(std::cout);
    std::cout << "\n";
    report.add_table(std::string(op) + " strong scaling time (ms)", table);
    report.add_table(std::string(op) + " host wall clock per point (ms)",
                     wall_table);
  }
  if (tracing) {
    const std::string path = cli.get("trace", "fig10.trace.json");
    if (!trace_recorder) {
      std::cerr << "--trace point " << trace_lib << "/bcast/" << trace_ranks
                << " is not in the sweep\n";
      return 1;
    }
    if (!obs::write_trace_file(*trace_recorder, path)) {
      std::cerr << "cannot write --trace file " << path << "\n";
      return 1;
    }
    std::cout << "trace (" << trace_lib << " bcast, " << trace_ranks
              << " ranks): " << path << "\n";
  }
  return bench::emit_json(cli, report) ? 0 : 1;
}
