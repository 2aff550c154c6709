// Ablations over ADAPT's own design knobs (the choices DESIGN.md calls out):
//   1. segment size — the pipeline trade-off of §5.2.1's Hockney analysis
//      (too small: alpha-dominated; too large: no pipelining);
//   2. N outstanding sends / M posted receives — §2.2.1's M > N rule (M < N
//      forces unexpected messages and their copy penalty);
//   3. per-level tree shape — chains vs binomial at each topo level;
//   4. network contention model — fair sharing vs uncontended Hockney
//      (what the fluid-flow model adds over a naive simulator).
//
//   ablation_pipeline [--ranks 256] [--msg BYTES] [--iters N]
#include <iostream>

#include "src/bench/cli.hpp"
#include "src/bench/imb.hpp"
#include "src/coll/coll.hpp"
#include "src/coll/topo_tree.hpp"
#include "src/topo/presets.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/table.hpp"

namespace {

using namespace adapt;

double run_adapt(const topo::Machine& machine, const mpi::Comm& world,
                 const coll::Tree& tree, Bytes msg, const coll::CollOpts& opts,
                 net::SharingPolicy sharing, int iters) {
  runtime::SimEngineOptions options;
  options.sharing = sharing;
  runtime::SimEngine engine(machine, options);
  mpi::MutView buffer{nullptr, msg};
  auto fn = [&](runtime::Context& ctx, int) -> sim::Task<> {
    co_await coll::bcast(ctx, world, buffer, 0, tree, coll::Style::kAdapt,
                         opts);
  };
  return bench::measure(engine, world, fn, {.warmup = 1, .iterations = iters})
      .avg_ms();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli(argc, argv,
                 {{"ranks", "N: ranks on the cori model (default 256)"},
                  {"msg", "BYTES: broadcast size (default 4 MiB)"},
                  {"iters", "N: timed iterations per point (default 2)"}});
  const int ranks = static_cast<int>(cli.get_int("ranks", 256));
  const Bytes msg = cli.get_int("msg", mib(4));
  const int iters = static_cast<int>(cli.get_int("iters", 2));
  topo::Machine machine(topo::cori((ranks + 31) / 32), ranks);
  const mpi::Comm world = mpi::Comm::world(ranks);
  const coll::Tree chain_tree = coll::build_topo_tree(machine, world, 0);

  std::cout << "== Ablations: ADAPT broadcast, " << ranks << " ranks, "
            << format_bytes(msg) << " ==\n\n";

  {
    std::cout << "1) Segment size (pipeline granularity)\n";
    Table t({"segment", "time(ms)"});
    for (Bytes seg : {kib(8), kib(32), kib(128), kib(512), mib(4)}) {
      coll::CollOpts opts{.segment_size = seg};
      t.add_row_numeric(format_bytes(seg),
                        {run_adapt(machine, world, chain_tree, msg, opts,
                                   net::SharingPolicy::kFairShare, iters)});
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  {
    std::cout << "2) Outstanding sends N / posted receives M (§2.2.1: keep "
                 "M > N)\n";
    Table t({"N", "M", "time(ms)"});
    for (auto [n, m] : {std::pair{1, 1}, {1, 2}, {2, 1}, {2, 4}, {4, 2},
                        {4, 8}, {8, 16}}) {
      coll::CollOpts opts{.segment_size = kib(128),
                          .outstanding_sends = n,
                          .outstanding_recvs = m};
      char ms[32];
      std::snprintf(ms, sizeof ms, "%.3f",
                    run_adapt(machine, world, chain_tree, msg, opts,
                              net::SharingPolicy::kFairShare, iters));
      t.add_row({std::to_string(n), std::to_string(m), ms});
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  {
    std::cout << "3) Per-level tree shape\n";
    Table t({"levels (node/socket/core)", "time(ms)"});
    using coll::TreeKind;
    const std::pair<const char*, coll::TopoTreeSpec> variants[] = {
        {"chain/chain/chain", {}},
        {"binomial/chain/chain",
         {TreeKind::kChain, TreeKind::kChain, TreeKind::kBinomial, 4}},
        {"binomial/binomial/binomial",
         {TreeKind::kBinomial, TreeKind::kBinomial, TreeKind::kBinomial, 4}},
        {"flat/flat/flat",
         {TreeKind::kFlat, TreeKind::kFlat, TreeKind::kFlat, 4}},
    };
    for (const auto& [label, spec] : variants) {
      const coll::Tree tree = coll::build_topo_tree(machine, world, 0, spec);
      coll::CollOpts opts{.segment_size = kib(128)};
      t.add_row_numeric(label,
                        {run_adapt(machine, world, tree, msg, opts,
                                   net::SharingPolicy::kFairShare, iters)});
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  {
    std::cout << "4) Network model: fair-share contention vs uncontended "
                 "Hockney\n";
    Table t({"model", "time(ms)"});
    coll::CollOpts opts{.segment_size = kib(128)};
    t.add_row_numeric("fair-share (default)",
                      {run_adapt(machine, world, chain_tree, msg, opts,
                                 net::SharingPolicy::kFairShare, iters)});
    t.add_row_numeric("uncontended",
                      {run_adapt(machine, world, chain_tree, msg, opts,
                                 net::SharingPolicy::kUncontended, iters)});
    t.print(std::cout);
    std::cout << "\nAn uncontended model under-reports intra-socket chain "
                 "time (all hops at full\nbandwidth simultaneously) — the "
                 "contention model is what makes tree and\nsegment choices "
                 "matter.\n";
  }
  return 0;
}
