// Ablation over the noise-injection model itself: per-rank independent burst
// phases (the default, matching the paper's "randomly inject" wording)
// versus cluster-synchronized onsets with per-rank random durations (daemons
// that wake on a global tick — the injection style of Beckman et al., where
// collectives amplify the per-rank duration SKEW).
//
//   ablation_noise_model [--ranks 256] [--iters N]
#include <iostream>

#include "src/bench/cli.hpp"
#include "src/bench/imb.hpp"
#include "src/coll/coll.hpp"
#include "src/coll/topo_tree.hpp"
#include "src/topo/presets.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/table.hpp"

int main(int argc, char** argv) {
  using namespace adapt;
  bench::Cli cli(argc, argv,
                 {{"ranks", "N: ranks on the cori model (default 256)"},
                  {"iters", "N: timed iterations per point (default 40)"}});
  const int ranks = static_cast<int>(cli.get_int("ranks", 256));
  const int iters = static_cast<int>(cli.get_int("iters", 40));
  const Bytes msg = mib(4);
  topo::Machine machine(topo::cori((ranks + 31) / 32), ranks);
  const mpi::Comm world = mpi::Comm::world(ranks);
  const coll::Tree tree = coll::build_topo_tree(machine, world, 0);

  std::cout << "== Ablation: noise-injection model (ADAPT vs blocking bcast, "
            << ranks << " ranks, " << format_bytes(msg) << ", 10% duty) ==\n\n";
  Table t({"noise model", "style", "time(ms)", "slowdown"});
  for (bool synchronized : {false, true}) {
    for (coll::Style style : {coll::Style::kAdapt, coll::Style::kBlocking}) {
      double base = 0, noisy = 0;
      for (int pass = 0; pass < 2; ++pass) {
        runtime::SimEngineOptions options;
        if (pass == 1) {
          options.noise = std::make_shared<noise::UniformBurstNoise>(
              milliseconds(20), 10.0, 0xF00D, synchronized);
        }
        runtime::SimEngine engine(machine, options);
        mpi::MutView buffer{nullptr, msg};
        auto fn = [&](runtime::Context& ctx, int) -> sim::Task<> {
          co_await coll::bcast(ctx, world, buffer, 0, tree, style,
                               coll::CollOpts{.segment_size = kib(128)});
        };
        const double ms =
            bench::measure_throughput(engine, world, fn,
                                      {.warmup = 1, .iterations = iters})
                .avg_ms();
        (pass == 0 ? base : noisy) = ms;
      }
      char time_s[32], slow[32];
      std::snprintf(time_s, sizeof time_s, "%.3f", noisy);
      std::snprintf(slow, sizeof slow, "%.0f%%", (noisy / base - 1.0) * 100);
      t.add_row({synchronized ? "synchronized onsets" : "independent phases",
                 coll::style_name(style), time_s, slow});
    }
  }
  t.print(std::cout);
  std::cout << "\nUnder both models the blocking design amplifies noise more "
               "than the\nevent-driven one; synchronized onsets isolate the "
               "skew-amplification effect.\n";
  return 0;
}
