// Steady-state issue-rate benchmark: the ROADMAP's "same collective issued
// millions of times" workload. Two arms drive the identical 64-rank / 64 KiB
// broadcast through the SimEngine for R rounds and report host-side issue
// rate (collectives started+completed per wall-clock second) plus heap
// allocations per start:
//
//   * percall    — what a per-call adaptive library pays every invocation:
//                  consult the tuner, rebuild the decision tree, re-run the
//                  coroutine pipeline with freshly allocated round state.
//   * persistent — bcast_init once (plan pinned in the engine's PlanCache),
//                  then start()/wait() replaying the cached schedule.
//
// The simulated byte movement is identical in both arms; the difference is
// exactly the schedule-rebuild work the persistent path hoists out of the
// hot loop, so the ratio is the paper-facing "issue-rate speedup" number the
// perf gate pins (scripts/check_perf.py --steady, threshold 5x).
//
//   steady_state [--cluster cori] [--nodes N] [--ranks N] [--bytes B]
//                [--warm W] [--rounds R] [--json FILE]
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

// Counting global allocator (the PR 4 harness scheme): every path into the
// heap bumps one counter; each arm brackets its measured rounds with counter
// snapshots to report allocs_per_start. Machine-independent, so the perf
// gate can pin it at zero for the persistent arm on any hardware.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#include <chrono>
#include <limits>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "src/bench/cli.hpp"
#include "src/coll/coll.hpp"
#include "src/coll/persistent.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/error.hpp"
#include "src/tune/tuner.hpp"

namespace {

using namespace adapt;
using Clock = std::chrono::steady_clock;

/// Re-sync cadence. Eager sends complete locally, so the broadcast root's
/// wait() returns without any round trip and it would otherwise run
/// arbitrarily far ahead of the leaves — unexpected queues and in-flight
/// payload blocks then grow with the skew instead of reaching a steady
/// state. Issue-rate benchmarks conventionally bound the skew with a
/// periodic barrier; both arms pay it, so the speedup stays a fair ratio.
constexpr int kSyncEvery = 8;

struct ArmResult {
  double elapsed_ms = 0.0;
  double collectives_per_sec = 0.0;
  double allocs_per_start = 0.0;
};

struct BenchConfig {
  topo::Machine machine;
  int ranks;
  Bytes bytes;
  int warm;
  int rounds;
};

/// Runs one arm: `body(ctx, round)` issues round `round` of the collective.
/// Rank 0 opens the measurement window at the first post-warm-up round; the
/// window closes when the whole run drains, so every measured round's work
/// (including stragglers past rank 0's last wait) is inside the bracket.
template <typename MakeProgram>
ArmResult run_arm(const BenchConfig& cfg, MakeProgram make_program) {
  runtime::SimEngineOptions options;
  options.tuning = std::make_shared<tune::Tuner>(cfg.machine);
  runtime::SimEngine engine(cfg.machine, options);

  Clock::time_point t0;
  std::uint64_t a0 = 0;
  auto program = make_program(engine, [&](int round, int rank) {
    if (round == cfg.warm && rank == 0) {
      t0 = Clock::now();
      a0 = g_alloc_count.load(std::memory_order_relaxed);
    }
  });
  engine.run(program);
  const Clock::time_point t1 = Clock::now();
  const std::uint64_t a1 = g_alloc_count.load(std::memory_order_relaxed);

  ArmResult r;
  r.elapsed_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();
  r.collectives_per_sec = cfg.rounds / (r.elapsed_ms / 1000.0);
  r.allocs_per_start = static_cast<double>(a1 - a0) / cfg.rounds;
  return r;
}

/// Per-call arm: every round re-does the planning a one-shot adaptive call
/// pays before any byte moves — price the tuner's candidate grid for this
/// (op, ranks, size), rebuild the decision tree, re-size the segment
/// pipeline — then runs the ordinary pipelined broadcast. This is the
/// from-scratch flow the ROADMAP motivation describes; the persistent
/// subsystem's whole point is pinning decision + tree + round state once at
/// init so none of it recurs per start.
ArmResult run_percall(const BenchConfig& cfg,
                      std::vector<std::vector<std::byte>>& bufs) {
  return run_arm(cfg, [&](runtime::SimEngine&, auto mark) {
    return [&cfg, &bufs, mark](runtime::Context& ctx) -> sim::Task<> {
      const mpi::Comm world = mpi::Comm::world(cfg.ranks);
      auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
      for (int r = 0; r < cfg.warm + cfg.rounds; ++r) {
        mark(r, ctx.rank());
        tune::Tuner* tuner = ctx.tuner();
        ADAPT_CHECK(tuner != nullptr);
        // From-scratch decision: price every candidate in the grid and keep
        // the cheapest — the same work choose() does on a table miss. The
        // persistent path pays this exactly once, at init, and pins the
        // result in the plan cache.
        tune::Decision best{};
        best.predicted = std::numeric_limits<TimeNs>::max();
        for (const tune::Decision& d :
             tuner->candidates(tune::Op::kBcast, world.size(), cfg.bytes)) {
          if (d.predicted < best.predicted) best = d;
        }
        const coll::Tree tree =
            tune::decision_tree(ctx.machine(), world, /*root=*/0, best);
        coll::CollOpts opts;
        opts.segment_size = tune::decision_segment(best, cfg.bytes);
        co_await coll::bcast(ctx, world, mpi::MutView{mine.data(), cfg.bytes},
                             /*root=*/0, tree, coll::Style::kAdapt, opts);
        if ((r + 1) % kSyncEvery == 0) co_await coll::barrier(ctx, world);
      }
    };
  });
}

/// Persistent arm: plan built once at init, rounds replay it.
ArmResult run_persistent(const BenchConfig& cfg,
                         std::vector<std::vector<std::byte>>& bufs) {
  return run_arm(cfg, [&](runtime::SimEngine&, auto mark) {
    return [&cfg, &bufs, mark](runtime::Context& ctx) -> sim::Task<> {
      const mpi::Comm world = mpi::Comm::world(cfg.ranks);
      auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
      auto op = coll::bcast_init(ctx, world,
                                 mpi::MutView{mine.data(), cfg.bytes},
                                 /*root=*/0, coll::PersistentOpts{});
      auto sync = coll::barrier_init(ctx, world, coll::PersistentOpts{});
      for (int r = 0; r < cfg.warm + cfg.rounds; ++r) {
        mark(r, ctx.rank());
        ADAPT_CHECK(op->start() == mpi::ErrCode::kOk);
        co_await op->wait();
        if ((r + 1) % kSyncEvery == 0) {
          ADAPT_CHECK(sync->start() == mpi::ErrCode::kOk);
          co_await sync->wait();
        }
      }
    };
  });
}

void write_json(const std::string& path, const BenchConfig& cfg,
                const std::string& cluster, const ArmResult& percall,
                const ArmResult& persistent, double speedup) {
  std::ofstream out(path);
  ADAPT_CHECK(out.good()) << "cannot write " << path;
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\n"
      "  \"benchmark\": \"steady_state\",\n"
      "  \"cluster\": \"%s\",\n"
      "  \"ranks\": %d,\n"
      "  \"bytes\": %lld,\n"
      "  \"warm\": %d,\n"
      "  \"rounds\": %d,\n"
      "  \"arms\": {\n"
      "    \"percall\": {\"collectives_per_sec\": %.1f, "
      "\"allocs_per_start\": %.3f, \"elapsed_ms\": %.3f},\n"
      "    \"persistent\": {\"collectives_per_sec\": %.1f, "
      "\"allocs_per_start\": %.3f, \"elapsed_ms\": %.3f}\n"
      "  },\n"
      "  \"speedup\": %.3f\n"
      "}\n",
      cluster.c_str(), cfg.ranks, static_cast<long long>(cfg.bytes), cfg.warm,
      cfg.rounds, percall.collectives_per_sec, percall.allocs_per_start,
      percall.elapsed_ms, persistent.collectives_per_sec,
      persistent.allocs_per_start, persistent.elapsed_ms, speedup);
  out << buf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli(
      argc, argv,
      {{"cluster", "NAME: machine preset (default cori)"},
       {"nodes", "N: nodes (default 2)"},
       {"ranks", "N: ranks (default 64)"},
       {"bytes", "B: broadcast size (default 65536)"},
       {"warm", "W: unmeasured warm-up rounds per arm (default 80)"},
       {"rounds", "R: measured rounds per arm (default 300)"},
       {"arm", "percall|persistent|both (default both)"},
       {"json", "[FILE]: also write the results as JSON (steady.json)"}});
  const std::string cluster = cli.get("cluster", "cori");
  const int nodes = static_cast<int>(cli.get_int("nodes", 2));
  const int ranks = static_cast<int>(cli.get_int("ranks", 64));
  const Bytes bytes = cli.get_int("bytes", 65536);
  // 80 warm-up rounds cover ten barrier periods: every (src, tag) matcher
  // bucket and pool size class reaches its high-water mark before the
  // measurement window opens, so the persistent arm's allocs/start is a real
  // steady-state number rather than first-touch noise.
  const int warm = static_cast<int>(cli.get_int("warm", 80));
  const int rounds = static_cast<int>(cli.get_int("rounds", 300));

  const auto setup = bench::make_cluster(cluster, nodes, ranks);
  BenchConfig cfg{setup.machine, setup.ranks, bytes, warm, rounds};

  std::cout << "== Steady-state issue rate: persistent vs per-call broadcast "
               "==\n"
            << cluster << ", " << cfg.ranks << " ranks, " << bytes
            << " bytes, " << rounds << " measured rounds (+" << warm
            << " warm-up)\n\n";

  std::vector<std::vector<std::byte>> bufs(
      static_cast<std::size_t>(cfg.ranks),
      std::vector<std::byte>(static_cast<std::size_t>(bytes)));

  const std::string arm = cli.get("arm", "both");
  const ArmResult percall =
      arm != "persistent" ? run_percall(cfg, bufs) : ArmResult{};
  const ArmResult persistent =
      arm != "percall" ? run_persistent(cfg, bufs) : ArmResult{};
  const double speedup =
      persistent.collectives_per_sec / percall.collectives_per_sec;

  std::printf("%-12s %18s %18s %14s\n", "arm", "collectives/s", "allocs/start",
              "elapsed ms");
  std::printf("%-12s %18.1f %18.3f %14.3f\n", "percall",
              percall.collectives_per_sec, percall.allocs_per_start,
              percall.elapsed_ms);
  std::printf("%-12s %18.1f %18.3f %14.3f\n", "persistent",
              persistent.collectives_per_sec, persistent.allocs_per_start,
              persistent.elapsed_ms);
  std::printf("\nspeedup (persistent / percall): %.2fx\n", speedup);

  if (cli.has("json")) {
    const std::string path = cli.get("json", "steady.json");
    write_json(path, cfg, cluster, percall, persistent, speedup);
    std::cout << "json written to " << path << "\n";
  }
  return 0;
}
