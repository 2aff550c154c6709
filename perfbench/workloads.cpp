// The four workloads of the host-time benchmark (why each exists: README.md).
//
//   fabric_bcast_1024    SimEngine, fair-share fabric, ompi-default 4 MiB
//                        bcast, payload-free; one engine run per collective
//   adapt_percall_64     SimEngine + tuner, ompi-adapt personality: each
//                        round is a 64 KiB float-sum reduce to rank 0 and a
//                        bcast of the result, real buffers, checked
//   adapt_persistent_64  the same rounds through reduce_init/bcast_init and
//                        start/wait replay
//   sharded_bcast_4096   ShardedEngine, 1 MiB ADAPT bcast over the topo tree
//
// The seed picks payload values only; virtual time is the same for every
// seed.
#include <algorithm>
#include <cstring>
#include <optional>

#include "perfbench/bench.hpp"
#include "src/bench/cli.hpp"
#include "src/coll/coll.hpp"
#include "src/coll/library.hpp"
#include "src/coll/persistent.hpp"
#include "src/coll/topo_tree.hpp"
#include "src/coll/tree.hpp"
#include "src/runtime/sharded_engine.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/error.hpp"
#include "src/support/parallel.hpp"
#include "src/support/rng.hpp"
#include "src/tune/plan_cache.hpp"
#include "src/tune/tuner.hpp"

namespace perfbench {
namespace {

using namespace adapt;

std::unique_ptr<topo::Machine> build_machine(SpanLog& spans, int nodes,
                                             int ranks) {
  auto s = spans.span("topo.machine_build", "topo");
  return std::make_unique<topo::Machine>(
      bench::make_cluster("cori", nodes, ranks).machine);
}

std::int64_t ns_since(Clock::time_point t0) {
  const Clock::duration elapsed = Clock::now() - t0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
}

/// Median host ms of 5 calls of `build`, which constructs a tree.
template <typename Fn>
double tree_build_ms(SpanLog& spans, Fn build) {
  auto s = spans.span("probe.coll.tree_build", "coll");
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    build();
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(ms);
}

/// Endpoint counters summed over every rank of `engine`.
template <typename Engine>
void add_endpoint_counters(Engine& engine, int ranks, Counters& c) {
  for (Rank r = 0; r < ranks; ++r) {
    const mpi::Endpoint& ep = engine.endpoint(r);
    c.sends += ep.sends_started();
    c.recvs += ep.recvs_completed();
    c.unexpected += ep.matcher().total_unexpected();
  }
}

Counters sim_engine_counters(runtime::SimEngine& engine, int ranks,
                             const tune::Tuner* tuner) {
  Counters c;
  c.events = engine.simulator().events_processed();
  c.flows = engine.net().fabric().flows_completed();
  add_endpoint_counters(engine, ranks, c);
  if (tuner != nullptr) {
    c.table_hits = tuner->cache_hits();
    c.table_misses = tuner->cache_misses();
  }
  c.plan_hits = engine.plan_cache().hits();
  c.plan_misses = engine.plan_cache().misses();
  c.pool_hits = engine.pool().hits();
  c.pool_misses = engine.pool().misses();
  c.allocs = allocation_count();
  return c;
}

/// Host ms of one persistent init of `make_op` on every rank of `engine`
/// (the op is destroyed right after).
template <typename MakeOp>
double persistent_init_ms(runtime::Engine& engine, SpanLog& spans,
                          MakeOp make_op) {
  std::vector<coll::PersistentOpPtr> ops(
      static_cast<std::size_t>(engine.nranks()));
  const runtime::RankProgram init =
      [&](runtime::Context& ctx) -> sim::Task<> {
    ops[static_cast<std::size_t>(ctx.rank())] = make_op(ctx);
    co_return;
  };
  const Clock::time_point t0 = Clock::now();
  {
    auto s = spans.span("coll.persistent_init", "coll");
    engine.run(init);
  }
  return ms_between(t0, Clock::now());
}

// ------------------------------------------------------ fabric_bcast_1024

/// Fig. 10's heaviest host point: ompi-default (rank-order binary tree,
/// nonblocking + waitall) moving 4 MiB to 1024 ranks through the fair-share
/// fabric. One engine run per collective.
class FabricBcast final : public Workload {
 public:
  void setup(SpanLog& spans) override {
    machine_ = build_machine(spans, kNodes, kRanks);
    {
      auto s = spans.span("coll.make_library", "coll");
      lib_ = coll::make_library("ompi-default", *machine_);
    }
    {
      auto s = spans.span("runtime.engine_ctor", "runtime");
      engine_ = std::make_unique<runtime::SimEngine>(*machine_);
    }
    program_ = [this](runtime::Context& ctx) -> sim::Task<> {
      if (ctx.rank() == 0) start_ = ctx.now();
      co_await lib_->bcast(ctx, world_, mpi::MutView{nullptr, kMsg}, 0);
    };
    auto s = spans.span("runtime.warmup", "runtime");
    engine_->run(program_);
  }

  void teardown() override {
    engine_.reset();
    lib_.reset();
    machine_.reset();
  }

  void run_window(double seconds, SpanLog& spans, bool trace_every_other,
                  std::vector<Sample>& out, RssProbe& rss) override {
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (int i = 0; i == 0 || Clock::now() < end; ++i) {
      const Clock::time_point t0 = Clock::now();
      runtime::RunResult r;
      {
        auto s = spans.span("runtime.run", "runtime",
                            trace_every_other && i % 2 == 0);
        r = engine_->run(program_);
      }
      Sample sample;
      sample.host_ms = ms_between(t0, Clock::now());
      sample.virtual_ns = r.total_time - start_;
      out.push_back(sample);
      rss.completed(static_cast<std::size_t>(i) + 1);
    }
  }
  std::size_t rss_collectives() const override { return 4; }

  Counters counters() override {
    return sim_engine_counters(*engine_, kRanks, nullptr);
  }
  std::uint64_t peak_active_flows() override {
    return engine_->net().fabric().peak_active_flows();
  }
  int ranks() const override { return kRanks; }

  void layer_probes(SpanLog& spans, Metrics& out) override {
    out["coll.tree_build_ms"] = tree_build_ms(spans, [] {
      const coll::Tree t = coll::build_tree(coll::TreeKind::kBinary, kRanks, 0);
      (void)t;
    });
    out["coll.persistent_init_ms"] =
        persistent_init_ms(*engine_, spans, [this](runtime::Context& ctx) {
          return coll::bcast_init(ctx, world_, mpi::MutView{nullptr, kMsg}, 0);
        });
    const ChooseProbe choose =
        choose_probe(spans, *machine_, {tune::Op::kBcast}, kRanks, kMsg);
    out["tune.choose_hit_us"] = choose.hit_us;
    out["tune.choose_miss_ms"] = choose.miss_ms;
    out["runtime.sharded_speedup_vs_1"] = 1.0;  // single-threaded engine
  }

 private:
  static constexpr int kNodes = 32;
  static constexpr int kRanks = 1024;
  static constexpr Bytes kMsg = mib(4);

  const mpi::Comm world_ = mpi::Comm::world(kRanks);
  std::unique_ptr<topo::Machine> machine_;
  std::shared_ptr<coll::MpiLibrary> lib_;
  std::unique_ptr<runtime::SimEngine> engine_;
  runtime::RankProgram program_;
  TimeNs start_ = 0;
};

// ------------------------------------------- adapt_percall_64 / persistent

/// Reduce-then-bcast rounds on 2 nodes x 64 ranks with the tuner on, either
/// per call (ompi-adapt personality) or through persistent handles. All
/// rounds of a window run inside ONE engine run, so per-run engine work
/// (one closure per rank) never shows up as per-collective allocation; rank
/// 0 marks host and virtual time at the start of every round. The window
/// run opens with a lead-in round and closes with a cool-down round, which
/// are not measured.
class Adapt64 final : public Workload {
 public:
  Adapt64(bool persistent, std::uint64_t seed) : persistent_(persistent) {
    // Small integers keep every float sum exact in any reduction order, so
    // the expected result is order-independent. Two input sets alternate by
    // round parity: a rank left holding the previous round's result fails.
    Rng rng(seed);
    for (int parity = 0; parity < 2; ++parity) {
      expected_[parity].assign(kFloats, 0.0f);
      inputs_[parity].resize(kRanks);
      for (int r = 0; r < kRanks; ++r) {
        Rng stream = rng.split(static_cast<std::uint64_t>(parity * kRanks + r));
        auto& in = inputs_[parity][static_cast<std::size_t>(r)];
        in.resize(kFloats);
        for (std::size_t i = 0; i < kFloats; ++i) {
          in[i] = static_cast<float>(stream.next_below(256));
          expected_[parity][i] += in[i];
        }
      }
    }
    bufs_.assign(kRanks, std::vector<float>(kFloats, 0.0f));
    marks_.reserve(kMaxRounds + 1);
    bad_.assign(kMaxRounds, 0);
  }

  void setup(SpanLog& spans) override {
    machine_ = build_machine(spans, kNodes, kRanks);
    {
      auto s = spans.span("tune.tuner_ctor", "tune");
      tuner_ = std::make_shared<tune::Tuner>(*machine_);
    }
    {
      auto s = spans.span("runtime.engine_ctor", "runtime");
      runtime::SimEngineOptions options;
      options.tuning = tuner_;
      engine_ = std::make_unique<runtime::SimEngine>(*machine_, options);
    }
    if (persistent_) {
      reduce_ops_.resize(kRanks);
      bcast_ops_.resize(kRanks);
      const runtime::RankProgram init =
          [this](runtime::Context& ctx) -> sim::Task<> {
        const auto r = static_cast<std::size_t>(ctx.rank());
        reduce_ops_[r] =
            coll::reduce_init(ctx, world_, view(ctx.rank()),
                              mpi::ReduceOp::kSum, mpi::Datatype::kFloat, 0);
        bcast_ops_[r] = coll::bcast_init(ctx, world_, view(ctx.rank()), 0);
        co_return;
      };
      auto s = spans.span("coll.persistent_init", "coll");
      engine_->run(init);
    } else {
      auto s = spans.span("coll.make_library", "coll");
      lib_ = coll::make_library("ompi-adapt", *machine_);
    }
    program_ = [this](runtime::Context& ctx) -> sim::Task<> {
      co_await rounds(ctx);
    };
    round_ = 0;
    stop_ = kWarmRounds;
    deadline_.reset();
    marks_.clear();
    auto s = spans.span("runtime.warmup", "runtime");
    engine_->run(program_);
    round_ += kWarmRounds;
  }

  void teardown() override {
    reduce_ops_.clear();
    bcast_ops_.clear();
    engine_.reset();
    lib_.reset();
    tuner_.reset();
    machine_.reset();
  }

  /// The benchmark makes one call into the library per window (the engine
  /// run); rounds inside it are not spanned, so `trace_every_other` has
  /// nothing to add here.
  void run_window(double seconds, SpanLog& spans, bool /*trace_every_other*/,
                  std::vector<Sample>& out, RssProbe& rss) override {
    rss_ = &rss;
    marks_.clear();
    std::fill(bad_.begin(), bad_.end(), 0);
    stop_ = kMaxRounds;
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    {
      auto s = spans.span("runtime.run", "runtime");
      engine_->run(program_);
    }
    rss_ = nullptr;
    // Round 0 starts with every rank aligned and the cool-down round ends in
    // the drain; only the rounds between them run in steady state.
    for (std::int64_t i = 1; i + 1 < stop_; ++i) {
      const Mark& a = marks_[static_cast<std::size_t>(i)];
      const Mark& b = marks_[static_cast<std::size_t>(i) + 1];
      Sample sample;
      sample.host_ms =
          ms_between(a.host, b.host) - (b.bench_ns - a.bench_ns) / 1e6;
      sample.virtual_ns = b.virt - a.virt;
      sample.payload_ok = bad_[static_cast<std::size_t>(i)] == 0;
      out.push_back(sample);
    }
    round_ += stop_;
  }

  std::size_t rss_collectives() const override { return 1000; }

  Counters counters() override {
    return sim_engine_counters(*engine_, kRanks, tuner_.get());
  }
  std::uint64_t peak_active_flows() override {
    return engine_->net().fabric().peak_active_flows();
  }
  int ranks() const override { return kRanks; }

  void layer_probes(SpanLog& spans, Metrics& out) override {
    const tune::Decision reduce =
        tuner_->choose(tune::Op::kReduce, kRanks, kBytes);
    const tune::Decision bcast =
        tuner_->choose(tune::Op::kBcast, kRanks, kBytes);
    out["coll.tree_build_ms"] = tree_build_ms(spans, [&] {
      const coll::Tree a = tune::decision_tree(*machine_, world_, 0, reduce);
      const coll::Tree b = tune::decision_tree(*machine_, world_, 0, bcast);
      (void)a;
      (void)b;
    });
    if (persistent_) {
      // The init the setup paid (plan-cache miss), median over set-ups.
      out["coll.persistent_init_ms"] =
          median(spans.durations_ms("coll.persistent_init"));
    } else {
      out["coll.persistent_init_ms"] =
          persistent_init_ms(*engine_, spans, [this](runtime::Context& ctx) {
            return coll::reduce_init(ctx, world_, view(ctx.rank()),
                                     mpi::ReduceOp::kSum,
                                     mpi::Datatype::kFloat, 0);
          });
    }
    const ChooseProbe choose =
        choose_probe(spans, *machine_, {tune::Op::kReduce, tune::Op::kBcast},
                     kRanks, kBytes);
    out["tune.choose_hit_us"] = choose.hit_us;
    out["tune.choose_miss_ms"] = choose.miss_ms;
    out["runtime.sharded_speedup_vs_1"] = 1.0;  // single-threaded engine
  }

 private:
  static constexpr int kNodes = 2;
  static constexpr int kRanks = 64;
  static constexpr Bytes kBytes = kib(64);
  static constexpr std::size_t kFloats = kBytes / sizeof(float);
  /// Warm-up covers first-touch growth of matcher buckets and pool size
  /// classes, so the window starts in steady state.
  static constexpr std::int64_t kWarmRounds = 80;
  static constexpr std::int64_t kMaxRounds = 1 << 20;

  struct Mark {
    Clock::time_point host;
    TimeNs virt;
    std::int64_t bench_ns;  ///< benchmark-owned host time so far
  };

  mpi::MutView view(Rank r) {
    auto& b = bufs_[static_cast<std::size_t>(r)];
    return mpi::MutView{reinterpret_cast<std::byte*>(b.data()), kBytes};
  }

  /// Rank 0 at the start of window round i. Once the deadline has passed,
  /// round i is the last measured one and round i+1 a cool-down; rank 0
  /// decides before any rank can start round i+1, since that needs this
  /// round's bcast from rank 0.
  void mark(std::int64_t i, TimeNs now) {
    if (!deadline_ || i >= stop_) return;
    const Clock::time_point host = Clock::now();
    marks_.push_back(Mark{host, now, bench_ns_});
    if (i >= 1) rss_->completed(static_cast<std::size_t>(i - 1));
    if (i >= 1 && stop_ == kMaxRounds &&
        (host >= *deadline_ || i + 2 == kMaxRounds)) {
      stop_ = i + 2;
    }
  }

  sim::Task<> rounds(runtime::Context& ctx) {
    const Rank rank = ctx.rank();
    const auto r = static_cast<std::size_t>(rank);
    float* buf = bufs_[r].data();
    for (std::int64_t i = 0;; ++i) {
      if (rank == 0) mark(i, ctx.now());
      if (i >= stop_) break;
      const auto parity = static_cast<std::size_t>((round_ + i) & 1);
      Clock::time_point t0 = Clock::now();
      std::memcpy(buf, inputs_[parity][r].data(), kBytes);
      bench_ns_ += ns_since(t0);
      if (persistent_) {
        ADAPT_CHECK(reduce_ops_[r]->start() == mpi::ErrCode::kOk);
        co_await reduce_ops_[r]->wait();
        ADAPT_CHECK(bcast_ops_[r]->start() == mpi::ErrCode::kOk);
        co_await bcast_ops_[r]->wait();
      } else {
        co_await lib_->reduce(ctx, world_, view(rank), mpi::ReduceOp::kSum,
                              mpi::Datatype::kFloat, 0);
        co_await lib_->bcast(ctx, world_, view(rank), 0);
      }
      t0 = Clock::now();
      if (std::memcmp(buf, expected_[parity].data(), kBytes) != 0 &&
          deadline_) {
        bad_[static_cast<std::size_t>(i)] = 1;
      }
      bench_ns_ += ns_since(t0);
    }
  }

  const bool persistent_;
  const mpi::Comm world_ = mpi::Comm::world(kRanks);
  std::vector<std::vector<float>> inputs_[2];  ///< [parity][rank]
  std::vector<float> expected_[2];             ///< [parity]
  std::vector<std::vector<float>> bufs_;       ///< [rank]

  std::unique_ptr<topo::Machine> machine_;
  std::shared_ptr<tune::Tuner> tuner_;
  std::unique_ptr<runtime::SimEngine> engine_;
  std::shared_ptr<coll::MpiLibrary> lib_;
  std::vector<coll::PersistentOpPtr> reduce_ops_;
  std::vector<coll::PersistentOpPtr> bcast_ops_;
  runtime::RankProgram program_;

  std::int64_t round_ = 0;  ///< rounds run before the current engine run
  std::int64_t stop_ = 0;   ///< rounds the current run executes
  std::optional<Clock::time_point> deadline_;  ///< set only in the window
  std::vector<Mark> marks_;
  std::vector<char> bad_;  ///< per window round: some rank's check failed
  std::int64_t bench_ns_ = 0;
  RssProbe* rss_ = nullptr;
};

// ----------------------------------------------------- sharded_bcast_4096

/// The conservative window/barrier core: ADAPT bcast of 1 MiB in 64 KiB
/// segments over build_topo_tree on 128 nodes x 4096 ranks, 4 shards (or
/// nproc, if smaller). One engine run per collective.
class ShardedBcast final : public Workload {
 public:
  void setup(SpanLog& spans) override {
    machine_ = build_machine(spans, kNodes, kRanks);
    {
      auto s = spans.span("coll.tree_build", "coll");
      tree_ = std::make_unique<coll::Tree>(
          coll::build_topo_tree(*machine_, world_, 0));
    }
    engine_ = make_engine(spans, shards(), nullptr);
    program_ = [this](runtime::Context& ctx) -> sim::Task<> {
      if (ctx.rank() == 0) start_ = ctx.now();
      co_await coll::bcast(ctx, world_, mpi::MutView{nullptr, kMsg}, 0,
                           *tree_, coll::Style::kAdapt,
                           coll::CollOpts{.segment_size = kSeg});
    };
    auto s = spans.span("runtime.warmup", "runtime");
    engine_->run(program_);
  }

  void teardown() override {
    engine_.reset();
    tree_.reset();
    machine_.reset();
  }

  void run_window(double seconds, SpanLog& spans, bool trace_every_other,
                  std::vector<Sample>& out, RssProbe& rss) override {
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (int i = 0; i == 0 || Clock::now() < end; ++i) {
      out.push_back(run_one(*engine_, spans, trace_every_other && i % 2 == 0));
      rss.completed(static_cast<std::size_t>(i) + 1);
    }
  }
  std::size_t rss_collectives() const override { return 20; }

  Counters counters() override {
    Counters c;
    add_endpoint_counters(*engine_, kRanks, c);
    c.pool_hits = engine_->pool().hits();
    c.pool_misses = engine_->pool().misses();
    c.allocs = allocation_count();
    return c;
  }
  std::uint64_t rank_state_peak_bytes() override {
    return engine_->rank_state_peak_bytes();
  }
  int ranks() const override { return kRanks; }

  double counted_events_per_coll(SpanLog& spans) override {
    // The sharded engine keeps its event count private; a recorder-enabled
    // twin reports the events scheduled for one collective.
    auto recorder = std::make_shared<obs::Recorder>();
    auto twin = make_engine(spans, shards(), recorder);
    run_one(*twin, spans, true);
    return static_cast<double>(recorder->queue_stats().scheduled);
  }

  void layer_probes(SpanLog& spans, Metrics& out) override {
    out["coll.tree_build_ms"] = tree_build_ms(spans, [this] {
      const coll::Tree t = coll::build_topo_tree(*machine_, world_, 0);
      (void)t;
    });
    {
      // ShardedEngine has no plan cache, so a persistent handle would carry
      // a private copy of the 4096-rank tree per rank; the init is measured
      // on a SimEngine over the same machine, where ranks share one plan.
      runtime::SimEngine sim(*machine_);
      out["coll.persistent_init_ms"] =
          persistent_init_ms(sim, spans, [this](runtime::Context& ctx) {
            return coll::bcast_init(
                ctx, world_, mpi::MutView{nullptr, kMsg}, 0,
                coll::PersistentOpts{.coll = {.segment_size = kSeg}});
          });
    }
    const ChooseProbe choose =
        choose_probe(spans, *machine_, {tune::Op::kBcast}, kRanks, kMsg);
    out["tune.choose_hit_us"] = choose.hit_us;
    out["tune.choose_miss_ms"] = choose.miss_ms;

    std::vector<double> sharded;
    for (int i = 0; i < kSpeedupColls; ++i) {
      sharded.push_back(run_one(*engine_, spans, true).host_ms);
    }
    auto single = make_engine(spans, 1, nullptr);
    run_one(*single, spans, true);  // warm-up
    std::vector<double> one;
    for (int i = 0; i < kSpeedupColls; ++i) {
      one.push_back(run_one(*single, spans, true).host_ms);
    }
    out["runtime.sharded_speedup_vs_1"] = median(one) / median(sharded);
  }

 private:
  static constexpr int kNodes = 128;
  static constexpr int kRanks = 4096;
  static constexpr int kMaxShards = 4;
  static constexpr int kSpeedupColls = 5;
  static constexpr Bytes kMsg = mib(1);
  static constexpr Bytes kSeg = kib(64);

  static int shards() {
    return std::min(support::hardware_jobs(), kMaxShards);
  }

  std::unique_ptr<runtime::ShardedEngine> make_engine(
      SpanLog& spans, int shards, std::shared_ptr<obs::Recorder> recorder) {
    auto s = spans.span("runtime.engine_ctor", "runtime");
    runtime::ShardedEngineOptions options;
    options.shards = shards;
    options.recorder = std::move(recorder);
    return std::make_unique<runtime::ShardedEngine>(*machine_, options);
  }

  Sample run_one(runtime::ShardedEngine& engine, SpanLog& spans, bool traced) {
    const Clock::time_point t0 = Clock::now();
    runtime::RunResult r;
    {
      auto s = spans.span("runtime.run", "runtime", traced);
      r = engine.run(program_);
    }
    Sample sample;
    sample.host_ms = ms_between(t0, Clock::now());
    sample.virtual_ns = r.total_time - start_;
    // FNV-1a over the duration and every rank's finish offset.
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    mix(static_cast<std::uint64_t>(sample.virtual_ns));
    for (const TimeNs t : r.rank_finish) {
      mix(static_cast<std::uint64_t>(t - start_));
    }
    sample.finish_hash = h;
    return sample;
  }

  const mpi::Comm world_ = mpi::Comm::world(kRanks);
  std::unique_ptr<topo::Machine> machine_;
  std::unique_ptr<coll::Tree> tree_;
  std::unique_ptr<runtime::ShardedEngine> engine_;
  runtime::RankProgram program_;
  TimeNs start_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fabric_bcast_1024", "adapt_percall_64", "adapt_persistent_64",
      "sharded_bcast_4096"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "fabric_bcast_1024") return std::make_unique<FabricBcast>();
  if (name == "adapt_percall_64") return std::make_unique<Adapt64>(false, seed);
  if (name == "adapt_persistent_64") {
    return std::make_unique<Adapt64>(true, seed);
  }
  if (name == "sharded_bcast_4096") return std::make_unique<ShardedBcast>();
  return nullptr;
}

}  // namespace perfbench
