#include "src/runtime/sharded_engine.hpp"

#include <algorithm>
#include <limits>

#include "src/mpi/reliable.hpp"
#include "src/obs/merge.hpp"
#include "src/support/error.hpp"

namespace adapt::runtime {

namespace {

constexpr TimeNs kInf = std::numeric_limits<TimeNs>::max();

/// Rank field of the event key occupies the low 20 bits.
constexpr int kRankBits = 20;

TimeNs beta_time(const topo::RouteCost& rc, Bytes bytes) {
  return static_cast<TimeNs>(rc.beta_ns_per_byte *
                             static_cast<double>(bytes));
}

}  // namespace

// -------------------------------------------------------- ShardExecutor ---

class ShardedEngine::ShardExecutor final : public mpi::RankExecutor {
 public:
  ShardExecutor(ShardedEngine& engine, Rank rank)
      : engine_(engine), rank_(rank) {}

  TimeNs now() const override { return engine_.shard_for(rank_).now; }
  void post(std::function<void()> fn, TimeNs cpu_cost) override {
    engine_.run_on(rank_, std::move(fn), cpu_cost);
  }
  void post_progress(std::function<void()> fn, TimeNs cpu_cost) override {
    engine_.run_progress(rank_, std::move(fn), cpu_cost);
  }
  void charge(TimeNs cpu_cost) override { engine_.charge(rank_, cpu_cost); }

 private:
  ShardedEngine& engine_;
  Rank rank_;
};

// -------------------------------------------------------- ShardTransport ---

// One stateless-per-call transport serves every shard: all mutable state it
// touches (tx_free_, shard queues, mailboxes, recorders) is owned by the
// producing rank's shard, so concurrent submits from different shards never
// share data. Delivery, completion and protocol legs are events keyed by the
// producing rank — the rank whose callback is executing at schedule time —
// which is what keeps per-rank sequence draws invariant to sharding.
class ShardedEngine::ShardTransport final : public mpi::Transport {
 public:
  explicit ShardTransport(ShardedEngine& engine) : engine_(engine) {}

  void submit(mpi::Envelope env, MemSpace src_space, MemSpace dst_space,
              std::function<void()> on_sent,
              std::function<void(mpi::ErrCode)> on_failed) override {
    ADAPT_CHECK(src_space == MemSpace::kHost && dst_space == MemSpace::kHost)
        << "the sharded engine is host-only; use SimEngine for GPU runs";
    (void)on_failed;  // no fault injection here: every submit succeeds
    const topo::RouteCost rc = engine_.topo_->route(env.src, env.dst);
    if (env.size <= engine_.machine_.spec().eager_threshold) {
      submit_eager(rc, std::move(env), std::move(on_sent));
    } else {
      submit_rendezvous(rc, std::move(env), std::move(on_sent));
    }
  }

 private:
  /// Eager: data departs immediately after the source's transmit queue
  /// frees, arrives alpha + beta*bytes later, and is buffered at the
  /// receiver if nothing matches. The sender completes at arrival (the
  /// last byte left the wire), as in the SimEngine's raw eager path.
  void submit_eager(const topo::RouteCost& rc, mpi::Envelope env,
                    std::function<void()> on_sent) {
    ShardedEngine& eng = engine_;
    const Rank src = env.src;
    const Rank dst = env.dst;
    const int ss = eng.shard_of(src);
    Shard& sh = *eng.shards_[static_cast<std::size_t>(ss)];
    const TimeNs now = sh.now;
    TimeNs& txf = eng.tx_free_[static_cast<std::size_t>(src)];
    const TimeNs depart = std::max(now, txf);
    const TimeNs serial = beta_time(rc, env.size);
    txf = depart + serial;
    const TimeNs arrive = depart + serial + rc.alpha;
    if (sh.rec) {
      const std::uint64_t id = sh.rec->transfer_begin(
          src, dst, env.size, static_cast<int>(mpi::Frame::Kind::kEager),
          now);
      if (id != 0) {
        sh.rec->transfer_active(id, depart + rc.alpha, serial);
        sh.rec->transfer_end(id, arrive);
      }
    }
    eng.post_at(ss, ss, arrive, eng.next_key(src),
                [&eng, src, on_sent = std::move(on_sent)]() mutable {
                  eng.run_progress(src, std::move(on_sent), 0);
                });
    eng.post_at(ss, eng.shard_of(dst), arrive, eng.next_key(src),
                [&eng, dst, env = std::move(env)]() mutable {
                  eng.endpoint(dst).deliver(std::move(env));
                });
  }

  /// Rendezvous: an alpha-only RTS races ahead; the matched receive grants
  /// on the receiver's shard, an alpha-only CTS returns to the sender, and
  /// only then does the bulk data pay beta (see rendezvous_grant/bulk).
  void submit_rendezvous(const topo::RouteCost& rc, mpi::Envelope env,
                         std::function<void()> on_sent) {
    ShardedEngine& eng = engine_;
    const Rank src = env.src;
    const Rank dst = env.dst;
    const int ss = eng.shard_of(src);
    Shard& sh = *eng.shards_[static_cast<std::size_t>(ss)];
    const TimeNs now = sh.now;
    const TimeNs rts_arrive = now + rc.alpha;
    if (sh.rec) {
      sh.rec->transfer_alpha_only(src, dst,
                                  static_cast<int>(mpi::Frame::Kind::kRts),
                                  now, rts_arrive);
    }
    mpi::Envelope rts;
    rts.src = src;
    rts.dst = dst;
    rts.tag = env.tag;
    rts.size = env.size;
    rts.grant = [&eng, rc, env = std::move(env),
                 on_sent = std::move(on_sent)](mpi::PostedRecv recv) mutable {
      eng.rendezvous_grant(rc, std::move(env), std::move(on_sent),
                           std::move(recv));
    };
    eng.post_at(ss, eng.shard_of(dst), rts_arrive, eng.next_key(src),
                [&eng, dst, rts = std::move(rts)]() mutable {
                  eng.endpoint(dst).deliver(std::move(rts));
                });
  }

  ShardedEngine& engine_;
};

/// A receive matched the RTS: runs on the RECEIVER's shard at match time.
/// The CTS leg back to the sender is keyed by the receiver (the producing
/// rank here), then the bulk leg continues on the sender's shard.
void ShardedEngine::rendezvous_grant(topo::RouteCost rc, mpi::Envelope env,
                                     std::function<void()> on_sent,
                                     mpi::PostedRecv recv) {
  const Rank src = env.src;
  const Rank dst = env.dst;
  const int ds = shard_of(dst);
  Shard& sh = *shards_[static_cast<std::size_t>(ds)];
  const TimeNs now = sh.now;
  const TimeNs cts_arrive = now + rc.alpha;
  if (sh.rec) {
    sh.rec->transfer_alpha_only(dst, src,
                                static_cast<int>(mpi::Frame::Kind::kCts), now,
                                cts_arrive);
  }
  post_at(ds, shard_of(src), cts_arrive, next_key(dst),
          [this, rc, env = std::move(env), on_sent = std::move(on_sent),
           recv = std::move(recv)]() mutable {
            rendezvous_bulk(rc, std::move(env), std::move(on_sent),
                            std::move(recv));
          });
}

/// CTS reached the sender: runs on the SENDER's shard. The bulk transfer
/// pays the serial-transmit queue plus alpha + beta*bytes; completion fires
/// at the sender and finalisation at the receiver, both at arrival time.
void ShardedEngine::rendezvous_bulk(topo::RouteCost rc, mpi::Envelope env,
                                    std::function<void()> on_sent,
                                    mpi::PostedRecv recv) {
  const Rank src = env.src;
  const Rank dst = env.dst;
  const int ss = shard_of(src);
  Shard& sh = *shards_[static_cast<std::size_t>(ss)];
  const TimeNs now = sh.now;
  TimeNs& txf = tx_free_[static_cast<std::size_t>(src)];
  const TimeNs depart = std::max(now, txf);
  const TimeNs serial = beta_time(rc, env.size);
  txf = depart + serial;
  const TimeNs arrive = depart + serial + rc.alpha;
  if (sh.rec) {
    const std::uint64_t id = sh.rec->transfer_begin(
        src, dst, env.size, static_cast<int>(mpi::Frame::Kind::kBulk), now);
    if (id != 0) {
      sh.rec->transfer_active(id, depart + rc.alpha, serial);
      sh.rec->transfer_end(id, arrive);
    }
  }
  post_at(ss, ss, arrive, next_key(src),
          [this, src, on_sent = std::move(on_sent)]() mutable {
            run_progress(src, std::move(on_sent), 0);
          });
  const TimeNs overhead = machine_.spec().cpu_overhead;
  post_at(ss, shard_of(dst), arrive, next_key(src),
          [this, dst, overhead, env = std::move(env),
           recv = std::move(recv)]() mutable {
            run_progress(
                dst,
                [this, dst, env = std::move(env), recv = std::move(recv)] {
                  endpoint(dst).finalize_recv(recv, env);
                },
                overhead);
          });
}

// ---------------------------------------------------------- ShardContext ---

class ShardedEngine::ShardContext final : public Context {
 public:
  ShardContext(ShardedEngine& engine, Rank rank)
      : engine_(engine), rank_(rank) {}

  Rank rank() const override { return rank_; }
  int nranks() const override { return engine_.machine_.nranks(); }
  TimeNs now() const override { return engine_.shard_for(rank_).now; }
  mpi::Endpoint& endpoint() override { return engine_.endpoint(rank_); }
  const topo::Machine& machine() const override { return engine_.machine_; }

  sim::Task<> compute(TimeNs cost) override {
    ADAPT_CHECK(cost >= 0);
    co_await sim::Suspend([this, cost](std::coroutine_handle<> h) {
      engine_.run_on(rank_, [h] { h.resume(); }, cost);
    });
  }

  void defer(TimeNs cpu_cost, std::function<void()> fn) override {
    engine_.run_on(rank_, std::move(fn), cpu_cost);
  }

  void defer_progress(TimeNs cpu_cost, std::function<void()> fn) override {
    engine_.run_progress(rank_, std::move(fn), cpu_cost);
  }

  sim::Task<> sleep_for(TimeNs duration) override {
    ADAPT_CHECK(duration >= 0);
    co_await sim::Suspend([this, duration](std::coroutine_handle<> h) {
      Shard& sh = engine_.shard_for(rank_);
      const int s = engine_.shard_of(rank_);
      engine_.post_at(s, s, sh.now + duration, engine_.next_key(rank_),
                      [h] { h.resume(); });
    });
  }

  support::BufferPool* pool() override { return &engine_.pool_; }
  obs::Recorder* recorder() override {
    return engine_.shard_for(rank_).rec.get();
  }
  // gpu/tuner/plan_cache/recovery stay at the base-class nullptr: those
  // subsystems are single-threaded by design and gated off here.

 private:
  ShardedEngine& engine_;
  Rank rank_;
};

// --------------------------------------------------------- ShardedEngine ---

ShardedEngine::ShardedEngine(const topo::Machine& machine,
                             ShardedEngineOptions options)
    : machine_(machine),
      options_(std::move(options)),
      machine_topo_(machine),
      topo_(options_.topology ? options_.topology : &machine_topo_),
      noise_(options_.noise ? options_.noise
                            : std::make_shared<noise::NoNoise>()) {
  const int n = machine_.nranks();
  ADAPT_CHECK(topo_->nranks() == n)
      << "topology describes " << topo_->nranks() << " ranks but the machine "
      << "places " << n;
  ADAPT_CHECK(n < (1 << kRankBits))
      << "event keys reserve " << kRankBits << " bits for the rank";
  ADAPT_CHECK(options_.shards >= 1);

  map_ = topo::make_shard_map(*topo_, options_.shards);
  lookahead_ = topo_->min_cross_block_alpha();
  ADAPT_CHECK(map_.shards == 1 || lookahead_ > 0)
      << "conservative sharding needs positive cross-block latency";

  shards_.reserve(static_cast<std::size_t>(map_.shards));
  for (int s = 0; s < map_.shards; ++s) {
    // Steady-state bound on the same-time cohort and radix levels: a few
    // in-flight events per local rank plus the historical floor, so shard
    // queues never reallocate mid-run (pinned by the allocation regression
    // test).
    const std::size_t local = map_.ranks[static_cast<std::size_t>(s)].size();
    shards_.push_back(std::make_unique<Shard>(local * 4 + 64));
    shards_.back()->outbox.resize(static_cast<std::size_t>(map_.shards));
  }
  if (map_.shards > 1) {
    workers_ = std::make_unique<support::ShardPool>(map_.shards);
  }

  busy_until_.assign(static_cast<std::size_t>(n), 0);
  progress_busy_until_.assign(static_cast<std::size_t>(n), 0);
  tx_free_.assign(static_cast<std::size_t>(n), 0);
  rank_seq_.assign(static_cast<std::size_t>(n), 0);

  transport_ = std::make_unique<ShardTransport>(*this);
  const mpi::EndpointCosts costs{machine_.spec().cpu_overhead,
                                 machine_.spec().unexpected_overhead,
                                 machine_.spec().memcpy_beta};
  executors_.reserve(static_cast<std::size_t>(n));
  endpoints_.reserve(static_cast<std::size_t>(n));
  contexts_.reserve(static_cast<std::size_t>(n));
  for (Rank r = 0; r < n; ++r) {
    executors_.push_back(std::make_unique<ShardExecutor>(*this, r));
    endpoints_.push_back(std::make_unique<mpi::Endpoint>(
        r, n, *executors_.back(), *transport_, costs));
    endpoints_.back()->set_pool(&pool_);
    contexts_.push_back(std::make_unique<ShardContext>(*this, r));
  }

  if (options_.recorder && options_.recorder->enabled()) {
    options_.recorder->init_ranks(n);
  }
}

ShardedEngine::~ShardedEngine() = default;

mpi::Endpoint& ShardedEngine::endpoint(Rank r) {
  ADAPT_CHECK(r >= 0 && r < machine_.nranks());
  return *endpoints_[static_cast<std::size_t>(r)];
}

Context& ShardedEngine::context(Rank r) {
  ADAPT_CHECK(r >= 0 && r < machine_.nranks());
  return *contexts_[static_cast<std::size_t>(r)];
}

std::uint64_t ShardedEngine::next_key(Rank r) {
  std::uint64_t& seq = rank_seq_[static_cast<std::size_t>(r)];
  ADAPT_CHECK(seq < (1ull << (64 - kRankBits)))
      << "per-rank event sequence overflow";
  return (seq++ << kRankBits) | static_cast<std::uint64_t>(r);
}

void ShardedEngine::post_at(int from, int to, TimeNs t, std::uint64_t tie,
                            sim::EventFn fn) {
  if (from == to) {
    shards_[static_cast<std::size_t>(to)]->queue.push_keyed(t, tie,
                                                            std::move(fn));
    return;
  }
  // Cross-shard: t is at least this window's end (route alpha >= lookahead),
  // so delivery at the next round's drain is never late.
  Shard& sh = *shards_[static_cast<std::size_t>(from)];
  sh.outbox[static_cast<std::size_t>(to)][epoch_ & 1].push_back(
      Msg{t, tie, std::move(fn)});
}

void ShardedEngine::run_on(Rank r, std::function<void()> fn,
                           TimeNs cpu_cost) {
  ADAPT_CHECK(cpu_cost >= 0);
  Shard& sh = shard_for(r);
  TimeNs& busy = busy_until_[static_cast<std::size_t>(r)];
  const TimeNs ready = std::max(sh.now, busy);
  const TimeNs start = noise_->next_free(r, ready);
  busy = start + cpu_cost;
  if (sh.rec) {
    sh.rec->cpu_task(r, /*progress=*/false, sh.now, ready, start, busy);
  }
  sh.queue.push_keyed(busy, next_key(r), std::move(fn));
}

void ShardedEngine::run_progress(Rank r, std::function<void()> fn,
                                 TimeNs cpu_cost) {
  ADAPT_CHECK(cpu_cost >= 0);
  Shard& sh = shard_for(r);
  TimeNs& busy = progress_busy_until_[static_cast<std::size_t>(r)];
  const TimeNs ready = std::max(sh.now, busy);
  busy = ready + cpu_cost;
  if (sh.rec) {
    sh.rec->cpu_task(r, /*progress=*/true, sh.now, ready, ready, busy);
  }
  sh.queue.push_keyed(busy, next_key(r), std::move(fn));
}

void ShardedEngine::charge(Rank r, TimeNs cpu_cost) {
  ADAPT_CHECK(cpu_cost >= 0);
  Shard& sh = shard_for(r);
  TimeNs& busy = busy_until_[static_cast<std::size_t>(r)];
  const TimeNs ready = std::max(sh.now, busy);
  busy = ready + cpu_cost;
  if (sh.rec) {
    sh.rec->cpu_task(r, /*progress=*/false, sh.now, ready, ready, busy);
  }
}

TimeNs ShardedEngine::pending_min(const Shard& sh) const {
  // peek_min_time, not next_time: this is a between-rounds probe, and
  // committing the queue's monotone cursor to a far-future local event would
  // reject legitimate nearer cross-shard messages drained next round.
  TimeNs t = sh.queue.empty() ? kInf : sh.queue.peek_min_time();
  for (const auto& box : sh.outbox) {
    for (const auto& epoch : box) {
      for (const Msg& m : epoch) t = std::min(t, m.time);
    }
  }
  return t;
}

void ShardedEngine::round(int s, TimeNs window) {
  Shard& sh = *shards_[static_cast<std::size_t>(s)];
  try {
    support::FrameArena::Scope frames(&sh.arena);
    // Drain the off-epoch inboxes: everything peers appended last round.
    const std::size_t prev = (epoch_ + 1) & 1;
    for (auto& peer : shards_) {
      auto& box = peer->outbox[static_cast<std::size_t>(s)][prev];
      sh.mailbox_msgs += box.size();
      for (Msg& m : box) sh.queue.push_keyed(m.time, m.tie, std::move(m.fn));
      box.clear();
    }
    // peek_min_time for the guard too: evaluating it on an idle shard must
    // not commit the cursor past messages the next drain will deliver. pop()
    // advances the cursor only to events actually executed (< window).
    bool ran = false;
    while (!sh.queue.empty() && sh.queue.peek_min_time() < window) {
      auto [t, fn] = sh.queue.pop();
      sh.now = t;
      fn();
      ran = true;
    }
    if (!ran) ++sh.idle_rounds;
  } catch (...) {
    sh.fatal = std::current_exception();
  }
}

RunResult ShardedEngine::run(const RankProgram& program) {
  const int n = machine_.nranks();
  const int S = shards();
  obs::Recorder* out = (options_.recorder && options_.recorder->enabled())
                           ? options_.recorder.get()
                           : nullptr;
  std::uint64_t scheduled_before = 0;
  if (out != nullptr) {
    for (auto& sh : shards_) {
      sh->rec = std::make_unique<obs::Recorder>(true);
      sh->rec->init_ranks(n);
      Shard* p = sh.get();
      sh->rec->set_clock([p] { return p->now; });
    }
    for (Rank r = 0; r < n; ++r) {
      endpoint(r).set_recorder(shard_for(r).rec.get());
    }
    scheduled_before = total_scheduled();
  }

  RunResult result;
  result.rank_finish.assign(static_cast<std::size_t>(n), -1);
  // Re-align the shard clocks before reusing the engine: each shard's clock
  // stopped at its OWN last event of the previous run, and the conservative
  // window protocol is only sound when clocks start within the lookahead of
  // each other. The alignment point — the time of the globally last event —
  // is shard-invariant, so back-to-back runs stay byte-identical for any
  // shard count (it is exactly where the single-shard clock already is).
  TimeNs start_time = 0;
  for (const auto& sh : shards_) start_time = std::max(start_time, sh->now);
  for (auto& sh : shards_) {
    sh->now = start_time;
    sh->finished = 0;
    sh->failures.clear();
    sh->fatal = nullptr;
  }

  for (Rank r = 0; r < n; ++r) {
    Shard* sh = &shard_for(r);
    run_on(
        r,
        [this, r, sh, &program, &result] {
          sim::run_detached(
              program(*contexts_[static_cast<std::size_t>(r)]),
              [r, sh, &result](std::exception_ptr ep) {
                result.rank_finish[static_cast<std::size_t>(r)] = sh->now;
                ++sh->finished;
                if (ep) sh->failures.emplace_back(r, ep);
              });
        },
        0);
  }

  if (S == 1) {
    Shard& sh = *shards_[0];
    support::FrameArena::Scope frames(&sh.arena);
    while (!sh.queue.empty()) {
      auto [t, fn] = sh.queue.pop();
      sh.now = t;
      fn();
    }
  } else {
    while (true) {
      TimeNs horizon = kInf;
      for (const auto& sh : shards_) {
        horizon = std::min(horizon, pending_min(*sh));
      }
      if (horizon == kInf) break;
      const TimeNs window =
          horizon > kInf - lookahead_ ? kInf : horizon + lookahead_;
      workers_->run_round([this, window](int s) { round(s, window); });
      ++epoch_;
      for (const auto& sh : shards_) {
        if (sh->fatal) std::rethrow_exception(sh->fatal);
      }
    }
  }

  // Rank-program failures: rethrow the lowest rank's (deterministic for any
  // shard count, unlike discovery order).
  std::exception_ptr failure;
  Rank failed_rank = -1;
  int finished = 0;
  for (const auto& sh : shards_) {
    finished += sh->finished;
    for (const auto& [r, ep] : sh->failures) {
      if (failed_rank < 0 || r < failed_rank) {
        failed_rank = r;
        failure = ep;
      }
    }
  }

  if (out != nullptr) {
    std::vector<const obs::Recorder*> parts;
    parts.reserve(shards_.size());
    for (const auto& sh : shards_) parts.push_back(sh->rec.get());
    obs::merge_recorders(parts, *out);
    out->queue_stats().scheduled += total_scheduled() - scheduled_before;
    // The rank-state gauge and its components: cumulative, shard-invariant
    // quantities only (peaks and pool-cache occupancy are interleaving-
    // dependent and must never reach byte-compared output).
    obs::MetricsRegistry& m = out->metrics();
    m.counter("sim.frame_bytes") = static_cast<std::int64_t>(frame_bytes());
    m.counter("sim.matcher_bytes") =
        static_cast<std::int64_t>(matcher_bytes());
    m.counter("sim.pool_bytes") =
        static_cast<std::int64_t>(pool_.acquired_bytes());
    m.counter("sim.rank_state_bytes") =
        static_cast<std::int64_t>(rank_state_bytes());
    for (Rank r = 0; r < n; ++r) endpoint(r).set_recorder(nullptr);
    for (auto& sh : shards_) sh->rec.reset();
  }

  if (failure) std::rethrow_exception(failure);
  ADAPT_CHECK(finished == n)
      << (n - finished) << " of " << n
      << " ranks never finished: deadlock (blocked on a message that is "
         "never sent)";
  result.total_time =
      *std::max_element(result.rank_finish.begin(), result.rank_finish.end());
  return result;
}

ShardedEngine::RoundStats ShardedEngine::round_stats() const {
  RoundStats stats;
  stats.rounds = epoch_;
  for (const auto& sh : shards_) {
    stats.idle_shard_rounds += sh->idle_rounds;
    stats.mailbox_msgs += sh->mailbox_msgs;
  }
  return stats;
}

std::uint64_t ShardedEngine::total_scheduled() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->queue.total_scheduled();
  return total;
}

std::uint64_t ShardedEngine::frame_bytes() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->arena.total_bytes();
  return total;
}

std::uint64_t ShardedEngine::matcher_bytes() const {
  std::uint64_t total = 0;
  for (const auto& ep : endpoints_) {
    total += static_cast<std::uint64_t>(ep->matcher().footprint_bytes());
  }
  return total;
}

std::uint64_t ShardedEngine::rank_state_bytes() const {
  return frame_bytes() + matcher_bytes() + pool_.acquired_bytes();
}

std::uint64_t ShardedEngine::rank_state_peak_bytes() const {
  std::uint64_t peak = 0;
  for (const auto& sh : shards_) peak += sh->arena.peak_bytes();
  return peak + matcher_bytes() + pool_.cached_bytes();
}

}  // namespace adapt::runtime
