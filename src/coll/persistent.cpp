// ADAPT's event-driven pipelines: replayed from a cached plan with zero
// steady-state allocation by persistent handles, and run once per call by
// Style::kAdapt bcast/reduce (see persistent.hpp).
#include "src/coll/persistent.hpp"

#include <algorithm>

#include "src/coll/detail.hpp"
#include "src/gpu/device.hpp"
#include "src/support/buffer_pool.hpp"
#include "src/support/error.hpp"
#include "src/tune/tuner.hpp"

namespace adapt::coll {

namespace {

/// Round-robin tag blocks per handle: enough that a straggler frame from a
/// failed round k can never match a receive of round k+block (blocks cycle
/// long after any fault-injected retransmit window closed).
constexpr int kTagRounds = 4;

constexpr std::uint64_t pack3(std::size_t c, int s, int window) {
  return (static_cast<std::uint64_t>(c) << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(s)) << 8) |
         static_cast<std::uint64_t>(static_cast<std::uint8_t>(window));
}
constexpr std::size_t unpack_c(std::uint64_t v) {
  return static_cast<std::size_t>(v >> 40);
}
constexpr int unpack_s(std::uint64_t v) {
  return static_cast<int>((v >> 8) & 0xffffffffu);
}
constexpr int unpack_w(std::uint64_t v) {
  return static_cast<int>(v & 0xffu);
}

int ceil_log2(int n) {
  int rounds = 0;
  for (int span = 1; span < n; span *= 2) ++rounds;
  return rounds;
}

const char* kind_name(PersistentOp::Kind kind) {
  switch (kind) {
    case PersistentOp::Kind::kBcast: return "bcast";
    case PersistentOp::Kind::kReduce: return "reduce";
    case PersistentOp::Kind::kAllreduce: return "allreduce";
    case PersistentOp::Kind::kBarrier: return "barrier";
  }
  return "?";
}

tune::PlanOp plan_op_of(PersistentOp::Kind kind) {
  switch (kind) {
    case PersistentOp::Kind::kBcast: return tune::PlanOp::kBcast;
    case PersistentOp::Kind::kReduce: return tune::PlanOp::kReduce;
    case PersistentOp::Kind::kAllreduce: return tune::PlanOp::kAllreduce;
    case PersistentOp::Kind::kBarrier: return tune::PlanOp::kBarrier;
  }
  return tune::PlanOp::kBcast;
}

}  // namespace

// ------------------------------------------------------------------- init ---

void PersistentOp::init_persistent(Bytes bytes, Rank root,
                                   const PersistentOpts& opts) {
  runtime::Context& ctx = *ctx_;
  const mpi::Comm& comm = comm_;
  ADAPT_CHECK(comm.contains(ctx.rank()))
      << "rank " << ctx.rank() << " not a member of the communicator";
  ADAPT_CHECK(opts.partitions >= 0);
  ADAPT_CHECK(!opts.coll.gpu_host_cache && !opts.coll.gpu_reduce)
      << "persistent collectives are CPU-path only";
  ADAPT_CHECK(opts.coll.outstanding_sends >= 1);
  ADAPT_CHECK(opts.coll.outstanding_recvs >= 1);
  opts_ = opts.coll;
  partitions_ = opts.partitions;

  // -- plan: cache lookup, tuner pin, or explicit tree --------------------
  const bool has_tree = kind_ != Kind::kBarrier;
  if (has_tree) {
    ADAPT_CHECK(root >= 0 && root < comm.size());
  }
  tune::PlanCache* cache = ctx.plan_cache();
  const tune::PlanKey key{plan_op_of(kind_), comm.fingerprint(),
                          tune::Tuner::bucket(bytes), root};
  if (opts.tree != nullptr) {
    // Caller-supplied tree: build a private (uncached) plan around it.
    ADAPT_CHECK(has_tree) << "barrier takes no tree";
    ADAPT_CHECK(opts.tree->root == root)
        << "tree rooted at " << opts.tree->root << ", collective root "
        << root;
    tune::CachedPlan plan;
    plan.tree = *opts.tree;
    plan.segment = opts_.segment_size;
    plan.comm = comm.state();
    plan_ = std::make_shared<const tune::CachedPlan>(std::move(plan));
  } else {
    plan_ = cache ? cache->find(key) : nullptr;
    if (cache != nullptr) {
      // Plan-cache timeline event (the counters live in PlanCache itself);
      // arg is the size bucket so hit/miss streams line up across handles.
      if (obs::Recorder* rec = ctx.recorder()) {
        rec->instant(obs::rank_pid(ctx.rank()), obs::kTidMain,
                     obs::Cat::kCache, plan_ ? "plan_hit" : "plan_miss",
                     rec->now(), key.bucket);
      }
    }
    if (!plan_) {
      tune::CachedPlan plan;
      plan.comm = comm.state();
      if (tune::Tuner* tuner = ctx.tuner(); tuner != nullptr && has_tree) {
        // Pin the decision now: choose() also records it in the engine's
        // DecisionTable, so the table doubles as the persistent plan cache's
        // pricing layer.
        const tune::Op top = kind_ == Kind::kBcast ? tune::Op::kBcast
                                                   : tune::Op::kReduce;
        tune::Tuner::ChooseStats tstats;
        const tune::Decision d = tuner->choose(top, comm.size(), bytes,
                                               &tstats);
        if (obs::Recorder* rec = ctx.recorder()) {
          obs::MetricsRegistry& m = rec->metrics();
          m.counter(tstats.cache_hit ? "tuner.hits" : "tuner.misses") += 1;
          m.histogram("tuner.bucket").record(tune::Tuner::bucket(bytes));
          rec->instant(obs::rank_pid(ctx.rank()), obs::kTidMain,
                       obs::Cat::kTune, "tune " + tune::decision_label(d),
                       rec->now(), d.predicted);
        }
        plan.decision = d;
        plan.tuned = true;
        plan.tree = tune::decision_tree(ctx.machine(), comm, root, d);
        plan.segment = tune::decision_segment(d, bytes);
      } else if (has_tree) {
        // Untuned default: the paper's topology-aware chain configuration.
        plan.tree = tune::decision_tree(ctx.machine(), comm, root,
                                        tune::Decision{});
        plan.segment = opts_.segment_size;
      }
      plan_ = cache ? cache->insert(key, std::move(plan))
                    : std::make_shared<const tune::CachedPlan>(
                          std::move(plan));
    }
  }
  if (plan_->segment > 0) opts_.segment_size = plan_->segment;

  // -- resolve this rank's edges ------------------------------------------
  if (has_tree) {
    edges_ = detail::resolve(ctx, comm, plan_->tree);
  } else {
    edges_.me_local = comm.local_of(ctx.rank());
  }

  segs_ = Segmenter(bytes, opts_.segment_size);
  const int S = segs_.count();
  bar_rounds_ = kind_ == Kind::kBarrier ? ceil_log2(comm.size()) : 0;

  // -- tag blocks ----------------------------------------------------------
  switch (kind_) {
    case Kind::kBcast:
    case Kind::kReduce: per_round_tags_ = S; break;
    case Kind::kAllreduce: per_round_tags_ = 2 * S; break;
    case Kind::kBarrier: per_round_tags_ = std::max(bar_rounds_, 1); break;
  }
  base_tag_ = ctx.alloc_tags(static_cast<Tag>(per_round_tags_) * kTagRounds);

  size_state();

  // -- warm the engine pool for the round's eager footprint ----------------
  // In-flight eager copies: N per child edge plus N up plus M unexpected
  // staging slots. One reserve call at init keeps every steady-state
  // acquire a free-list hit.
  if (support::BufferPool* pool = ctx.pool();
      pool != nullptr && !buffer_.synthetic() && bytes > 0) {
    const int in_flight =
        static_cast<int>(edges_.kids_global.size() + 1) *
            opts_.outstanding_sends +
        opts_.outstanding_recvs;
    pool->reserve(std::min(opts_.segment_size, std::max<Bytes>(bytes, 1)),
                  in_flight);
  }
}

void PersistentOp::size_state() {
  const auto S = static_cast<std::size_t>(segs_.count());
  const std::size_t nkids = edges_.kids_global.size();
  const auto P = static_cast<std::size_t>(partitions_);
  part_ready_.assign(P, 0);
  if (P > 0) local_ready_.assign(S, 0);
  if (kind_ == Kind::kBcast || kind_ == Kind::kAllreduce) {
    received_.assign(S, 0);
    next_send_.assign(nkids, 0);
    inflight_.assign(nkids, 0);
  }
  if (kind_ == Kind::kReduce || kind_ == Kind::kAllreduce) {
    contributed_.assign(S, 0);
    next_recv_.assign(nkids, 0);
    ready_q_.assign(S, 0);
    if (P > 0) {
      // Only partitioned rounds park folds (child data beating pready).
      pending_folds_.resize(S);
      for (auto& q : pending_folds_) q.reserve(nkids);
    }
    // The op owns its fold scratch for life — no per-round Payload churn.
    const std::size_t windows =
        nkids * static_cast<std::size_t>(opts_.outstanding_recvs);
    scratch_.reserve(windows);
    for (std::size_t i = 0; i < windows; ++i) {
      scratch_.push_back(mpi::Payload::scratch(
          ctx_->pool(), opts_.segment_size, buffer_.synthetic()));
    }
    ADAPT_CHECK(!opts_.gpu_reduce || nkids == 0 || ctx_->gpu() != nullptr)
        << "gpu_reduce on a rank without a GPU";
  }

  // §4.1 host cache: a non-root rank whose parent edge lands in HOST memory
  // keeps the cache as its primary space and flushes each segment down to
  // its GPU; the root's data starts on the GPU, so it pulls each segment UP
  // into the cache. Child edges sourcing the staged space gate on the copy.
  if (kind_ == Kind::kBcast && opts_.gpu_host_cache) {
    const Rank me = ctx_->rank();
    stage_dst_ = edges_.is_root ? MemSpace::kHost : MemSpace::kDevice;
    flushes_ = edges_.is_root ||
               opts_.spaces(edges_.parent_global, me).dst_space ==
                   MemSpace::kHost;
    if (flushes_) {
      ADAPT_CHECK(ctx_->gpu() != nullptr) << "gpu_host_cache on a non-GPU rank";
      alt_ready_.assign(S, 0);
      child_needs_alt_.assign(nkids, 0);
      for (std::size_t c = 0; c < nkids; ++c) {
        child_needs_alt_[c] =
            opts_.spaces(me, edges_.kids_global[c]).src_space == stage_dst_;
      }
    }
  }
}

std::unique_ptr<PersistentOp> PersistentOp::launch_one_shot(
    runtime::Context& ctx, const mpi::Comm& comm, Kind kind,
    detail::Edges edges, mpi::MutView buffer, mpi::ReduceOp rop,
    mpi::Datatype dtype, const CollOpts& opts, Tag base_tag) {
  ADAPT_CHECK(kind == Kind::kBcast || kind == Kind::kReduce);
  ADAPT_CHECK(opts.outstanding_sends >= 1);
  ADAPT_CHECK(opts.outstanding_recvs >= 1);
  std::unique_ptr<PersistentOp> op(
      new PersistentOp(ctx, comm, kind, buffer, rop, dtype));
  op->one_shot_ = true;
  op->opts_ = opts;
  op->edges_ = std::move(edges);
  op->segs_ = Segmenter(buffer.size, opts.segment_size);
  op->base_tag_ = base_tag;  // a single round: block 0 of the tag space
  op->size_state();
  op->launch();
  return op;
}

sim::Task<> PersistentOp::one_shot(runtime::Context& ctx,
                                   const mpi::Comm& comm, Kind kind,
                                   detail::Edges edges, mpi::MutView buffer,
                                   mpi::ReduceOp rop, mpi::Datatype dtype,
                                   const CollOpts& opts, Tag base_tag) {
  std::unique_ptr<PersistentOp> op =
      launch_one_shot(ctx, comm, kind, std::move(edges), buffer, rop, dtype,
                      opts, base_tag);
  co_await op->wait();
  // The callback chain ran entirely in the progress context; completing the
  // collective is observed by the application thread.
  co_await ctx.compute(0);
  const mpi::ErrCode error = op->error_;
  if (op->in_flight_) {
    // Woke at the first failure with callbacks still posted: they capture
    // the op, so the Context keeps it until the last one retires (or the
    // engine tears down with requests still posted).
    op->parked_ = true;
    ctx.park(std::move(op));
  }
  if (error != mpi::ErrCode::kOk) {
    throw mpi::FaultError(
        error, std::string("adapt ") + kind_name(kind) + " failed");
  }
}

PersistentOp::~PersistentOp() {
  // Destroying a handle mid-round would leave callbacks pointing at freed
  // state; wait() first (its drain guarantee is what makes `this` captures
  // safe). A parked one-shot op dies mid-round only with its Context, when
  // no callback can run any more.
  ADAPT_CHECK(!in_flight_ || parked_)
      << "PersistentOp destroyed with a round in flight";
}

// -------------------------------------------------------------- lifecycle ---

mpi::ErrCode PersistentOp::start() {
  if (in_flight_) return mpi::ErrCode::kErrPending;
  if (!comm_.alive()) {
    // Either way no new round may start, but the codes differ: a freed
    // communicator is a programming error (handle gone for good), a revoked
    // one is the recovery layer saying "shrink and re-init" — recoverable.
    // Both drop any cached plans keyed by it, so the cache cannot serve this
    // plan to a future lookalike lookup.
    if (tune::PlanCache* cache = ctx_->plan_cache()) {
      cache->invalidate_comm(comm_.fingerprint());
      if (obs::Recorder* rec = ctx_->recorder()) {
        rec->instant(obs::rank_pid(ctx_->rank()), obs::kTidMain,
                     obs::Cat::kCache, "plan_invalidate", rec->now(),
                     static_cast<std::int64_t>(comm_.fingerprint()));
      }
    }
    return comm_.state()->freed ? mpi::ErrCode::kErrCommFreed
                                : mpi::ErrCode::kErrRevoked;
  }
  if (obs::Recorder* rec = ctx_->recorder()) {
    rec->instant(obs::rank_pid(ctx_->rank()), obs::kTidProgress,
                 obs::Cat::kTask, "pstart", rec->now(), rounds_completed_);
  }
  launch();
  return mpi::ErrCode::kOk;
}

void PersistentOp::launch() {
  reset_round();
  in_flight_ = true;
  switch (kind_) {
    case Kind::kBcast:
      start_bcast();
      break;
    case Kind::kReduce:
      start_reduce();
      break;
    case Kind::kAllreduce:
      start_reduce();
      start_bcast();
      break;
    case Kind::kBarrier:
      start_barrier();
      break;
  }
  check_round_done();  // trivial rounds (1-rank comms) finish synchronously
}

void PersistentOp::reset_round() {
  error_ = mpi::ErrCode::kOk;
  remaining_ = 0;
  outstanding_ = 0;
  next_recv_post_ = 0;
  inflight_up_ = 0;
  ready_head_ = ready_tail_ = 0;
  std::fill(part_ready_.begin(), part_ready_.end(), char{0});
  std::fill(local_ready_.begin(), local_ready_.end(), char{0});
  std::fill(alt_ready_.begin(), alt_ready_.end(), char{0});
  std::fill(next_send_.begin(), next_send_.end(), 0);
  std::fill(inflight_.begin(), inflight_.end(), 0);
  std::fill(contributed_.begin(), contributed_.end(), 0);
  std::fill(next_recv_.begin(), next_recv_.end(), 0);
  for (auto& q : pending_folds_) q.clear();
  const bool sender_gated = partitions_ > 0;
  const char root_ready = bcast_root() && !sender_gated ? 1 : 0;
  std::fill(received_.begin(), received_.end(),
            kind_ == Kind::kAllreduce ? char{0} : root_ready);
}

mpi::ErrCode PersistentOp::pready(int p) {
  if (partitions_ <= 0 || !in_flight_) return mpi::ErrCode::kErrPartition;
  if (p < 0 || p >= partitions_) return mpi::ErrCode::kErrPartition;
  if (part_ready_[static_cast<std::size_t>(p)])
    return mpi::ErrCode::kErrPartition;  // duplicate pready
  part_ready_[static_cast<std::size_t>(p)] = 1;
  if (error_ != mpi::ErrCode::kOk) return mpi::ErrCode::kOk;  // round dying
  // Partition p covers the contiguous segment range [p*S/P, (p+1)*S/P).
  const int S = segs_.count();
  const int first = static_cast<int>(
      (static_cast<std::int64_t>(p) * S) / partitions_);
  const int end = static_cast<int>(
      (static_cast<std::int64_t>(p + 1) * S) / partitions_);
  for (int s = first; s < end; ++s)
    local_ready_[static_cast<std::size_t>(s)] = 1;
  switch (kind_) {
    case Kind::kBcast:
      if (edges_.is_root) {
        for (int s = first; s < end; ++s)
          received_[static_cast<std::size_t>(s)] = 1;
        for (std::size_t c = 0; c < edges_.kids_global.size(); ++c)
          pump_child(c);
      }
      break;
    case Kind::kReduce:
    case Kind::kAllreduce:
      for (int s = first; s < end; ++s) {
        if (edges_.kids_global.empty()) {
          reduce_segment_ready(s);
        } else {
          // Replay folds that arrived before the local data was ready.
          auto& q = pending_folds_[static_cast<std::size_t>(s)];
          for (const std::uint64_t packed : q) schedule_fold(packed);
          q.clear();
        }
      }
      break;
    case Kind::kBarrier:
      break;  // unreachable: barrier_init rejects partitions
  }
  check_round_done();
  return mpi::ErrCode::kOk;
}

mpi::ErrCode PersistentOp::parrived(int p, bool* flag) const {
  ADAPT_CHECK(flag != nullptr);
  *flag = false;
  if (partitions_ <= 0 || !in_flight_) return mpi::ErrCode::kErrPartition;
  if (p < 0 || p >= partitions_) return mpi::ErrCode::kErrPartition;
  if (error_ != mpi::ErrCode::kOk) return mpi::ErrCode::kOk;  // round dying
  const int S = segs_.count();
  const int first = static_cast<int>(
      (static_cast<std::int64_t>(p) * S) / partitions_);
  const int end = static_cast<int>(
      (static_cast<std::int64_t>(p + 1) * S) / partitions_);
  bool arrived = true;
  for (int s = first; s < end && arrived; ++s) {
    const auto si = static_cast<std::size_t>(s);
    switch (kind_) {
      case Kind::kBcast:
      case Kind::kAllreduce:
        // The bcast stage delivers the final bytes everywhere.
        arrived = received_[si] != 0;
        break;
      case Kind::kReduce:
        // contributed_ only advances once the local data is folded in, so
        // reaching the child count implies local_ready_ too.
        arrived = edges_.kids_global.empty()
                      ? local_ready_[si] != 0
                      : contributed_[si] ==
                            static_cast<int>(edges_.kids_global.size());
        break;
      case Kind::kBarrier:
        arrived = false;  // unreachable: barrier_init rejects partitions
        break;
    }
  }
  *flag = arrived;
  return mpi::ErrCode::kOk;
}

void PersistentOp::Awaiter::await_resume() const {
  if (op->error_ != mpi::ErrCode::kOk && !op->one_shot_) {
    throw mpi::FaultError(op->error_, std::string("persistent ") +
                                          kind_name(op->kind_) + " failed");
  }
}

void PersistentOp::fail(mpi::ErrCode code) {
  if (error_ != mpi::ErrCode::kOk) return;  // first cause wins
  error_ = code;
}

void PersistentOp::cb_exit() {
  --outstanding_;
  check_round_done();
}

void PersistentOp::check_round_done() {
  if (!in_flight_) return;
  const bool failed = error_ != mpi::ErrCode::kOk;
  const bool drained = outstanding_ == 0 && (failed || remaining_ == 0);
  if (drained) {
    // Success, or a failed round whose every posted callback has retired —
    // either way nothing references this handle any more.
    in_flight_ = false;
    ++rounds_completed_;
    if (parked_) {
      ctx_->unpark(this);  // destroys *this
      return;
    }
    if (obs::Recorder* rec = ctx_->recorder(); rec && !one_shot_) {
      rec->instant(obs::rank_pid(ctx_->rank()), obs::kTidProgress,
                   obs::Cat::kTask, "pdone", rec->now(),
                   static_cast<std::int64_t>(error_));
    }
  }
  if (!waiter_ || !(drained || (one_shot_ && failed))) return;
  const std::coroutine_handle<> h = waiter_;
  waiter_ = nullptr;
  if (one_shot_) {
    // Per-call semantics: resume inline, at completion or at the first
    // failure. The caller may free or park the op: last use of `this`.
    h.resume();
    return;
  }
  // Resume on the application thread, like the one-shot's trailing
  // compute(0) — the round itself ran on the progress context.
  ctx_->defer(0, [h] { h.resume(); });
}

// ---------------------------------------------------------------- helpers ---

// The one completion-callback shape of every posted request: a failure
// records the first cause, a success runs OnOk(packed), and either way the
// callback retires. {this, packed} keeps std::function in inline storage.
template <void (PersistentOp::*OnOk)(std::uint64_t)>
void PersistentOp::arm(mpi::Request& req, std::uint64_t packed) {
  ++outstanding_;
  req.set_completion_cb([this, packed](mpi::Request& r) {
    if (r.failed()) {
      fail(r.error());
    } else {
      (this->*OnOk)(packed);
    }
    cb_exit();
  });
}

Tag PersistentOp::round_tag(int block_offset, int s) const {
  const int block = rounds_completed_ % kTagRounds;
  return base_tag_ + static_cast<Tag>(block) * per_round_tags_ +
         block_offset + s;
}

mpi::MutView PersistentOp::piece(int s) {
  return buffer_.slice(segs_.offset(s), segs_.length(s));
}

mpi::MutView PersistentOp::scratch_view(std::size_t c, int window,
                                        Bytes len) {
  return scratch_[c * static_cast<std::size_t>(opts_.outstanding_recvs) +
                  static_cast<std::size_t>(window)]
      .view()
      .slice(0, len);
}

bool PersistentOp::bcast_root() const {
  // For allreduce the bcast stage is gated on the reduce stage instead of
  // starting "received" (handled in reset_round).
  return edges_.is_root;
}

// ---------------------------------------------------------------- bcast -----

void PersistentOp::start_bcast() {
  const int S = segs_.count();
  const int bcast_recv = edges_.is_root ? 0 : S;
  const int bcast_send = static_cast<int>(edges_.kids_global.size()) * S;
  const int bcast_stage = flushes_ ? S : 0;
  remaining_ += bcast_recv + bcast_send + bcast_stage;
  if (!edges_.is_root) {
    const int prepost = std::min(S, opts_.outstanding_recvs);
    for (int i = 0; i < prepost; ++i) post_next_bcast_recv();
  } else {
    if (flushes_) {
      for (int s = 0; s < S; ++s) stage(s);
    }
    for (std::size_t c = 0; c < edges_.kids_global.size(); ++c)
      pump_child(c);
  }
}

void PersistentOp::post_next_bcast_recv() {
  if (error_ != mpi::ErrCode::kOk) return;
  if (next_recv_post_ >= segs_.count()) return;
  const int s = next_recv_post_++;
  const int block_offset = kind_ == Kind::kAllreduce ? segs_.count() : 0;
  arm<&PersistentOp::on_bcast_recv>(
      *ctx_->irecv(edges_.parent_global, round_tag(block_offset, s), piece(s)),
      pack3(0, s, 0));
}

void PersistentOp::on_bcast_recv(std::uint64_t packed) {
  if (error_ != mpi::ErrCode::kOk) return;
  const int s = unpack_s(packed);
  detail::segment_event(*ctx_, "seg_recv", s);
  received_[static_cast<std::size_t>(s)] = 1;
  --remaining_;
  post_next_bcast_recv();
  if (flushes_) stage(s);
  for (std::size_t c = 0; c < edges_.kids_global.size(); ++c) pump_child(c);
}

// Explicit CPU buffer (§4.1): stage segment s into the other memory space
// with an async stream copy, overlapped with everything else.
void PersistentOp::stage(int s) {
  gpu::Device* dev = ctx_->gpu();
  const MemSpace src = stage_dst_ == MemSpace::kDevice ? MemSpace::kHost
                                                       : MemSpace::kDevice;
  ++outstanding_;
  auto staged = [this, packed = pack3(0, s, 0)] {
    if (error_ == mpi::ErrCode::kOk) {
      alt_ready_[static_cast<std::size_t>(unpack_s(packed))] = 1;
      --remaining_;
      for (std::size_t c = 0; c < child_needs_alt_.size(); ++c) {
        if (child_needs_alt_[c]) pump_child(c);
      }
    }
    cb_exit();
  };
  dev->stream(s % dev->num_streams())
      .memcpy_async(stage_dst_, src, segs_.length(s), staged);
}

bool PersistentOp::sendable(std::size_t c, int s) const {
  const auto si = static_cast<std::size_t>(s);
  if (flushes_ && child_needs_alt_[c]) return alt_ready_[si] != 0;
  return received_[si] != 0;
}

void PersistentOp::pump_child(std::size_t c) {
  const int block_offset = kind_ == Kind::kAllreduce ? segs_.count() : 0;
  while (error_ == mpi::ErrCode::kOk &&
         inflight_[c] < opts_.outstanding_sends &&
         next_send_[c] < segs_.count() && sendable(c, next_send_[c])) {
    const int s = next_send_[c]++;
    ++inflight_[c];
    detail::segment_event(*ctx_, "seg_send", s);
    const Rank kid = edges_.kids_global[c];
    arm<&PersistentOp::on_child_sent>(
        *ctx_->isend(kid, round_tag(block_offset, s), piece(s).as_const(),
                     opts_.spaces(ctx_->rank(), kid)),
        pack3(c, 0, 0));
  }
}

void PersistentOp::on_child_sent(std::uint64_t packed) {
  const std::size_t c = unpack_c(packed);
  --inflight_[c];
  --remaining_;
  pump_child(c);
}

// ---------------------------------------------------------------- reduce ----

void PersistentOp::start_reduce() {
  const int S = segs_.count();
  remaining_ += S;
  if (edges_.kids_global.empty()) {
    if (partitions_ <= 0) {
      for (int s = 0; s < S; ++s) reduce_segment_ready(s);
    }
    // Partitioned leaf: pready feeds segments in.
    return;
  }
  const int prepost = std::min(S, opts_.outstanding_recvs);
  for (std::size_t c = 0; c < edges_.kids_global.size(); ++c) {
    for (int window = 0; window < prepost; ++window)
      post_reduce_recv(c, window);
  }
}

void PersistentOp::post_reduce_recv(std::size_t c, int window) {
  if (error_ != mpi::ErrCode::kOk) return;
  if (next_recv_[c] >= segs_.count()) return;
  const int s = next_recv_[c]++;
  arm<&PersistentOp::on_reduce_recv>(
      *ctx_->irecv(edges_.kids_global[c], round_tag(0, s),
                   scratch_view(c, window, segs_.length(s))),
      pack3(c, s, window));
}

void PersistentOp::on_reduce_recv(std::uint64_t packed) {
  if (error_ != mpi::ErrCode::kOk) return;
  detail::segment_event(*ctx_, "seg_recv", unpack_s(packed));
  schedule_fold(packed);
}

void PersistentOp::schedule_fold(std::uint64_t packed) {
  ++outstanding_;
  auto fold = [this, packed] { run_fold(packed); cb_exit(); };
  const int s = unpack_s(packed);
  const Bytes len = segs_.length(s);
  if (opts_.gpu_reduce) {
    // §4.2: the fold runs on the device; round-robin streams so independent
    // segments overlap there.
    gpu::Device* dev = ctx_->gpu();
    dev->stream(s % dev->num_streams()).launch(dev->reduce_cost(len), fold);
  } else {
    // CPU folds run inside the event callbacks (progress context).
    ctx_->defer_progress(detail::reduce_cost(*ctx_, opts_, len), fold);
  }
}

void PersistentOp::run_fold(std::uint64_t packed) {
  if (error_ != mpi::ErrCode::kOk) return;
  const std::size_t c = unpack_c(packed);
  const int s = unpack_s(packed);
  const int window = unpack_w(packed);
  if (partitions_ > 0 && !local_ready_[static_cast<std::size_t>(s)]) {
    // Child data beat this rank's own contribution (partitioned op):
    // park the fold until pready(partition of s) replays it.
    pending_folds_[static_cast<std::size_t>(s)].push_back(packed);
    return;
  }
  const Bytes len = segs_.length(s);
  detail::apply_if_real(piece(s), scratch_view(c, window, len).as_const(),
                        rop_, dtype_, len);
  post_reduce_recv(c, window);
  if (++contributed_[static_cast<std::size_t>(s)] ==
      static_cast<int>(edges_.kids_global.size())) {
    reduce_segment_ready(s);
  }
}

void PersistentOp::reduce_segment_ready(int s) {
  detail::segment_event(*ctx_, "seg_ready", s);
  if (edges_.is_root) {
    --remaining_;
    if (kind_ == Kind::kAllreduce) {
      // Chain into the bcast stage: the fully-reduced segment is now this
      // root's broadcast payload.
      received_[static_cast<std::size_t>(s)] = 1;
      for (std::size_t c = 0; c < edges_.kids_global.size(); ++c)
        pump_child(c);
    }
    return;
  }
  ready_q_[static_cast<std::size_t>(ready_tail_++)] = s;
  pump_parent();
}

void PersistentOp::pump_parent() {
  while (error_ == mpi::ErrCode::kOk &&
         inflight_up_ < opts_.outstanding_sends &&
         ready_head_ < ready_tail_) {
    const int s = ready_q_[static_cast<std::size_t>(ready_head_++)];
    ++inflight_up_;
    detail::segment_event(*ctx_, "seg_send", s);
    arm<&PersistentOp::on_parent_sent>(
        *ctx_->isend(edges_.parent_global, round_tag(0, s),
                     piece(s).as_const(),
                     opts_.spaces(ctx_->rank(), edges_.parent_global)),
        0);
  }
}

void PersistentOp::on_parent_sent(std::uint64_t /*packed*/) {
  --inflight_up_;
  --remaining_;
  pump_parent();
}

// ---------------------------------------------------------------- barrier ---

void PersistentOp::start_barrier() {
  const int n = comm_.size();
  if (n == 1) return;  // nothing to synchronise
  remaining_ += 2 * bar_rounds_;
  const Rank me = edges_.me_local;
  // Pre-post every round's receive (tags distinguish rounds), send round 0;
  // the recv of round k releases the send of round k+1 — the dissemination
  // dependency chain, replayed as callbacks.
  for (int k = 0; k < bar_rounds_; ++k) {
    const int span = 1 << k;
    const Rank from = comm_.global((me - span + n) % n);
    arm<&PersistentOp::on_barrier_recv>(
        *ctx_->irecv(from, round_tag(0, k), mpi::MutView{}), pack3(0, k, 0));
  }
  // "Round -1 received": releases the round-0 send.
  on_barrier_recv(pack3(0, -1, 0));
}

void PersistentOp::on_barrier_recv(std::uint64_t packed) {
  const int round = unpack_s(packed);
  if (round >= 0) {
    if (error_ != mpi::ErrCode::kOk) return;
    --remaining_;
  }
  const int next = round + 1;
  if (next >= bar_rounds_ || error_ != mpi::ErrCode::kOk) return;
  const int n = comm_.size();
  const Rank me = edges_.me_local;
  const int span = 1 << next;
  const Rank to = comm_.global((me + span) % n);
  arm<&PersistentOp::on_barrier_sent>(
      *ctx_->isend(to, round_tag(0, next), mpi::ConstView{}), 0);
}

void PersistentOp::on_barrier_sent(std::uint64_t /*packed*/) { --remaining_; }

// -------------------------------------------------------------- factories ---

PersistentOpPtr bcast_init(runtime::Context& ctx, const mpi::Comm& comm,
                           mpi::MutView buffer, Rank root,
                           const PersistentOpts& opts) {
  PersistentOpPtr op(
      new PersistentOp(ctx, comm, PersistentOp::Kind::kBcast, buffer));
  op->init_persistent(buffer.size, root, opts);
  return op;
}

PersistentOpPtr reduce_init(runtime::Context& ctx, const mpi::Comm& comm,
                            mpi::MutView accum, mpi::ReduceOp rop,
                            mpi::Datatype dtype, Rank root,
                            const PersistentOpts& opts) {
  PersistentOpPtr op(new PersistentOp(ctx, comm, PersistentOp::Kind::kReduce,
                                      accum, rop, dtype));
  op->init_persistent(accum.size, root, opts);
  return op;
}

PersistentOpPtr allreduce_init(runtime::Context& ctx, const mpi::Comm& comm,
                               mpi::MutView accum, mpi::ReduceOp rop,
                               mpi::Datatype dtype,
                               const PersistentOpts& opts) {
  PersistentOpPtr op(new PersistentOp(
      ctx, comm, PersistentOp::Kind::kAllreduce, accum, rop, dtype));
  op->init_persistent(accum.size, /*root=*/0, opts);
  return op;
}

PersistentOpPtr barrier_init(runtime::Context& ctx, const mpi::Comm& comm,
                             const PersistentOpts& opts) {
  ADAPT_CHECK(opts.partitions == 0) << "barrier has no data to partition";
  ADAPT_CHECK(opts.tree == nullptr) << "barrier takes no tree";
  PersistentOpPtr op(
      new PersistentOp(ctx, comm, PersistentOp::Kind::kBarrier, {}));
  op->init_persistent(0, /*root=*/0, opts);
  return op;
}

void free_comm(runtime::Context& ctx, const mpi::Comm& comm) {
  comm.free();
  if (tune::PlanCache* cache = ctx.plan_cache()) {
    cache->invalidate_comm(comm.fingerprint());
    if (obs::Recorder* rec = ctx.recorder()) {
      rec->instant(obs::rank_pid(ctx.rank()), obs::kTidMain, obs::Cat::kCache,
                   "plan_invalidate", rec->now(),
                   static_cast<std::int64_t>(comm.fingerprint()));
    }
  }
}

}  // namespace adapt::coll
