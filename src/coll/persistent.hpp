// Persistent & partitioned collectives (PR 6; MPI-4 init/start semantics,
// MPI Advance-style schedule caching on top of ADAPT's event machines).
//
// A PersistentOp is a per-rank handle created once by bcast_init /
// reduce_init / allreduce_init / barrier_init. Init does all the planning a
// per-call collective repeats every invocation: resolve the topology tree
// and this rank's edges, pin the tuner decision (recorded in the engine's
// DecisionTable AND the engine-wide tune::PlanCache, keyed by (op, comm
// fingerprint, size bucket, root)), size the segment pipeline, pre-allocate
// every piece of round state (scratch payloads, pipeline counters, pending
// queues) and warm the engine's BufferPool for the round's worst-case eager
// footprint. start()/wait() then replay the schedule allocation-free: every
// callback the round posts captures {this, packed-ints} — small and
// trivially copyable, so std::function keeps it in inline storage.
//
// PersistentOp is the only ADAPT machine: per-call Style::kAdapt bcast/reduce
// is its one-shot, early-wake form (one_shot(): the caller's tree and tags,
// no plan, no pool warm-up, GPU paths allowed, woken at the first failure).
//
// Lifecycle (MPI-4 shaped, error codes instead of UB):
//   * start() on a handle whose previous round has not been waited returns
//     kErrPending; start() after the communicator was freed returns
//     kErrCommFreed (the plan-cache entry is invalidated too — a stale plan
//     is never replayed).
//   * wait() is an awaitable; it resumes once the round fully drains (every
//     posted callback retired, success or failure) and throws FaultError on
//     a failed round — the same uniform-error contract as the per-call
//     collectives under chaos.
//   * Overlapping start()s of *independent* handles pipeline: each handle
//     owns a private block of kTagRounds x per-round tags used round-robin,
//     so concurrent rounds can never cross-match.
//
// Partitioned operations (partitions > 0): the round's data is declared
// ready piece-wise with pready(p). Partition p maps to the contiguous
// segment range [p*S/P, (p+1)*S/P); a readied partition feeds its segments
// straight into ADAPT's pipeline (root sends for bcast, local contributions
// for reduce/allreduce). pready on a bad index, a duplicate partition, or an
// inactive handle returns kErrPartition.
#pragma once

#include <coroutine>
#include <memory>
#include <vector>

#include "src/coll/coll.hpp"
#include "src/coll/detail.hpp"
#include "src/tune/plan_cache.hpp"

namespace adapt::coll {

struct PersistentOpts {
  CollOpts coll;       ///< pipeline knobs; segment may be overridden by plan
  int partitions = 0;  ///< > 0: partitioned operation, data gated on pready
  /// Explicit tree override (copied). Bypasses the plan cache — the cache
  /// key cannot see an arbitrary caller tree. Null: the plan comes from the
  /// tuner when the engine has one, else the paper's topology-aware chain.
  const Tree* tree = nullptr;
};

class PersistentOp {
 public:
  enum class Kind { kBcast, kReduce, kAllreduce, kBarrier };

  ~PersistentOp();
  PersistentOp(const PersistentOp&) = delete;
  PersistentOp& operator=(const PersistentOp&) = delete;

  /// Begins one replay of the cached schedule. kErrPending if the previous
  /// round was not waited; kErrCommFreed if the communicator was freed.
  mpi::ErrCode start();

  /// Declares partition `p`'s data ready for the active round.
  mpi::ErrCode pready(int p);

  /// Queries whether partition `p`'s *incoming* data has fully arrived at
  /// this rank for the active round (MPI_Parrived shape): for bcast and the
  /// bcast stage of allreduce every segment of the partition has been
  /// received; for reduce every child contribution for the partition has
  /// been folded into the local accumulator (a leaf's partition arrives when
  /// its own pready lands). Validation mirrors pready: an inactive handle, a
  /// non-partitioned op, or an out-of-range index is kErrPartition. A round
  /// that already failed reports false without error.
  mpi::ErrCode parrived(int p, bool* flag) const;

  /// Awaitable round completion (a one-shot op also resumes at its first
  /// failure); throws mpi::FaultError on a failed persistent round.
  struct [[nodiscard]] Awaiter {
    PersistentOp* op;
    bool await_ready() const noexcept {
      return !op->in_flight_ ||
             (op->one_shot_ && op->error_ != mpi::ErrCode::kOk);
    }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      op->waiter_ = h;
    }
    void await_resume() const;
  };
  Awaiter wait() { return Awaiter{this}; }

  bool in_flight() const { return in_flight_; }
  Kind kind() const { return kind_; }
  int segments() const { return segs_.count(); }
  int partitions() const { return partitions_; }
  /// Completed start/wait cycles (successful or failed).
  int rounds_completed() const { return rounds_completed_; }
  /// The immutable plan this handle replays (shared via the engine cache
  /// unless an explicit tree was supplied). One-shot ops have none.
  const tune::CachedPlan& plan() const { return *plan_; }
  /// Error code the active/last round finished with (kOk while healthy).
  mpi::ErrCode last_error() const { return error_; }

  /// Per-call Style::kAdapt bcast (`rop`/`dtype` unused) or reduce over this
  /// rank's `edges` on tags [base_tag, base_tag + segments): one round of an
  /// uncached op that throws FaultError at its first failed request (then
  /// parking the op in the Context until its last callback retires).
  static sim::Task<> one_shot(runtime::Context& ctx, const mpi::Comm& comm,
                              Kind kind, detail::Edges edges,
                              mpi::MutView buffer, mpi::ReduceOp rop,
                              mpi::Datatype dtype, const CollOpts& opts,
                              Tag base_tag);

 private:
  friend std::unique_ptr<PersistentOp> bcast_init(runtime::Context&,
                                                  const mpi::Comm&,
                                                  mpi::MutView, Rank,
                                                  const PersistentOpts&);
  friend std::unique_ptr<PersistentOp> reduce_init(runtime::Context&,
                                                   const mpi::Comm&,
                                                   mpi::MutView, mpi::ReduceOp,
                                                   mpi::Datatype, Rank,
                                                   const PersistentOpts&);
  friend std::unique_ptr<PersistentOp> allreduce_init(runtime::Context&,
                                                      const mpi::Comm&,
                                                      mpi::MutView,
                                                      mpi::ReduceOp,
                                                      mpi::Datatype,
                                                      const PersistentOpts&);
  friend std::unique_ptr<PersistentOp> barrier_init(runtime::Context&,
                                                    const mpi::Comm&,
                                                    const PersistentOpts&);

  PersistentOp(runtime::Context& ctx, const mpi::Comm& comm, Kind kind,
               mpi::MutView buffer, mpi::ReduceOp rop = {},
               mpi::Datatype dtype = {})
      : ctx_(&ctx), comm_(comm), kind_(kind), buffer_(buffer), rop_(rop),
        dtype_(dtype) {}

  void init_persistent(Bytes bytes, Rank root, const PersistentOpts& opts);
  void size_state();  ///< sizes round state for edges_/segs_/opts_
  void launch();      ///< resets and starts one round
  void reset_round();
  Tag round_tag(int block_offset, int s) const;
  mpi::MutView piece(int s);
  mpi::MutView scratch_view(std::size_t c, int window, Bytes len);

  template <void (PersistentOp::*OnOk)(std::uint64_t)>
  void arm(mpi::Request& req, std::uint64_t packed);
  void fail(mpi::ErrCode code);
  void cb_exit();            ///< retire one posted callback, maybe finish
  void check_round_done();
  static std::unique_ptr<PersistentOp> launch_one_shot(
      runtime::Context& ctx, const mpi::Comm& comm, Kind kind,
      detail::Edges edges, mpi::MutView buffer, mpi::ReduceOp rop,
      mpi::Datatype dtype, const CollOpts& opts, Tag base_tag);

  // Broadcast machine (also the second stage of allreduce).
  void start_bcast();
  void post_next_bcast_recv();
  void on_bcast_recv(std::uint64_t packed);
  bool bcast_root() const;
  void stage(int s);
  bool sendable(std::size_t c, int s) const;
  void pump_child(std::size_t c);
  void on_child_sent(std::uint64_t packed);

  // Reduce machine (also the first stage of allreduce).
  void start_reduce();
  void post_reduce_recv(std::size_t c, int window);
  void on_reduce_recv(std::uint64_t packed);
  void schedule_fold(std::uint64_t packed);
  void run_fold(std::uint64_t packed);
  void reduce_segment_ready(int s);
  void pump_parent();
  void on_parent_sent(std::uint64_t packed);

  // Barrier machine.
  void start_barrier();
  void on_barrier_recv(std::uint64_t packed);
  void on_barrier_sent(std::uint64_t packed);

  // -- plan (immutable after init) ----------------------------------------
  runtime::Context* ctx_;
  mpi::Comm comm_;  ///< keeps CommState alive
  Kind kind_;
  mpi::MutView buffer_;  ///< bcast buffer / reduce+allreduce accumulator
  mpi::ReduceOp rop_;
  mpi::Datatype dtype_;
  std::shared_ptr<const tune::CachedPlan> plan_;  ///< null when one-shot
  detail::Edges edges_;
  Segmenter segs_{0, 1};
  CollOpts opts_;
  Tag base_tag_ = 0;
  int per_round_tags_ = 0;
  int partitions_ = 0;
  int bar_rounds_ = 0;  ///< barrier: dissemination round count
  bool one_shot_ = false;
  bool parked_ = false;  ///< one-shot woke early; the Context owns it now
  std::vector<mpi::Payload> scratch_;  ///< reduce: per (child, window)
  bool flushes_ = false;  ///< §4.1: stage each segment into stage_dst_
  MemSpace stage_dst_ = MemSpace::kDevice;
  std::vector<char> child_needs_alt_;  ///< per child: edge sources stage_dst_

  // -- round state (reset by start, no allocation) -------------------------
  bool in_flight_ = false;
  mpi::ErrCode error_ = mpi::ErrCode::kOk;
  int remaining_ = 0;    ///< success signals still expected this round
  int outstanding_ = 0;  ///< posted callbacks not yet retired
  int rounds_completed_ = 0;
  std::coroutine_handle<> waiter_;
  std::vector<char> part_ready_;   // per partition: pready seen
  std::vector<char> local_ready_;  // per segment (partitioned): data ready
  // bcast
  std::vector<char> received_;
  std::vector<char> alt_ready_;  // per segment: staged copy landed
  std::vector<int> next_send_;  // per child
  std::vector<int> inflight_;   // per child
  int next_recv_post_ = 0;
  // reduce
  std::vector<int> contributed_;  // per segment
  std::vector<int> next_recv_;    // per child
  std::vector<std::vector<std::uint64_t>> pending_folds_;  // partitioned
  std::vector<int> ready_q_;  // ring of segments ready to send up
  int ready_head_ = 0;
  int ready_tail_ = 0;
  int inflight_up_ = 0;
};

using PersistentOpPtr = std::unique_ptr<PersistentOp>;

/// Persistent broadcast: the root's `buffer` contents reach every rank's
/// `buffer` on each start/wait round. Buffer binding is fixed at init
/// (MPI-4 persistent semantics) — mutate contents between rounds, not the
/// binding.
PersistentOpPtr bcast_init(runtime::Context& ctx, const mpi::Comm& comm,
                           mpi::MutView buffer, Rank root,
                           const PersistentOpts& opts = {});

/// Persistent reduce: each round folds every rank's `accum` into the root's.
/// Non-root accumulators are clobbered (same contract as coll::reduce), so
/// refill them between rounds.
PersistentOpPtr reduce_init(runtime::Context& ctx, const mpi::Comm& comm,
                            mpi::MutView accum, mpi::ReduceOp op,
                            mpi::Datatype dtype, Rank root,
                            const PersistentOpts& opts = {});

/// Persistent allreduce: reduce-to-0 chained into bcast-from-0 over one
/// tree; every rank's `accum` holds the full reduction after wait().
PersistentOpPtr allreduce_init(runtime::Context& ctx, const mpi::Comm& comm,
                               mpi::MutView accum, mpi::ReduceOp op,
                               mpi::Datatype dtype,
                               const PersistentOpts& opts = {});

/// Persistent dissemination barrier.
PersistentOpPtr barrier_init(runtime::Context& ctx, const mpi::Comm& comm,
                             const PersistentOpts& opts = {});

/// MPI_Comm_free for plan-cache users: marks the communicator freed AND
/// eagerly drops its plan-cache entries (the weak CommState guard would
/// catch them lazily anyway — this keeps the cache tidy and the
/// invalidation observable).
void free_comm(runtime::Context& ctx, const mpi::Comm& comm);

}  // namespace adapt::coll
