// Persistent worker pool for round-based shard execution.
//
// The sharded engine synchronizes its shards with a conservative time-window
// barrier: every window is one "round" in which worker i drains its inbound
// mailboxes and executes its shard's events, and no shard may start round
// k+1 before every shard finished round k. A window can be as small as a few
// dozen events, so the barrier must cost well under a microsecond on
// multi-core hosts — far below what spawning threads per round
// (support::parallel_for) or an uncontended kernel futex round-trip per
// worker could deliver.
//
// ShardPool keeps workers parked between rounds and releases them with a
// generation counter: run_round publishes the round's callback, bumps the
// atomic round number, and runs slice 0 on the calling thread while workers
// 1..N-1 run theirs.
//
// Barrier policy: when the pool fits the cores (workers <=
// hardware_concurrency()), waiters spin on the atomic for up to about 1 ms
// of wall time — checking the clock every few dozen `pause`s — so dense
// rounds never leave user space, then fall back to a condvar. When the pool
// is oversubscribed (or the host has one core) they park on the condvar at
// once: a spinner would burn the quantum the thread it waits on needs.
//
// Memory ordering contract: everything written before run_round() is visible
// to every worker's callback, and everything workers write in round k is
// visible to the caller when run_round() returns (release/acquire on the
// round and completion counters). The caller may therefore read and write
// all shard state between rounds without locks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace adapt::support {

class ShardPool {
 public:
  /// Spawns `workers - 1` persistent threads (worker 0 is the caller).
  explicit ShardPool(int workers);
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;
  ~ShardPool();

  int workers() const { return workers_; }

  /// Runs fn(0..workers-1), fn(0) on the calling thread, and returns once
  /// every invocation finished. Not reentrant; exceptions from fn must be
  /// captured by the callback itself (a throw out of a worker terminates).
  void run_round(const std::function<void(int)>& fn);

 private:
  void worker_loop(int index);
  void wait_for_round(std::uint64_t expect);

  const int workers_;
  const bool spin_;  ///< bounded spin before parking (pool fits the cores)
  std::atomic<std::uint64_t> round_{0};
  std::atomic<int> remaining_{0};
  std::atomic<bool> stop_{false};
  const std::function<void(int)>* fn_ = nullptr;
  std::mutex start_mu_;
  std::condition_variable start_cv_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
};

}  // namespace adapt::support
