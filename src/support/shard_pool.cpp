#include "src/support/shard_pool.hpp"

#include <chrono>

#include "src/support/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace adapt::support {

namespace {

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Spin budget per wait, in wall time: an iteration count would vary about
// 10x across CPUs (the cost of `pause` does), a deadline does not.
constexpr auto kSpinBudget = std::chrono::milliseconds(1);
constexpr int kPausesPerClockCheck = 32;

// Spinning pays only while every worker owns a hardware thread. On an
// oversubscribed host (any pool on a single core, or an unknown core count)
// the spinner burns the quantum the thread it waits on needs, so waiters
// park at once.
bool should_spin(int workers) {
  return static_cast<unsigned>(workers) <= std::thread::hardware_concurrency();
}

// Spins until ready() holds or the budget runs out; returns ready().
template <class Ready>
bool spin_until(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  do {
    for (int i = 0; i < kPausesPerClockCheck; ++i) {
      if (ready()) return true;
      cpu_pause();
    }
  } while (std::chrono::steady_clock::now() < deadline);
  return ready();
}

}  // namespace

ShardPool::ShardPool(int workers)
    : workers_(workers), spin_(should_spin(workers)) {
  ADAPT_CHECK(workers_ >= 1) << "ShardPool needs at least one worker";
  threads_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int i = 1; i < workers_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ShardPool::~ShardPool() {
  {
    std::lock_guard<std::mutex> lock(start_mu_);
    stop_.store(true, std::memory_order_release);
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ShardPool::run_round(const std::function<void(int)>& fn) {
  if (workers_ == 1) {
    fn(0);
    return;
  }
  fn_ = &fn;
  remaining_.store(workers_ - 1, std::memory_order_relaxed);
  {
    // The bump happens under the mutex so a worker that checked the round
    // number and is about to sleep cannot miss the wakeup.
    std::lock_guard<std::mutex> lock(start_mu_);
    round_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();

  fn(0);

  const auto done = [this] {
    return remaining_.load(std::memory_order_acquire) == 0;
  };
  if (spin_ && spin_until(done)) return;
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, done);
}

void ShardPool::wait_for_round(std::uint64_t expect) {
  const auto released = [this, expect] {
    return round_.load(std::memory_order_acquire) >= expect ||
           stop_.load(std::memory_order_acquire);
  };
  if (spin_ && spin_until(released)) return;
  std::unique_lock<std::mutex> lock(start_mu_);
  start_cv_.wait(lock, released);
}

void ShardPool::worker_loop(int index) {
  std::uint64_t expect = 1;
  while (true) {
    wait_for_round(expect);
    if (stop_.load(std::memory_order_acquire)) return;
    ++expect;
    (*fn_)(index);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Empty critical section pairs with the caller's predicate check under
      // done_mu_, so the notify cannot slot in between check and wait.
      { std::lock_guard<std::mutex> lock(done_mu_); }
      done_cv_.notify_one();
    }
  }
}

}  // namespace adapt::support
