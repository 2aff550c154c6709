#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "src/sim/event_queue.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/task.hpp"
#include "src/support/error.hpp"
#include "src/support/rng.hpp"

namespace adapt::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(30, [&] { fired.push_back(3); });
  q.push(10, [&] { fired.push_back(1); });
  q.push(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableAtEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) q.push(5, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  auto h = q.push(1, [&] { ++fired; });
  q.push(2, [&] { ++fired; });
  h.cancel();
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelAllLeavesEmpty) {
  EventQueue q;
  auto a = q.push(1, [] {});
  auto b = q.push(2, [] {});
  a.cancel();
  b.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto a = q.push(1, [] {});
  q.push(7, [] {});
  a.cancel();
  EXPECT_EQ(q.next_time(), 7);
}

TEST(Simulator, AdvancesTime) {
  Simulator s;
  TimeNs seen = -1;
  s.after(100, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(s.now(), 100);
  EXPECT_EQ(s.events_processed(), 1u);
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  std::vector<TimeNs> times;
  s.after(10, [&] {
    times.push_back(s.now());
    s.after(5, [&] { times.push_back(s.now()); });
  });
  s.run();
  EXPECT_EQ(times, (std::vector<TimeNs>{10, 15}));
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator s;
  int fired = 0;
  s.after(10, [&] { ++fired; });
  s.after(100, [&] { ++fired; });
  s.run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.idle());
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RejectsSchedulingIntoPast) {
  Simulator s;
  s.after(10, [] {});
  s.run();
  EXPECT_THROW(s.at(5, [] {}), Error);
  EXPECT_THROW(s.after(-1, [] {}), Error);
}

TEST(Simulator, StepExecutesOne) {
  Simulator s;
  int fired = 0;
  s.after(1, [&] { ++fired; });
  s.after(2, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

// ---------------------------------------------------------------- Tasks ---

Task<int> make_value(int v) { co_return v; }

Task<int> add_two(int v) {
  const int a = co_await make_value(v);
  const int b = co_await make_value(1);
  co_return a + b + 1;
}

TEST(Task, ChainsValues) {
  int result = 0;
  auto body = [&]() -> Task<> { result = co_await add_two(5); };
  run_detached(body(), [](std::exception_ptr ep) { EXPECT_FALSE(ep); });
  EXPECT_EQ(result, 7);
}

TEST(Task, PropagatesExceptions) {
  auto boom = []() -> Task<> {
    throw Error("boom");
    co_return;
  };
  bool caught = false;
  auto body = [&]() -> Task<> {
    try {
      co_await boom();
    } catch (const Error&) {
      caught = true;
    }
  };
  run_detached(body(), [](std::exception_ptr) {});
  EXPECT_TRUE(caught);
}

TEST(Task, DetachedReportsException) {
  auto boom = []() -> Task<> {
    throw Error("boom");
    co_return;
  };
  std::exception_ptr seen;
  run_detached(boom(), [&](std::exception_ptr ep) { seen = ep; });
  EXPECT_TRUE(seen);
}

TEST(Task, SuspendResumesThroughSimulator) {
  Simulator s;
  std::vector<TimeNs> trace;
  auto prog = [&]() -> Task<> {
    trace.push_back(s.now());
    co_await Suspend([&](std::coroutine_handle<> h) {
      s.after(25, [h] { h.resume(); });
    });
    trace.push_back(s.now());
  };
  bool done = false;
  s.after(0, [&] {
    run_detached(prog(), [&](std::exception_ptr) { done = true; });
  });
  s.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(trace, (std::vector<TimeNs>{0, 25}));
}

TEST(Trigger, FireResumesAllWaiters) {
  Trigger t;
  int woke = 0;
  auto waiter = [&]() -> Task<> {
    co_await t;
    ++woke;
  };
  run_detached(waiter(), [](std::exception_ptr) {});
  run_detached(waiter(), [](std::exception_ptr) {});
  EXPECT_EQ(woke, 0);
  t.fire();
  EXPECT_EQ(woke, 2);
}

TEST(Trigger, AwaitAfterFireDoesNotSuspend) {
  Trigger t;
  t.fire();
  int woke = 0;
  auto body = [&]() -> Task<> {
    co_await t;
    ++woke;
  };
  run_detached(body(), [](std::exception_ptr) {});
  EXPECT_EQ(woke, 1);
}

TEST(Trigger, SubscribeBeforeAndAfterFire) {
  Trigger t;
  int calls = 0;
  t.subscribe([&] { ++calls; });
  t.fire();
  EXPECT_EQ(calls, 1);
  t.subscribe([&] { ++calls; });
  EXPECT_EQ(calls, 2);
  t.fire();  // idempotent
  EXPECT_EQ(calls, 2);
}

// -- schedule perturbation (src/verify's engine hook) ----------------------

TEST(EventQueuePerturb, ShufflesTiesButKeepsAllEvents) {
  EventQueue q;
  q.set_perturbation(PerturbConfig{.seed = 99, .shuffle_ties = true});
  std::vector<int> fired;
  for (int i = 0; i < 16; ++i) q.push(5, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().second();
  std::vector<int> sorted = fired;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> identity(16);
  for (int i = 0; i < 16; ++i) identity[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(sorted, identity);   // nothing lost or duplicated
  EXPECT_NE(fired, identity);    // and the FIFO tie order is actually broken
}

TEST(EventQueuePerturb, SameSeedSameOrder) {
  auto run = [](std::uint64_t seed) {
    EventQueue q;
    q.set_perturbation(PerturbConfig{.seed = seed, .max_jitter = 50});
    std::vector<int> fired;
    for (int i = 0; i < 12; ++i) {
      q.push(10 * (i % 3), [&fired, i] { fired.push_back(i); });
    }
    while (!q.empty()) q.pop().second();
    return fired;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(EventQueuePerturb, JitterIsBoundedAndNeverEarly) {
  EventQueue q;
  const TimeNs jitter = 100;
  q.set_perturbation(PerturbConfig{.seed = 3, .max_jitter = jitter});
  const TimeNs scheduled[] = {0, 10, 10, 500, 500, 500, 1000};
  for (TimeNs t : scheduled) q.push(t, [] {});
  // Pop times are nondecreasing and each lies in [t, t + jitter] for SOME
  // scheduled t — never before any event's own schedule time (causality).
  TimeNs prev = -1;
  std::size_t popped = 0;
  while (!q.empty()) {
    const TimeNs t = q.pop().first;
    EXPECT_GE(t, prev);
    prev = t;
    bool legal = false;
    for (TimeNs s : scheduled) legal = legal || (t >= s && t <= s + jitter);
    EXPECT_TRUE(legal) << "pop time " << t;
    ++popped;
  }
  EXPECT_EQ(popped, std::size(scheduled));
}

TEST(EventQueuePerturb, DisablingRestoresFifo) {
  EventQueue q;
  q.set_perturbation(PerturbConfig{.seed = 4});
  q.set_perturbation(std::nullopt);
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) q.push(5, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_FALSE(q.perturbed());
}

// -- tickets: reserve a push's key now, queue the event later --------------

TEST(EventQueueTicket, DeferredPushTakesThePushesPlace) {
  // Reference: three plain pushes at one time fire in push order.
  EventQueue plain;
  std::vector<int> want;
  for (int i = 0; i < 3; ++i) plain.push(5, [&want, i] { want.push_back(i); });
  while (!plain.empty()) plain.pop().second();

  // Event 0's key is reserved first but queued last: it still fires first,
  // and the plain pushes made after the reservation keep their keys.
  EventQueue q;
  std::vector<int> got;
  const EventTicket first = q.reserve(5);
  q.push(5, [&got] { got.push_back(1); });
  q.push(5, [&got] { got.push_back(2); });
  EXPECT_EQ(q.size(), 2u);
  q.push_ticket(first, [&got] { got.push_back(0); });
  EXPECT_EQ(q.total_scheduled(), 3u);  // the ticket counted once, at reserve
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(got, want);
}

TEST(EventQueueTicket, ReserveTakesThePerturbationDrawsOfAPush) {
  // A perturbed queue draws the jitter, then the tie, from Rng(seed) on
  // every push; a reserve must take the same two draws in the same place.
  constexpr std::uint64_t kSeed = 21;
  constexpr TimeNs kJitter = 25;
  EventQueue q;
  q.set_perturbation(PerturbConfig{
      .seed = kSeed, .shuffle_ties = true, .max_jitter = kJitter});
  Rng draws(kSeed);
  for (std::uint64_t i = 0; i < 32; ++i) {
    const TimeNs t = static_cast<TimeNs>(100 + 3 * i);
    const TimeNs jitter = static_cast<TimeNs>(
        draws.next_below(static_cast<std::uint64_t>(kJitter) + 1));
    const std::uint64_t tie = draws.next_u64();
    if (i % 3 == 2) {
      q.push(t, [] {});
      continue;
    }
    EXPECT_EQ(q.reserve(t), (EventTicket{t + jitter, tie, i})) << "call " << i;
  }
  EXPECT_EQ(q.total_scheduled(), 32u);
}

TEST(EventQueueTicket, CancelledTicketCanBePushedAgain) {
  EventQueue q;
  std::vector<int> got;
  const EventTicket t = q.reserve(10);
  q.push(10, [&got] { got.push_back(1); });
  q.push_ticket(t, [&got] { got.push_back(-1); }).cancel();
  q.push_ticket(t, [&got] { got.push_back(0); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(got, (std::vector<int>{0, 1}));
}

TEST(EventQueueTicket, RejectsTicketsInThePast) {
  Simulator s;
  const EventTicket early = s.reserve(5);
  s.after(10, [] {});
  s.run();
  EXPECT_THROW(s.push_ticket(early, [] {}), Error);
  EXPECT_THROW(s.reserve(9), Error);
}

/// One seeded random schedule: every event, when it fires, schedules up to
/// three follow-ups at short delays (zero a third of the time, so ties are
/// common) until 600 have been scheduled. With `deferred`, every third
/// scheduling call instead reserves a ticket into a pool that keeps only its
/// least ticket queued — cancelling and re-pushing it when a smaller one
/// arrives, pushing the next one when it fires, always after the callback's
/// plain pushes — as net::Fabric does per flow class. Returns the (time, id)
/// pop sequence; ids number the scheduling calls.
struct TicketRun {
  std::vector<std::pair<TimeNs, int>> fired;
  std::uint64_t scheduled = 0;
  int repushed = 0;  // pool tickets queued again after a cancel
};

TicketRun run_ticket_schedule(const std::optional<PerturbConfig>& perturb,
                              std::uint64_t seed, bool deferred) {
  EventQueue q;
  q.set_perturbation(perturb);
  Rng rng(seed);
  TicketRun run;
  TimeNs now = 0;
  int next_id = 0;
  struct Held {
    EventTicket ticket;
    int id;
    bool was_queued;
  };
  std::vector<Held> pool;
  EventHandle armed;
  std::optional<std::uint64_t> armed_seq;
  std::function<void(int)> fire;

  auto schedule = [&](TimeNs t) {
    const int id = next_id++;
    if (deferred && id % 3 == 1) {
      pool.push_back({q.reserve(t), id, false});
    } else {
      q.push(t, [&fire, id] { fire(id); });
    }
  };
  auto rearm = [&] {
    if (pool.empty()) return;
    auto least = std::min_element(
        pool.begin(), pool.end(),
        [](const Held& a, const Held& b) { return a.ticket < b.ticket; });
    if (armed_seq == least->ticket.seq) return;
    if (armed_seq) armed.cancel();
    if (least->was_queued) ++run.repushed;
    least->was_queued = true;
    const std::uint64_t seq = least->ticket.seq;
    armed_seq = seq;
    armed = q.push_ticket(least->ticket, [&, seq] {
      auto it = std::find_if(pool.begin(), pool.end(), [seq](const Held& h) {
        return h.ticket.seq == seq;
      });
      const int id = it->id;
      pool.erase(it);
      armed_seq.reset();
      fire(id);
    });
  };
  fire = [&](int id) {
    run.fired.emplace_back(now, id);
    const int spawn = next_id < 600 ? static_cast<int>(rng.next_below(4)) : 0;
    for (int k = 0; k < spawn; ++k) {
      const TimeNs delay =
          rng.next_below(3) == 0 ? 0 : static_cast<TimeNs>(rng.next_below(40));
      schedule(now + delay);
    }
    rearm();
  };

  for (int i = 0; i < 12; ++i) {
    schedule(static_cast<TimeNs>(rng.next_below(20)));
  }
  rearm();
  while (!q.empty()) {
    auto [t, fn] = q.pop();
    now = t;
    fn();
  }
  EXPECT_TRUE(pool.empty());
  run.scheduled = q.total_scheduled();
  return run;
}

TEST(EventQueueTicket, DeferredPushesKeepEveryScheduleByteIdentical) {
  const std::optional<PerturbConfig> modes[] = {
      std::nullopt,
      PerturbConfig{.seed = 11, .shuffle_ties = true},
      PerturbConfig{.seed = 12, .shuffle_ties = true, .max_jitter = 25},
      PerturbConfig{.seed = 13, .shuffle_ties = false, .max_jitter = 7},
  };
  int repushed = 0;
  for (std::size_t m = 0; m < std::size(modes); ++m) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      std::optional<PerturbConfig> mode = modes[m];
      if (mode) mode->seed += 100 * seed;
      const TicketRun plain = run_ticket_schedule(mode, seed, false);
      const TicketRun ticketed = run_ticket_schedule(mode, seed, true);
      ASSERT_GT(plain.fired.size(), 12u);
      EXPECT_EQ(ticketed.fired, plain.fired)
          << "mode " << m << " seed " << seed;
      EXPECT_EQ(ticketed.scheduled, plain.scheduled);
      repushed += ticketed.repushed;
    }
  }
  // The pools did cancel queued tickets and push them again.
  EXPECT_GT(repushed, 0);
}

}  // namespace
}  // namespace adapt::sim
