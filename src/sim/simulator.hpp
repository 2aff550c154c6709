// The discrete-event simulation kernel: a virtual clock plus an event queue.
//
// The kernel knows nothing about ranks, networks or MPI — higher layers
// (net::Fabric, runtime::SimEngine) schedule closures on it. Strictly
// single-threaded; determinism follows from EventQueue's stable ordering.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "src/sim/event_queue.hpp"
#include "src/support/error.hpp"
#include "src/support/units.hpp"

namespace adapt::sim {

class Simulator {
 public:
  /// Current virtual time. Starts at 0.
  TimeNs now() const { return now_; }

  /// Seeded schedule perturbation (see sim::PerturbConfig): randomizes the
  /// order of concurrently pending events while preserving causality. Used by
  /// the conformance harness; leave unset for bit-reproducible traces.
  void set_perturbation(std::optional<PerturbConfig> config) {
    queue_.set_perturbation(std::move(config));
  }
  bool perturbed() const { return queue_.perturbed(); }

  /// Schedules `fn` at absolute virtual time `t` (must be >= now()).
  EventHandle at(TimeNs t, EventFn fn);

  /// Schedules `fn` after a relative delay (must be >= 0).
  EventHandle after(TimeNs delay, EventFn fn);

  /// Reserves the event key at(t) would take now, queueing nothing (see
  /// EventQueue's ticket contract). `t` must be >= now().
  EventTicket reserve(TimeNs t) {
    ADAPT_CHECK(t >= now_) << "reserving into the past: t=" << t
                           << " now=" << now_;
    return queue_.reserve(t);
  }

  /// Queues `fn` at a reserved key; takes no sequence number or draw.
  EventHandle push_ticket(const EventTicket& ticket, EventFn fn);

  /// Runs until the event queue drains or `until` is passed; returns the
  /// final virtual time. Events exactly at `until` still fire.
  TimeNs run(TimeNs until = std::numeric_limits<TimeNs>::max());

  /// Executes at most one event; returns false when none are pending.
  bool step();

  /// Observability pass-through (see EventQueue::set_stats).
  void set_queue_stats(obs::QueueStats* stats) { queue_.set_stats(stats); }

  std::uint64_t events_processed() const { return processed_; }
  std::uint64_t events_scheduled() const { return queue_.total_scheduled(); }
  bool idle() const { return queue_.empty(); }

 private:
  EventQueue queue_;
  TimeNs now_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace adapt::sim
