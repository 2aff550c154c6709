// Contention-aware network model (fluid-flow / progressive filling).
//
// Every in-flight message is a *flow* across a set of shared *links*. Link
// bandwidth is divided among its flows by max–min fairness (each flow further
// bounded by a per-flow cap — the single-stream bandwidth of its lane), and
// rates are recomputed whenever a flow starts or finishes. Per-message latency
// (Hockney α) elapses before the flow enters the bandwidth-sharing phase.
//
// This model is the minimal one that preserves the paper's performance
// arguments: flows on *different* lanes (intra-socket / QPI / NIC / PCIe)
// overlap perfectly, flows on the *same* lane contend proportionally — which
// is exactly the distinction §3.2.2 and §4.1 reason about.
//
// The solver works on flow *classes*, not flows: flows with the same ordered
// link list and per-flow cap always receive the same max–min rate, so a
// rebalance walks the classes of the affected connected component (a handful
// at scale, against hundreds of flows) and touches individual flows only to
// re-settle the members of classes whose rate moved. The arithmetic and the
// order in which completion keys are taken are those of a per-flow solver,
// so virtual time is unchanged (DESIGN §4.1).
//
// Completions are queued per class, not per flow. Settling a member reserves
// the event key its completion push would have taken (sim::EventTicket) and
// keeps it on the flow; each class keeps one queued event, at its members'
// least ticket, and re-pushes it only when that minimum changes. The queue
// pops in key order, so the class event fires exactly when that member's own
// event would have: the schedule, perturbed or not, is the per-flow one.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/net/fault.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/units.hpp"

namespace adapt::net {

/// Sharing discipline; kUncontended ignores link capacities entirely (pure
/// Hockney, for the contention ablation).
enum class SharingPolicy { kFairShare, kUncontended };

/// Route + cost parameters of one message.
struct Route {
  std::vector<LinkId> links;       ///< shared resources crossed (may be empty)
  double per_flow_cap = 0.0;       ///< bytes/ns single-stream bound (>0)
  TimeNs alpha = 0;                ///< startup latency before bytes move
  /// Flows sharing a non-negative key serialise FIFO (a NIC's per-peer
  /// transmit queue): concurrent segments between one (src, dst) pair go out
  /// back to back at full stream rate instead of fair-sharing the lane —
  /// keeping per-segment latency flat while the pipe stays busy. Queueing
  /// time counts against alpha.
  std::int64_t serial_key = -1;
  /// Trace-record id from obs::Recorder::transfer_begin (0 = untraced). The
  /// fabric fills in activation and completion times.
  std::uint64_t trace = 0;
};

class Fabric {
 public:
  explicit Fabric(sim::Simulator& simulator,
                  SharingPolicy policy = SharingPolicy::kFairShare);

  /// Registers a shared resource with aggregate capacity in bytes/ns.
  LinkId add_link(double capacity_bytes_per_ns);

  /// Starts a message; `on_complete` runs (once) at the virtual time the last
  /// byte arrives. Zero-byte messages complete after alpha alone. The
  /// callback type matches the event queue's: captures up to EventFn's
  /// capacity (including a boxed std::function) stay inline, so posting a
  /// transfer never heap-allocates — the invariant the persistent-collective
  /// steady state is built on.
  void transfer(const Route& route, Bytes bytes, sim::EventFn on_complete);

  /// Installs (or clears, with nullptr) the fault injector consulted by
  /// transfer_tagged. The fabric does not own the injector.
  void set_fault_injector(const FaultInjector* injector) {
    injector_ = injector;
  }
  const FaultInjector* fault_injector() const { return injector_; }

  /// Installs (or clears) the trace/metrics recorder: traced routes get
  /// their activation/completion times filled in, per-link byte counters
  /// accumulate, and link occupancy samples record contention shares. The
  /// fabric does not own the recorder. Disabled cost: one null test per
  /// flow activation/finish.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  /// Fate-reporting transfer: like transfer(), but consults the fault
  /// injector for this transmission. Dropped/corrupted messages still occupy
  /// the fabric for their full duration ("lost at the far end"); extra fault
  /// delay is folded into the route's alpha. With no injector installed this
  /// is a single branch on top of transfer() — the zero-overhead guarantee
  /// the bench guard measures.
  void transfer_tagged(const Route& route, Bytes bytes, const FaultKey& key,
                       std::function<void(const TransferFate&)> on_complete);

  // -- introspection / stats ---------------------------------------------
  int active_flows() const { return active_count_; }
  std::uint64_t flows_completed() const { return completed_; }
  std::uint64_t peak_active_flows() const { return peak_active_; }
  double link_capacity(LinkId id) const;

  /// Always-on rate-solver work counters (kept out of Recorder and
  /// MetricsRegistry): component solves, flow classes those solves visited,
  /// flow completions they (re)scheduled, i.e. tickets reserved, and class
  /// completion events pushed to the event queue. classes_visited /
  /// rebalances is the per-solve work, bounded by classes rather than flows;
  /// completions_armed is the part of the rescheduling that still reaches
  /// the queue.
  struct SolverStats {
    std::uint64_t rebalances = 0;
    std::uint64_t classes_visited = 0;
    std::uint64_t flows_rescheduled = 0;
    std::uint64_t completions_armed = 0;
  };
  SolverStats solver_stats() const { return stats_; }

 private:
  struct Flow {
    int cls = -1;                  // FlowClass index
    std::uint64_t seq = 0;         // activation order (fabric-wide)
    int prev = -1;                 // intrusive member list of the class
    int next = -1;
    double remaining = 0.0;        // bytes
    double rate = 0.0;             // bytes/ns
    TimeNs settled_at = 0;         // virtual time `remaining` refers to
    std::int64_t serial_key = -1;
    std::uint64_t trace = 0;       // obs record id (0 = untraced)
    Bytes bytes_total = 0;         // original size, for link byte counters
    TimeNs ideal = 0;              // uncontended duration at the cap
    sim::EventFn on_complete;
    sim::EventTicket ticket;       // completion key of the last settle
    bool active = false;
  };

  /// A transfer parked behind its pair's busy transmit queue. Lives in a
  /// recycled pool slot; the Route copy-assign reuses the slot's link-vector
  /// capacity, so steady-state queueing is allocation-free.
  struct Pending {
    Route route;
    Bytes bytes = 0;
    TimeNs posted_at = 0;
    sim::EventFn on_complete;
    int next = -1;  ///< intrusive FIFO link within the pair's queue
  };
  /// Flows sharing one (links, per_flow_cap) key. Classes persist once
  /// created (bounded by the distinct route shapes in use), so steady-state
  /// flow churn never allocates one.
  struct FlowClass {
    std::vector<LinkId> links;
    double cap = 0.0;
    int hash_next = -1;        // next class in this key hash's chain
    int head = -1;             // active members, oldest activation first
    int tail = -1;
    int active = 0;
    std::uint64_t oldest = 0;  // activation seq of `head`: the link sort key
    double level = 0.0;        // rate of the last solve that visited it
    bool gained = false;       // a member joined since that solve
    sim::EventHandle armed;    // the class's one queued completion
    int armed_flow = -1;       // member it finishes; -1 while none is queued
    std::uint64_t armed_seq = 0;  // that member's ticket seq when pushed
    // Per-solve scratch.
    std::uint64_t seen = 0;    // visit epoch
    std::size_t group = 0;     // index of the BFS link that discovered it
    double rate = -1.0;        // this solve's rate; < 0 while unfixed
    int earliest = -1;         // settled member with the least ticket
  };

  void start_flow(const Route& route, Bytes bytes, TimeNs alpha_remaining,
                  sim::EventFn on_complete);
  int allocate_pending();
  int class_of(const Route& route);

  void activate(int flow_index);
  void finish(int flow_index);
  /// Recomputes max-min rates within the connected component of classes
  /// reachable from `seed_class`'s links (rates outside it cannot change),
  /// settling and rescheduling only flows whose rate moved.
  void rebalance_component(int seed_class);
  /// Restores a link's oldest-member order after `cls` lost its head.
  void sink_class(std::vector<int>& on_link, int cls);
  /// Re-settles a member of a class this solve touched, if its rate moved
  /// (reserving its new completion ticket), and keeps the class's earliest
  /// ticket. Returns the next member.
  int settle_member(int flow_index, TimeNs now);
  /// Keeps the class's queued completion at `flow_index`'s ticket, which
  /// must be the least of its members': re-pushes only if it moved.
  void arm(int cls, int flow_index);
  /// The member with the least ticket, by a walk of the class's list.
  int earliest_member(const FlowClass& fc) const;
  int allocate_slot();

  sim::Simulator& sim_;
  SharingPolicy policy_;
  const FaultInjector* injector_ = nullptr;
  obs::Recorder* recorder_ = nullptr;
  std::vector<double> capacity_;  // per link
  std::vector<int> link_active_;  // active flows crossing each link
  /// Active classes per link, ordered by their oldest member's activation:
  /// the order a per-flow BFS over activation-ordered link lists meets them.
  std::vector<std::vector<int>> link_classes_;
  std::vector<FlowClass> classes_;
  std::unordered_map<std::uint64_t, int> class_index_;  // key hash -> chain
  std::vector<Flow> flows_;       // slot-reused
  std::vector<int> free_slots_;
  int active_count_ = 0;
  std::uint64_t activation_seq_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t peak_active_ = 0;
  SolverStats stats_;

  // Scratch state reused across rebalances (epoch-marked visit flags).
  std::uint64_t visit_epoch_ = 0;
  std::vector<std::uint64_t> link_seen_;
  std::vector<LinkId> comp_links_;  // component links, BFS order
  std::vector<int> comp_classes_;   // component classes, BFS order
  std::vector<int> touched_;        // classes whose members were settled
  std::vector<double> residual_;
  std::vector<int> unfixed_on_;
  std::vector<int> owed_;  // per-link residual steps not yet applied
  std::vector<std::pair<std::uint64_t, int>> merge_;  // (seq, flow) heap

  // Per-serial-key FIFO state: a key is "busy" while one of its flows is
  // queued for activation or active; waiters chain through pending_pool_
  // slots. Map nodes persist once created (bounded by the number of
  // communicating pairs), so steady-state queueing never touches the heap.
  struct SerialQueue {
    bool busy = false;
    int head = -1;
    int tail = -1;
  };
  std::map<std::int64_t, SerialQueue> serial_;
  std::vector<Pending> pending_pool_;
  std::vector<int> pending_free_;
};

}  // namespace adapt::net
