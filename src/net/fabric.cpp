#include "src/net/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "src/support/error.hpp"

namespace adapt::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kRateEps = 1e-9;

TimeNs duration_of(double bytes, double rate) {
  return static_cast<TimeNs>(std::ceil(bytes / rate));
}
}  // namespace

Fabric::Fabric(sim::Simulator& simulator, SharingPolicy policy)
    : sim_(simulator), policy_(policy) {}

LinkId Fabric::add_link(double capacity_bytes_per_ns) {
  ADAPT_CHECK(capacity_bytes_per_ns > 0.0);
  capacity_.push_back(capacity_bytes_per_ns);
  link_active_.push_back(0);
  link_classes_.emplace_back();
  return static_cast<LinkId>(capacity_.size() - 1);
}

double Fabric::link_capacity(LinkId id) const {
  ADAPT_CHECK(id >= 0 && id < static_cast<LinkId>(capacity_.size()));
  return capacity_[static_cast<std::size_t>(id)];
}

int Fabric::allocate_slot() {
  if (!free_slots_.empty()) {
    const int slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  flows_.emplace_back();
  return static_cast<int>(flows_.size() - 1);
}

// Finds or creates the class of flows with this route's (links, cap). A
// lookup hashes the key and walks that hash's chain; only a never-seen route
// shape allocates.
int Fabric::class_of(const Route& route) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the key words
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (LinkId l : route.links) mix(static_cast<std::uint64_t>(l));
  std::uint64_t cap_bits = 0;
  std::memcpy(&cap_bits, &route.per_flow_cap, sizeof cap_bits);
  mix(cap_bits);
  const auto it = class_index_.try_emplace(h, -1).first;
  for (int c = it->second; c >= 0;
       c = classes_[static_cast<std::size_t>(c)].hash_next) {
    const FlowClass& fc = classes_[static_cast<std::size_t>(c)];
    if (fc.cap == route.per_flow_cap && fc.links == route.links) return c;
  }
  const int c = static_cast<int>(classes_.size());
  FlowClass& fc = classes_.emplace_back();
  fc.links = route.links;
  fc.cap = route.per_flow_cap;
  fc.hash_next = it->second;
  it->second = c;
  return c;
}

int Fabric::allocate_pending() {
  if (!pending_free_.empty()) {
    const int slot = pending_free_.back();
    pending_free_.pop_back();
    return slot;
  }
  pending_pool_.emplace_back();
  return static_cast<int>(pending_pool_.size() - 1);
}

void Fabric::transfer(const Route& route, Bytes bytes,
                      sim::EventFn on_complete) {
  ADAPT_CHECK(bytes >= 0);
  ADAPT_CHECK(route.per_flow_cap > 0.0) << "route without a rate cap";
  for (LinkId l : route.links)
    ADAPT_CHECK(l >= 0 && l < static_cast<LinkId>(capacity_.size()));

  // Fast paths that never enter bandwidth sharing.
  if (bytes == 0 || route.links.empty() ||
      policy_ == SharingPolicy::kUncontended) {
    const TimeNs stream =
        bytes > 0 ? duration_of(static_cast<double>(bytes), route.per_flow_cap)
                  : 0;
    if (recorder_ && route.trace) {
      recorder_->transfer_active(route.trace, sim_.now() + route.alpha,
                                 stream);
      recorder_->transfer_end(route.trace, sim_.now() + route.alpha + stream);
      for (LinkId l : route.links)
        recorder_->metrics().link_bytes(l) += bytes;
    }
    sim_.after(route.alpha + stream, std::move(on_complete));
    return;
  }

  if (route.serial_key >= 0) {
    SerialQueue& q = serial_[route.serial_key];
    if (q.busy) {
      // The pair's transmit queue is busy: park in a recycled pool slot and
      // wait for the predecessor; the time spent waiting counts against this
      // message's startup latency.
      const int slot = allocate_pending();
      Pending& p = pending_pool_[static_cast<std::size_t>(slot)];
      p.route = route;  // copy-assign reuses the slot's links capacity
      p.bytes = bytes;
      p.posted_at = sim_.now();
      p.on_complete = std::move(on_complete);
      p.next = -1;
      if (q.tail >= 0) {
        pending_pool_[static_cast<std::size_t>(q.tail)].next = slot;
      } else {
        q.head = slot;
      }
      q.tail = slot;
      return;
    }
    q.busy = true;
  }
  start_flow(route, bytes, route.alpha, std::move(on_complete));
}

void Fabric::transfer_tagged(const Route& route, Bytes bytes,
                             const FaultKey& key,
                             std::function<void(const TransferFate&)> on_complete) {
  if (injector_ == nullptr) {
    transfer(route, bytes,
             [cb = std::move(on_complete)] { cb(TransferFate{}); });
    return;
  }
  const TransferFate fate = injector_->decide(key, route.links, sim_.now());
  Route shifted = route;
  shifted.alpha += fate.delay;
  transfer(shifted, bytes, [cb = std::move(on_complete), fate] { cb(fate); });
}

void Fabric::start_flow(const Route& route, Bytes bytes,
                        TimeNs alpha_remaining, sim::EventFn on_complete) {
  const int cls = class_of(route);
  const int slot = allocate_slot();
  Flow& f = flows_[static_cast<std::size_t>(slot)];
  f.cls = cls;
  f.remaining = static_cast<double>(bytes);
  f.rate = 0.0;
  f.serial_key = route.serial_key;
  f.trace = route.trace;
  f.bytes_total = bytes;
  f.ideal = duration_of(static_cast<double>(bytes), route.per_flow_cap);
  f.on_complete = std::move(on_complete);
  f.active = false;
  sim_.after(alpha_remaining, [this, slot] { activate(slot); });
}

void Fabric::activate(int flow_index) {
  Flow& f = flows_[static_cast<std::size_t>(flow_index)];
  f.active = true;
  f.settled_at = sim_.now();
  f.seq = ++activation_seq_;
  const int cls = f.cls;
  FlowClass& fc = classes_[static_cast<std::size_t>(cls)];
  f.prev = fc.tail;
  f.next = -1;
  if (fc.tail >= 0) {
    flows_[static_cast<std::size_t>(fc.tail)].next = flow_index;
  } else {
    fc.head = flow_index;
  }
  fc.tail = flow_index;
  fc.gained = true;
  if (fc.active++ == 0) {
    fc.oldest = f.seq;
    // The newest activation sorts last on every link (a link repeated in
    // the route lists the class once).
    for (LinkId l : fc.links) {
      auto& on_link = link_classes_[static_cast<std::size_t>(l)];
      if (on_link.empty() || on_link.back() != cls) on_link.push_back(cls);
    }
  }
  for (LinkId l : fc.links) ++link_active_[static_cast<std::size_t>(l)];
  ++active_count_;
  peak_active_ = std::max<std::uint64_t>(
      peak_active_, static_cast<std::uint64_t>(active_count_));
  if (recorder_) {
    if (f.trace) recorder_->transfer_active(f.trace, sim_.now(), f.ideal);
    for (LinkId l : fc.links) {
      recorder_->link_sample(l, sim_.now(),
                             link_active_[static_cast<std::size_t>(l)]);
    }
  }
  rebalance_component(cls);
}

// The class lost its oldest member, so its sort key grew: move it right past
// the classes whose oldest member is now older. Idempotent, so a link that
// appears twice in the route is handled by the second call finding it placed.
void Fabric::sink_class(std::vector<int>& on_link, int cls) {
  const std::uint64_t key = classes_[static_cast<std::size_t>(cls)].oldest;
  auto it = std::find(on_link.begin(), on_link.end(), cls);
  for (auto next = it + 1; next != on_link.end(); ++it, ++next) {
    if (classes_[static_cast<std::size_t>(*next)].oldest >= key) break;
    std::iter_swap(it, next);
  }
}

void Fabric::finish(int flow_index) {
  Flow& f = flows_[static_cast<std::size_t>(flow_index)];
  ADAPT_CHECK(f.active);
  f.active = false;
  const int cls = f.cls;
  FlowClass& fc = classes_[static_cast<std::size_t>(cls)];
  // Only the class's queued completion calls finish, and it has now fired.
  ADAPT_CHECK(fc.armed_flow == flow_index);
  fc.armed_flow = -1;
  const bool was_head = f.prev < 0;
  if (f.prev >= 0) {
    flows_[static_cast<std::size_t>(f.prev)].next = f.next;
  } else {
    fc.head = f.next;
  }
  if (f.next >= 0) {
    flows_[static_cast<std::size_t>(f.next)].prev = f.prev;
  } else {
    fc.tail = f.prev;
  }
  f.prev = f.next = -1;
  if (--fc.active > 0 && was_head) {
    fc.oldest = flows_[static_cast<std::size_t>(fc.head)].seq;
  }
  for (LinkId l : fc.links) {
    const auto lu = static_cast<std::size_t>(l);
    --link_active_[lu];
    auto& on_link = link_classes_[lu];
    if (fc.active == 0) {
      auto it = std::find(on_link.begin(), on_link.end(), cls);
      if (it != on_link.end()) on_link.erase(it);
    } else if (was_head) {
      sink_class(on_link, cls);
    }
  }
  --active_count_;
  ++completed_;
  auto cb = std::move(f.on_complete);
  f.on_complete = nullptr;
  const std::int64_t key = f.serial_key;
  f.serial_key = -1;
  if (recorder_) {
    if (f.trace) recorder_->transfer_end(f.trace, sim_.now());
    for (LinkId l : fc.links) {
      recorder_->metrics().link_bytes(l) += f.bytes_total;
      recorder_->link_sample(l, sim_.now(),
                             link_active_[static_cast<std::size_t>(l)]);
    }
  }
  f.trace = 0;
  f.bytes_total = 0;
  f.ideal = 0;
  free_slots_.push_back(flow_index);

  // Hand the pair's transmit queue to the next waiting message. This may
  // reuse the slot and grow classes_: `f` and `fc` are dead from here on.
  if (key >= 0) {
    SerialQueue& q = serial_[key];
    if (q.head >= 0) {
      const int slot = q.head;
      Pending& next = pending_pool_[static_cast<std::size_t>(slot)];
      q.head = next.next;
      if (q.head < 0) q.tail = -1;
      const TimeNs waited = sim_.now() - next.posted_at;
      const TimeNs alpha_remaining =
          std::max<TimeNs>(0, next.route.alpha - waited);
      start_flow(next.route, next.bytes, alpha_remaining,
                 std::move(next.on_complete));
      pending_free_.push_back(slot);  // links capacity stays with the slot
    } else {
      q.busy = false;
    }
  }

  rebalance_component(cls);
  // A solve that left this class's rate alone did not re-arm it.
  const FlowClass& left = classes_[static_cast<std::size_t>(cls)];
  if (left.active > 0 && left.armed_flow < 0) {
    arm(cls, earliest_member(left));
  }
  cb();
}

// Max–min rates over the connected component of classes reachable from the
// seed class's links: rates can only change within it, so per-event cost
// tracks local congestion, not cluster size. Every step mirrors a per-flow
// solver over activation-ordered link lists (DESIGN §4.1): classes are met
// in that solver's BFS order, a fixed class subtracts its level once per
// member, and the flows to reschedule are emitted in that solver's order.
void Fabric::rebalance_component(int seed_class) {
  ++visit_epoch_;
  link_seen_.resize(capacity_.size(), 0);
  comp_links_.clear();
  comp_classes_.clear();
  auto reach = [this](const FlowClass& fc) {
    for (LinkId l : fc.links) {
      const auto lu = static_cast<std::size_t>(l);
      if (link_seen_[lu] != visit_epoch_) {
        link_seen_[lu] = visit_epoch_;
        comp_links_.push_back(l);
      }
    }
  };
  reach(classes_[static_cast<std::size_t>(seed_class)]);
  for (std::size_t qi = 0; qi < comp_links_.size(); ++qi) {
    const auto lu = static_cast<std::size_t>(comp_links_[qi]);
    for (int c : link_classes_[lu]) {
      FlowClass& fc = classes_[static_cast<std::size_t>(c)];
      if (fc.seen == visit_epoch_) continue;
      fc.seen = visit_epoch_;
      fc.group = qi;
      fc.rate = -1.0;
      comp_classes_.push_back(c);
      reach(fc);
    }
  }
  if (comp_classes_.empty()) return;
  const std::size_t n = comp_classes_.size();
  ++stats_.rebalances;
  stats_.classes_visited += n;

  // Progressive filling restricted to the component. Links outside carry
  // none of these flows by construction.
  residual_.resize(capacity_.size());
  unfixed_on_.resize(capacity_.size());
  owed_.resize(capacity_.size());
  for (LinkId l : comp_links_) {
    const auto lu = static_cast<std::size_t>(l);
    residual_[lu] = capacity_[lu];
    unfixed_on_[lu] = link_active_[lu];
    owed_[lu] = 0;
  }
  // Fixing k flows at `level` owes each of their links k clamped
  // subtractions, applied one flow at a time as a per-flow solver would: a
  // single r - k * level rounds differently. The debt is paid when the
  // residual is next read; a link whose flows are all fixed is never read
  // again in this solve, so its debt is dropped.
  auto pay = [this](std::size_t lu, double level) {
    double r = residual_[lu];
    for (int k = owed_[lu]; k > 0 && r > 0.0; --k) {
      r = std::max(0.0, r - level);
    }
    residual_[lu] = r;
    owed_[lu] = 0;
  };

  std::size_t nfixed = 0;
  while (nfixed < n) {
    double link_share = kInf;
    for (LinkId l : comp_links_) {
      const auto lu = static_cast<std::size_t>(l);
      if (unfixed_on_[lu] > 0)
        link_share = std::min(link_share, residual_[lu] / unfixed_on_[lu]);
    }
    double flow_cap = kInf;
    for (int c : comp_classes_) {
      const FlowClass& fc = classes_[static_cast<std::size_t>(c)];
      if (fc.rate < 0.0) flow_cap = std::min(flow_cap, fc.cap);
    }
    const bool cap_binds = flow_cap <= link_share;
    const double level = cap_binds ? flow_cap : link_share;
    ADAPT_CHECK(level > 0.0 && level < kInf);
    const double threshold = level * (1.0 + 1e-12);

    bool fixed_any = false;
    for (int c : comp_classes_) {
      FlowClass& fc = classes_[static_cast<std::size_t>(c)];
      if (fc.rate >= 0.0) continue;
      bool binds;
      if (cap_binds) {
        binds = fc.cap <= threshold;
      } else {
        binds = false;
        for (LinkId l : fc.links) {
          const auto lu = static_cast<std::size_t>(l);
          pay(lu, level);
          if (residual_[lu] / unfixed_on_[lu] <= threshold) {
            binds = true;
            break;
          }
        }
      }
      if (!binds) continue;
      fc.rate = level;
      ++nfixed;
      fixed_any = true;
      for (LinkId l : fc.links) {
        const auto lu = static_cast<std::size_t>(l);
        owed_[lu] += fc.active;
        unfixed_on_[lu] -= fc.active;
      }
    }
    ADAPT_CHECK(fixed_any) << "progressive filling made no progress";
    for (LinkId l : comp_links_) {
      const auto lu = static_cast<std::size_t>(l);
      if (unfixed_on_[lu] > 0) {
        pay(lu, level);
      } else {
        owed_[lu] = 0;
      }
    }
  }

  // Settle and reschedule only members of classes whose rate moved bitwise
  // or that gained a member. A per-flow BFS meets the flows of the classes
  // discovered from one link in activation order, so each such group's
  // members are merged by activation sequence: tickets are reserved in the
  // per-flow solver's push order, and same-ns completions keep their order.
  const TimeNs now = sim_.now();
  auto later = std::greater<std::pair<std::uint64_t, int>>();
  touched_.clear();
  for (std::size_t i = 0; i < n;) {
    const std::size_t group =
        classes_[static_cast<std::size_t>(comp_classes_[i])].group;
    merge_.clear();
    for (; i < n; ++i) {
      FlowClass& fc = classes_[static_cast<std::size_t>(comp_classes_[i])];
      if (fc.group != group) break;
      if (fc.gained || fc.rate != fc.level) {
        merge_.emplace_back(fc.oldest, fc.head);
        touched_.push_back(comp_classes_[i]);
        fc.earliest = -1;
      }
      fc.level = fc.rate;
      fc.gained = false;
    }
    std::make_heap(merge_.begin(), merge_.end(), later);
    while (!merge_.empty()) {
      std::pop_heap(merge_.begin(), merge_.end(), later);
      const int fi = merge_.back().second;
      merge_.pop_back();
      const int next = settle_member(fi, now);
      if (next >= 0) {
        merge_.emplace_back(flows_[static_cast<std::size_t>(next)].seq, next);
        std::push_heap(merge_.begin(), merge_.end(), later);
      }
    }
  }
  for (int c : touched_) {
    arm(c, classes_[static_cast<std::size_t>(c)].earliest);
  }
}

int Fabric::settle_member(int flow_index, TimeNs now) {
  Flow& f = flows_[static_cast<std::size_t>(flow_index)];
  FlowClass& fc = classes_[static_cast<std::size_t>(f.cls)];
  const bool changed =
      std::abs(fc.rate - f.rate) > kRateEps * std::max(1.0, f.rate);
  // start_flow resets the rate to 0, so a member's first settle is a
  // change unless its class is starved, which the check below catches.
  if (changed) {
    f.remaining = std::max(
        0.0, f.remaining - f.rate * static_cast<double>(now - f.settled_at));
    f.settled_at = now;
    f.rate = fc.rate;
    ADAPT_CHECK(f.rate > 0.0) << "active flow starved";
    f.ticket = sim_.reserve(now + duration_of(f.remaining, f.rate));
    ++stats_.flows_rescheduled;
  } else {
    ADAPT_CHECK(f.rate > 0.0) << "active flow starved";
  }
  if (fc.earliest < 0 ||
      f.ticket < flows_[static_cast<std::size_t>(fc.earliest)].ticket) {
    fc.earliest = flow_index;
  }
  return f.next;
}

void Fabric::arm(int cls, int flow_index) {
  FlowClass& fc = classes_[static_cast<std::size_t>(cls)];
  const sim::EventTicket& ticket =
      flows_[static_cast<std::size_t>(flow_index)].ticket;
  if (fc.armed_flow >= 0) {
    if (ticket.seq == fc.armed_seq) return;  // seqs name tickets uniquely
    fc.armed.cancel();
  }
  fc.armed =
      sim_.push_ticket(ticket, [this, flow_index] { finish(flow_index); });
  fc.armed_flow = flow_index;
  fc.armed_seq = ticket.seq;
  ++stats_.completions_armed;
}

int Fabric::earliest_member(const FlowClass& fc) const {
  int best = fc.head;
  for (int fi = flows_[static_cast<std::size_t>(best)].next; fi >= 0;
       fi = flows_[static_cast<std::size_t>(fi)].next) {
    if (flows_[static_cast<std::size_t>(fi)].ticket <
        flows_[static_cast<std::size_t>(best)].ticket) {
      best = fi;
    }
  }
  return best;
}

}  // namespace adapt::net
