#include "src/sim/simulator.hpp"

#include "src/support/error.hpp"

namespace adapt::sim {

EventHandle Simulator::at(TimeNs t, EventFn fn) {
  ADAPT_CHECK(t >= now_) << "scheduling into the past: t=" << t
                         << " now=" << now_;
  return queue_.push(t, std::move(fn));
}

EventHandle Simulator::after(TimeNs delay, EventFn fn) {
  ADAPT_CHECK(delay >= 0) << "negative delay " << delay;
  return queue_.push(now_ + delay, std::move(fn));
}

EventHandle Simulator::push_ticket(const EventTicket& ticket, EventFn fn) {
  return queue_.push_ticket(ticket, std::move(fn));
}

TimeNs Simulator::run(TimeNs until) {
  while (!queue_.empty() && queue_.next_time() <= until) {
    auto [t, fn] = queue_.pop();
    now_ = t;
    ++processed_;
    fn();
  }
  return now_;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto [t, fn] = queue_.pop();
  now_ = t;
  ++processed_;
  fn();
  return true;
}

}  // namespace adapt::sim
