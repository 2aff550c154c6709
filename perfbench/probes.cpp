// Span log, counter arithmetic and the layer probes of the traced run.
//
// Each probe drives one module through its public API only, sized from the
// workload's own counters, and reports the median of several repetitions.
#include <sys/resource.h>

#include <algorithm>
#include <fstream>

#include "perfbench/bench.hpp"
#include "src/mpi/match.hpp"
#include "src/net/fabric.hpp"
#include "src/sim/event_queue.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/json.hpp"
#include "src/support/rng.hpp"
#include "src/tune/tuner.hpp"

namespace perfbench {

// ------------------------------------------------------------------ spans

SpanLog::SpanLog(bool enabled, std::uint64_t run_id)
    : enabled_(enabled), run_id_(run_id), origin_(Clock::now()) {
  // Room for a window of spans without growing mid-window.
  if (enabled_) spans_.reserve(1 << 16);
}

SpanLog::Scope::Scope(SpanLog* log, const char* name, const char* layer)
    : log_(log) {
  if (log_ == nullptr) return;
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = log_->open_;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - log_->origin_)
                   .count();
  index_ = static_cast<int>(log_->spans_.size());
  log_->spans_.push_back(std::move(s));
  log_->open_ = index_;
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  Span& s = log_->spans_[static_cast<std::size_t>(index_)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - log_->origin_)
                 .count();
  log_->open_ = s.parent;
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

std::map<std::string, double> SpanLog::self_ms_by_layer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.layer] += (s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"run_id\": \"" << std::hex << run_id_ << std::dec
      << "\", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
        << ", \"name\": " << adapt::json_quote(s.name)
        << ", \"layer\": " << adapt::json_quote(s.layer)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --------------------------------------------------------------- counters

Counters Counters::operator-(const Counters& b) const {
  Counters d;
  d.events = events - b.events;
  d.flows = flows - b.flows;
  d.sends = sends - b.sends;
  d.recvs = recvs - b.recvs;
  d.unexpected = unexpected - b.unexpected;
  d.table_hits = table_hits - b.table_hits;
  d.table_misses = table_misses - b.table_misses;
  d.plan_hits = plan_hits - b.plan_hits;
  d.plan_misses = plan_misses - b.plan_misses;
  d.pool_hits = pool_hits - b.pool_hits;
  d.pool_misses = pool_misses - b.pool_misses;
  d.allocs = allocs - b.allocs;
  return d;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ----------------------------------------------------------------- probes

namespace {

constexpr int kProbeReps = 5;

/// Repeats `rep` (which returns the items it processed) until at least
/// `min_ms` of host time has passed, and returns host ns per item.
template <typename Rep>
double ns_per_item(double min_ms, Rep rep) {
  std::uint64_t items = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  do {
    items += rep();
    elapsed = ms_between(t0, Clock::now());
  } while (elapsed < min_ms);
  return elapsed * 1e6 / static_cast<double>(items);
}

}  // namespace

double queue_probe_ns_per_event(std::uint64_t depth) {
  depth = std::max<std::uint64_t>(depth, 1);
  adapt::sim::EventQueue q;
  adapt::Rng rng(1);
  TimeNs now = 0;
  // The queue's clock only moves forward; each round pushes `depth` events
  // spread over the next microseconds and drains them.
  const auto round = [&]() -> std::uint64_t {
    for (std::uint64_t i = 0; i < depth; ++i) {
      q.push(now + 1 + static_cast<TimeNs>(rng.next_below(1 << 16)), [] {});
    }
    while (!q.empty()) now = q.pop().first;
    return depth;
  };
  round();  // warm the slab and radix buckets
  std::vector<double> reps;
  for (int i = 0; i < kProbeReps; ++i) {
    reps.push_back(ns_per_item(20.0, round));
  }
  return median(reps);
}

double fabric_probe_us_per_flow(std::uint64_t flows) {
  flows = std::max<std::uint64_t>(flows, 1);
  std::vector<double> reps;
  for (int i = 0; i < kProbeReps; ++i) {
    reps.push_back(ns_per_item(20.0, [flows]() -> std::uint64_t {
                     adapt::sim::Simulator sim;
                     adapt::net::Fabric fabric(sim);
                     const adapt::net::LinkId link = fabric.add_link(8.0);
                     for (std::uint64_t f = 0; f < flows; ++f) {
                       adapt::net::Route route;
                       route.links = {link};
                       route.per_flow_cap = 1.0;
                       route.alpha = 100 + static_cast<TimeNs>(f % 64);
                       fabric.transfer(route, adapt::kib(64), [] {});
                     }
                     sim.run();
                     return fabric.flows_completed();
                   }) /
                   1e3);
  }
  return median(reps);
}

double matcher_probe_ns_per_match(std::uint64_t per_rank,
                                  double unexpected_share) {
  per_rank = std::max<std::uint64_t>(per_rank, 1);
  const auto unexpected = static_cast<std::uint64_t>(
      static_cast<double>(per_rank) * unexpected_share + 0.5);
  adapt::mpi::Matcher m;
  const auto env = [](std::uint64_t i) {
    adapt::mpi::Envelope e;
    e.src = static_cast<adapt::Rank>(i % 64);
    e.dst = 0;
    e.tag = static_cast<adapt::Tag>(i);
    return e;
  };
  const auto recv = [](std::uint64_t i) {
    return adapt::mpi::PostedRecv{nullptr, adapt::mpi::MutView{},
                                  static_cast<adapt::Rank>(i % 64),
                                  static_cast<adapt::Tag>(i)};
  };
  // One collective's worth of matching on one rank: the unexpected share
  // arrives first, then every receive is posted, then the rest arrive.
  const auto round = [&]() -> std::uint64_t {
    std::uint64_t matched = 0;
    for (std::uint64_t i = 0; i < unexpected; ++i) {
      matched += m.arrive(env(i)).has_value();
    }
    for (std::uint64_t i = 0; i < per_rank; ++i) {
      matched += m.post(recv(i)).has_value();
    }
    for (std::uint64_t i = unexpected; i < per_rank; ++i) {
      matched += m.arrive(env(i)).has_value();
    }
    return matched;
  };
  round();  // grow the (src, tag) buckets once
  std::vector<double> reps;
  for (int i = 0; i < kProbeReps; ++i) {
    reps.push_back(ns_per_item(10.0, round));
  }
  return median(reps);
}

ChooseProbe choose_probe(SpanLog& spans, const adapt::topo::Machine& machine,
                         const std::vector<adapt::tune::Op>& ops, int ranks,
                         Bytes bytes) {
  auto s = spans.span("probe.tune.choose", "tune");
  ChooseProbe out;
  std::vector<double> miss;
  for (int i = 0; i < 3; ++i) {
    adapt::tune::Tuner fresh(machine);
    for (const adapt::tune::Op op : ops) {
      const Clock::time_point t0 = Clock::now();
      fresh.choose(op, ranks, bytes);
      miss.push_back(ms_between(t0, Clock::now()));
    }
  }
  out.miss_ms = median(miss);
  adapt::tune::Tuner warm(machine);
  for (const adapt::tune::Op op : ops) warm.choose(op, ranks, bytes);
  std::vector<double> hit;
  for (int i = 0; i < kProbeReps; ++i) {
    hit.push_back(ns_per_item(5.0, [&]() -> std::uint64_t {
                    for (const adapt::tune::Op op : ops) {
                      warm.choose(op, ranks, bytes);
                    }
                    return ops.size();
                  }) /
                  1e3);
  }
  out.hit_us = median(hit);
  return out;
}

}  // namespace perfbench
