// Shared declarations of the host-time benchmark (see README.md).
//
// The benchmark measures the simulator from outside: it times calls into the
// library's public functions and reads public counters, and never reaches
// into src/ for spans of its own.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/support/units.hpp"
#include "src/topo/hardware.hpp"
#include "src/tune/cost.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using adapt::Bytes;
using adapt::TimeNs;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Heap allocations made by the process so far (the benchmark replaces the
/// global operator new with a counting one).
std::uint64_t allocation_count();

// ------------------------------------------------------------------ spans

/// In-memory span log of the traced run. Each span is one call the benchmark
/// makes into a layer: name, layer, start, end, parent span and run id.
/// A disabled log records nothing and reads no clock.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string layer;
    std::int64_t start_ns = 0;  ///< since the log was created
    std::int64_t end_ns = 0;
    int parent = -1;            ///< index of the enclosing span, -1 = none
  };

  /// RAII span: opens at construction, closes at destruction.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  SpanLog(bool enabled, std::uint64_t run_id);

  bool enabled() const { return enabled_; }
  /// Opens a span when the log is enabled and `on` holds.
  Scope span(const char* name, const char* layer, bool on = true) {
    return Scope(enabled_ && on ? this : nullptr, name, layer);
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ms) of every closed span called `name`, in order.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Self time per layer: each span's duration minus what its children
  /// cover, summed by layer.
  std::map<std::string, double> self_ms_by_layer() const;
  /// Writes {"run_id", "spans": [...]} to `path`; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::uint64_t run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;  ///< innermost open span
};

// --------------------------------------------------------------- counters

/// Public counters of the layers, summed over the engine. Snapshots taken
/// at the edges of the measured window are subtracted, so warm-up work
/// never leaks into per-collective figures.
struct Counters {
  std::uint64_t events = 0;      ///< sim: events executed
  std::uint64_t flows = 0;       ///< net: fabric flows completed
  std::uint64_t sends = 0;       ///< mpi: sends started (all ranks)
  std::uint64_t recvs = 0;       ///< mpi: receives completed (all ranks)
  std::uint64_t unexpected = 0;  ///< mpi: arrivals that found no receive
  std::uint64_t table_hits = 0;  ///< tune: decision-table hits
  std::uint64_t table_misses = 0;
  std::uint64_t plan_hits = 0;   ///< tune: persistent plan-cache hits
  std::uint64_t plan_misses = 0;
  std::uint64_t pool_hits = 0;   ///< support: buffer-pool free-list hits
  std::uint64_t pool_misses = 0;
  std::uint64_t allocs = 0;      ///< process heap allocations

  Counters operator-(const Counters& before) const;
};

/// One measured collective.
struct Sample {
  double host_ms = 0.0;     ///< host time inside the library
  TimeNs virtual_ns = 0;    ///< simulated duration
  bool payload_ok = true;   ///< every rank's result matched
  std::uint64_t finish_hash = 0;  ///< sharded only: finish-time fingerprint
};

/// Process peak resident memory so far, in MiB.
double peak_rss_mb();

/// Reads the peak resident memory once `after` measured collectives have
/// completed. Per-call collectives grow matcher state with every call, so a
/// reading at a fixed count keeps peak_rss_mb apart from throughput.
struct RssProbe {
  std::size_t after = 0;
  double mb = 0.0;
  void completed(std::size_t done) {
    if (mb == 0.0 && done >= after) mb = peak_rss_mb();
  }
};

/// Per-layer metric values of the traced run, by name.
using Metrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds machine, engine and collective state, then runs warm-up.
  virtual void setup(SpanLog& spans) = 0;
  /// Destroys everything setup() built.
  virtual void teardown() = 0;
  /// Runs collectives for about `seconds` of host time and appends one
  /// sample per measured collective. `trace_every_other` wraps every
  /// even-numbered collective in a span of its own (the traced run's
  /// overhead estimate compares them with the others).
  virtual void run_window(double seconds, SpanLog& spans,
                          bool trace_every_other, std::vector<Sample>& out,
                          RssProbe& rss) = 0;
  /// Window collectives after which peak_rss_mb is read: a count every
  /// window reaches within its first few seconds on the reference machine.
  virtual std::size_t rss_collectives() const = 0;
  virtual Counters counters() = 0;
  /// Fabric high-water mark of concurrently active flows (0 without one).
  virtual std::uint64_t peak_active_flows() { return 0; }
  /// Sharded engine rank-state high-water mark (0 on the SimEngine).
  virtual std::uint64_t rank_state_peak_bytes() { return 0; }
  /// Number of ranks, for per-rank sizing of the matcher probe.
  virtual int ranks() const = 0;
  /// Traced run only: events executed per collective when the engine has
  /// no public event counter (0 = use Counters::events).
  virtual double counted_events_per_coll(SpanLog&) { return 0.0; }
  /// Traced run only: the workload-specific layer probes (coll, tune,
  /// runtime); writes coll.tree_build_ms, coll.persistent_init_ms,
  /// tune.choose_hit_us, tune.choose_miss_ms, runtime.sharded_speedup_vs_1.
  virtual void layer_probes(SpanLog& spans, Metrics& out) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
const std::vector<std::string>& workload_names();

// ----------------------------------------------------------------- probes

/// Median of `v` (v non-empty).
double median(std::vector<double> v);

/// tune: Tuner::choose for every op in `ops` over (`ranks`, `bytes`) on
/// `machine`. miss_ms: first call on a fresh tuner (grid priced); hit_us:
/// a call answered from the warm decision table. Both per call.
struct ChooseProbe {
  double miss_ms = 0.0;
  double hit_us = 0.0;
};
ChooseProbe choose_probe(SpanLog& spans, const adapt::topo::Machine& machine,
                         const std::vector<adapt::tune::Op>& ops, int ranks,
                         Bytes bytes);

/// sim: push/pop cost of an EventQueue holding `depth` pending events, in
/// ns per event.
double queue_probe_ns_per_event(std::uint64_t depth);
/// net: cost of `flows` concurrent transfers over one shared link, in us
/// per flow.
double fabric_probe_us_per_flow(std::uint64_t flows);
/// mpi: cost of matching `per_rank` messages per rank, `unexpected_share`
/// of them arriving before their receive, in ns per match.
double matcher_probe_ns_per_match(std::uint64_t per_rank,
                                  double unexpected_share);

}  // namespace perfbench
