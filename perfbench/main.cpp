// adapt_perfbench: the repo's host-time benchmark (see README.md).
//
//   adapt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--reference FILE] [--spans FILE]
//
// Runs one workload: several set-ups (setup_s is their median), then a
// measured window of `S` host seconds. Every collective's virtual time is
// compared with the pinned reference and, where the workload carries real
// payloads, every rank's result is checked; a mismatch counts the
// collective as failed. The last stdout line is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

// Counting global allocator: every path into the heap bumps one counter, so
// snapshots at the window edges give allocations per collective.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
// The nothrow forms too (std::stable_sort's temporary buffer uses them), so
// every allocation is counted and pairs with the free() below.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void* operator new(std::size_t n, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  return posix_memalign(&p, static_cast<std::size_t>(align), n ? n : 1) == 0
             ? p
             : nullptr;
}
void* operator new[](std::size_t n, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(n, align, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/bench.hpp"
#include "src/support/json.hpp"

namespace perfbench {

std::uint64_t allocation_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetupTrials = 5;

constexpr const char* kUsage =
    "usage: adapt_perfbench --workload NAME --seed N --seconds S "
    "--trace 0|1\n"
    "                       [--reference FILE] [--spans FILE]\n"
    "\n"
    "  --workload   fabric_bcast_1024 | adapt_percall_64 |\n"
    "               adapt_persistent_64 | sharded_bcast_4096\n"
    "  --seed       payload seed (non-negative integer); virtual time does\n"
    "               not depend on it\n"
    "  --seconds    length of the measured window, 1..600\n"
    "  --trace      0: end-to-end metrics; 1: per-layer metrics (traced run)\n"
    "  --reference  pinned virtual times (default perfbench/reference.json)\n"
    "  --spans      traced run: write the span log to this file\n";

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string reference = "perfbench/reference.json";
  std::string spans;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "adapt_perfbench: " << message << "\n" << kUsage;
  std::exit(2);
}

/// Parses a whole decimal integer in [lo, hi]; anything else is an error.
std::int64_t parse_int(const std::string& flag, const std::string& text,
                       std::int64_t lo, std::int64_t hi) {
  std::size_t used = 0;
  long long v = 0;
  try {
    v = std::stoll(text, &used, 10);
  } catch (const std::exception&) {
    used = 0;
  }
  if (text.empty() || used != text.size() || v < lo || v > hi) {
    usage_error(flag + " expects an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got '" + text + "'");
  }
  return v;
}

/// Strict parser: every flag is known, takes exactly one value
/// (`--flag value` or `--flag=value`) and appears at most once. The
/// shared bench::Cli accepts typos silently, so it is not used here.
Options parse_cli(int argc, char** argv) {
  Options o;
  std::vector<std::string> seen;
  bool has_seed = false, has_seconds = false, has_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      usage_error("unexpected argument '" + arg + "'");
    }
    std::string key = arg.substr(2);
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else {
      if (i + 1 >= argc) usage_error("--" + key + " needs a value");
      value = argv[++i];
    }
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      usage_error("--" + key + " given twice");
    }
    seen.push_back(key);
    if (key == "workload") {
      const auto& names = workload_names();
      if (std::find(names.begin(), names.end(), value) == names.end()) {
        usage_error("unknown workload '" + value + "'");
      }
      o.workload = value;
    } else if (key == "seed") {
      o.seed = static_cast<std::uint64_t>(
          parse_int("--seed", value, 0, std::int64_t{1} << 62));
      has_seed = true;
    } else if (key == "seconds") {
      o.seconds = static_cast<double>(parse_int("--seconds", value, 1, 600));
      has_seconds = true;
    } else if (key == "trace") {
      o.trace = parse_int("--trace", value, 0, 1) == 1;
      has_trace = true;
    } else if (key == "reference") {
      o.reference = value;
    } else if (key == "spans") {
      o.spans = value;
    } else {
      usage_error("unknown flag '--" + key + "'");
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  if (!has_seed) usage_error("--seed is required");
  if (!has_seconds) usage_error("--seconds is required");
  if (!has_trace) usage_error("--trace is required");
  return o;
}

/// Pinned per-collective virtual time (and, for the sharded workload, the
/// finish-time hash). Both 64-rank workloads read the one "adapt_64" entry:
/// they must agree on virtual time.
struct Reference {
  TimeNs virtual_ns = 0;
  std::optional<std::uint64_t> finish_hash;
};

Reference load_reference(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference file " + path);
  std::stringstream text;
  text << in.rdbuf();
  const adapt::JsonValue doc = adapt::parse_json(text.str());
  const bool adapt_64 =
      workload == "adapt_percall_64" || workload == "adapt_persistent_64";
  const std::string key = adapt_64 ? "adapt_64" : workload;
  const adapt::JsonValue& entry = doc.at(key);
  Reference ref;
  ref.virtual_ns = entry.at("virtual_ns_per_coll").as_int();
  if (entry.has("finish_hash")) {
    ref.finish_hash =
        std::stoull(entry.at("finish_hash").as_string(), nullptr, 16);
  }
  return ref;
}

/// `q`-quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Collectives per host second: the median over consecutive slices of at
/// least a quarter host second each (the whole window when it is shorter).
/// A collective stalled by other tenants then moves the rate no more than it
/// moves the median collective.
double median_slice_rate(const std::vector<double>& host_ms) {
  std::vector<double> rates;
  double total_ms = 0.0, slice_ms = 0.0;
  std::size_t slice_n = 0;
  for (const double ms : host_ms) {
    total_ms += ms;
    slice_ms += ms;
    ++slice_n;
    if (slice_ms >= 250.0) {
      rates.push_back(static_cast<double>(slice_n) / (slice_ms / 1e3));
      slice_ms = 0.0;
      slice_n = 0;
    }
  }
  if (rates.empty()) {
    return static_cast<double>(host_ms.size()) / (total_ms / 1e3);
  }
  return median(rates);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// The traced run's per-layer metrics, in output order, with their units.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"sim.events_per_coll", "count"},
    {"sim.events_per_host_s", "1/s"},
    {"sim.queue_probe_ns_per_event", "ns"},
    {"net.flows_per_coll", "count"},
    {"net.peak_active_flows", "count"},
    {"net.fabric_probe_us_per_flow", "us"},
    {"mpi.sends_per_coll", "count"},
    {"mpi.unexpected_ratio", "ratio"},
    {"mpi.matcher_probe_ns_per_match", "ns"},
    {"coll.tree_build_ms", "ms"},
    {"coll.persistent_init_ms", "ms"},
    {"tune.choose_hit_us", "us"},
    {"tune.choose_miss_ms", "ms"},
    {"tune.table_hit_ratio", "ratio"},
    {"tune.plan_cache_hit_ratio", "ratio"},
    {"support.allocs_per_coll", "count"},
    {"support.pool_hit_ratio", "ratio"},
    {"runtime.engine_ctor_ms", "ms"},
    {"runtime.sharded_speedup_vs_1", "x"},
    {"runtime.rank_state_peak_bytes", "bytes"},
    {"topo.machine_build_ms", "ms"},
    {"trace.overhead", "x"},
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) {
      throw std::runtime_error(metrics[i].name + " is not a finite number");
    }
    out << (i ? ", " : "") << adapt::json_quote(metrics[i].name)
        << ": {\"value\": " << metrics[i].value
        << ", \"unit\": " << adapt::json_quote(metrics[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

int run(const Options& opt) {
  const Reference ref = load_reference(opt.reference, opt.workload);
  const std::unique_ptr<Workload> wl = make_workload(opt.workload, opt.seed);
  const auto run_id = static_cast<std::uint64_t>(
      Clock::now().time_since_epoch().count());
  SpanLog spans(opt.trace, run_id ^ opt.seed);

  std::vector<double> setup_s;
  for (int k = 0; k < kSetupTrials; ++k) {
    if (k > 0) wl->teardown();
    const Clock::time_point t0 = Clock::now();
    {
      auto s = spans.span("setup", "bench");
      wl->setup(spans);
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  // Medians over the set-ups only: the traced run's probes build engines too.
  double engine_ctor_ms = 0.0, machine_build_ms = 0.0;
  if (opt.trace) {
    engine_ctor_ms = median(spans.durations_ms("runtime.engine_ctor"));
    machine_build_ms = median(spans.durations_ms("topo.machine_build"));
  }

  const Counters before = wl->counters();
  std::vector<Sample> samples;
  RssProbe rss{wl->rss_collectives()};
  {
    // Collectives outside a span of their own are engine runs too.
    auto s = spans.span("window", "runtime");
    wl->run_window(opt.seconds, spans, opt.trace, samples, rss);
  }
  if (rss.mb == 0.0) rss.mb = peak_rss_mb();
  const Counters after = wl->counters();
  const Counters d = after - before;

  std::uint64_t failed = 0;
  std::vector<double> host_ms;
  for (const Sample& s : samples) {
    const bool ok = s.virtual_ns == ref.virtual_ns && s.payload_ok &&
                    (!ref.finish_hash || s.finish_hash == *ref.finish_hash);
    if (!ok) {
      if (failed == 0) {
        std::cerr << "collective failed: virtual " << s.virtual_ns
                  << " ns (pinned " << ref.virtual_ns << "), payload "
                  << (s.payload_ok ? "ok" : "WRONG") << ", finish hash "
                  << std::hex << s.finish_hash << std::dec << "\n";
      }
      ++failed;
    }
    host_ms.push_back(s.host_ms);
  }
  const std::uint64_t n = samples.size();
  const double colls_per_host_s = median_slice_rate(host_ms);

  std::printf("workload %s  seed %llu  window %.0f s  nproc %u  build %s  "
              "compiler %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, std::thread::hardware_concurrency(),
              ADAPT_PERFBENCH_BUILD_TYPE, __VERSION__);
  std::printf("collectives %llu  failed %llu  failed_frac %.6f  virtual %lld "
              "ns/coll (pinned %lld)\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(failed),
              ratio(failed, n),
              static_cast<long long>(samples.front().virtual_ns),
              static_cast<long long>(ref.virtual_ns));
  if (n >= 100) {
    std::printf("host_ms_per_coll.p90 %.6f ms (n=%llu)\n",
                quantile(host_ms, 0.9), static_cast<unsigned long long>(n));
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"colls_per_host_s", colls_per_host_s, "1/s"},
        {"host_ms_per_coll.p50", median(host_ms), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", rss.mb, "MB"},
    };
  } else {
    const double colls = static_cast<double>(n);
    // Even-indexed collectives ran inside a span, odd ones did not.
    std::vector<double> traced, untraced;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      (i % 2 == 0 ? traced : untraced).push_back(samples[i].host_ms);
    }
    double events_per_coll = static_cast<double>(d.events) / colls;
    if (const double counted = wl->counted_events_per_coll(spans);
        counted > 0) {
      events_per_coll = counted;
    }
    const double recvs_per_rank =
        static_cast<double>(d.recvs) / colls / wl->ranks();

    Metrics m;
    m["sim.events_per_coll"] = events_per_coll;
    m["sim.events_per_host_s"] = events_per_coll * colls_per_host_s;
    m["net.flows_per_coll"] = static_cast<double>(d.flows) / colls;
    m["net.peak_active_flows"] =
        static_cast<double>(wl->peak_active_flows());
    m["mpi.sends_per_coll"] = static_cast<double>(d.sends) / colls;
    m["mpi.unexpected_ratio"] = ratio(d.unexpected, d.recvs);
    // Lookups happen at set-up on the persistent path, so the tune ratios
    // cover the last set-up and the window together.
    m["tune.table_hit_ratio"] =
        ratio(after.table_hits, after.table_hits + after.table_misses);
    m["tune.plan_cache_hit_ratio"] =
        ratio(after.plan_hits, after.plan_hits + after.plan_misses);
    m["support.allocs_per_coll"] = static_cast<double>(d.allocs) / colls;
    m["support.pool_hit_ratio"] =
        ratio(d.pool_hits, d.pool_hits + d.pool_misses);
    m["runtime.engine_ctor_ms"] = engine_ctor_ms;
    m["runtime.rank_state_peak_bytes"] =
        static_cast<double>(wl->rank_state_peak_bytes());
    m["topo.machine_build_ms"] = machine_build_ms;
    m["trace.overhead"] =
        untraced.empty() ? 1.0 : median(traced) / median(untraced);
    {
      auto s = spans.span("probe.sim.event_queue", "sim");
      m["sim.queue_probe_ns_per_event"] = queue_probe_ns_per_event(
          static_cast<std::uint64_t>(std::llround(events_per_coll)));
    }
    {
      auto s = spans.span("probe.net.fabric", "net");
      m["net.fabric_probe_us_per_flow"] =
          fabric_probe_us_per_flow(wl->peak_active_flows());
    }
    {
      auto s = spans.span("probe.mpi.matcher", "mpi");
      m["mpi.matcher_probe_ns_per_match"] = matcher_probe_ns_per_match(
          static_cast<std::uint64_t>(std::llround(recvs_per_rank)),
          m["mpi.unexpected_ratio"]);
    }
    {
      auto s = spans.span("probe.layers", "bench");
      wl->layer_probes(spans, m);
    }
    for (const auto& [name, unit] : kPerLayer) {
      metrics.push_back({name, m.at(name), unit});  // throws if one is missing
    }

    const auto u = [](std::uint64_t v) {
      return static_cast<unsigned long long>(v);
    };
    std::printf("bases: collectives %llu, events %llu, flows %llu, "
                "sends %llu, recvs %llu, unexpected %llu, pool %llu/%llu, "
                "allocs %llu; set-up + window: table %llu/%llu, "
                "plan %llu/%llu\n",
                u(n), u(d.events), u(d.flows), u(d.sends), u(d.recvs),
                u(d.unexpected), u(d.pool_hits), u(d.pool_hits + d.pool_misses),
                u(d.allocs), u(after.table_hits),
                u(after.table_hits + after.table_misses), u(after.plan_hits),
                u(after.plan_hits + after.plan_misses));
    for (const auto& [layer, ms] : spans.self_ms_by_layer()) {
      std::printf("self_ms %-8s %12.3f\n", layer.c_str(), ms);
    }
    if (!opt.spans.empty() && !spans.write_json(opt.spans)) {
      std::cerr << "cannot write span log " << opt.spans << "\n";
      return 1;
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::cout << result_json(failed == 0, n, failed, metrics) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse_cli(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "adapt_perfbench: " << e.what() << "\n";
    return 1;
  }
}
