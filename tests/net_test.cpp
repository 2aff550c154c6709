#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "src/net/fabric.hpp"
#include "src/net/routes.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/error.hpp"
#include "src/topo/presets.hpp"

namespace adapt::net {
namespace {

TEST(Fabric, SingleFlowHockneyExact) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(2.0);  // 2 B/ns
  TimeNs done = -1;
  fabric.transfer(Route{{l}, 2.0, 100}, 2000, [&] { done = sim.now(); });
  sim.run();
  // alpha 100 + 2000 B / 2 B/ns = 1100.
  EXPECT_EQ(done, 1100);
  EXPECT_EQ(fabric.flows_completed(), 1u);
}

TEST(Fabric, ZeroBytesCostAlphaOnly) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(1.0);
  TimeNs done = -1;
  fabric.transfer(Route{{l}, 1.0, 700}, 0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 700);
}

TEST(Fabric, TwoFlowsShareOneLink) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(1.0);
  std::vector<TimeNs> done;
  for (int i = 0; i < 2; ++i) {
    fabric.transfer(Route{{l}, 1.0, 0}, 1000,
                    [&] { done.push_back(sim.now()); });
  }
  sim.run();
  // Fair sharing: both progress at 0.5 B/ns, both finish at 2000.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 2000);
  EXPECT_EQ(done[1], 2000);
}

TEST(Fabric, FlowsOnDifferentLinksDoNotInteract) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId a = fabric.add_link(1.0);
  const LinkId b = fabric.add_link(1.0);
  std::vector<TimeNs> done(2, -1);
  fabric.transfer(Route{{a}, 1.0, 0}, 1000, [&] { done[0] = sim.now(); });
  fabric.transfer(Route{{b}, 1.0, 0}, 1000, [&] { done[1] = sim.now(); });
  sim.run();
  EXPECT_EQ(done[0], 1000);
  EXPECT_EQ(done[1], 1000);
}

TEST(Fabric, PerFlowCapBindsBelowFairShare) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(10.0);  // plenty of capacity
  TimeNs done = -1;
  fabric.transfer(Route{{l}, 2.0, 0}, 2000, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 1000);  // capped at 2 B/ns, not 10
}

TEST(Fabric, LateFlowSlowsEarlyFlow) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(1.0);
  TimeNs done_a = -1, done_b = -1;
  fabric.transfer(Route{{l}, 1.0, 0}, 1000, [&] { done_a = sim.now(); });
  sim.after(500, [&] {
    fabric.transfer(Route{{l}, 1.0, 0}, 1000, [&] { done_b = sim.now(); });
  });
  sim.run();
  // A runs alone for 500 (500 B left), then shares: 500 B at 0.5 = 1000 more.
  EXPECT_EQ(done_a, 1500);
  // B: 500 B at 0.5 while A lives (until 1500 -> 500 B done), then 500 B at 1.
  EXPECT_EQ(done_b, 2000);
}

TEST(Fabric, BottleneckAndCapInteraction) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(3.0);
  // Flow 1 capped at 0.5; flows 2 and 3 uncapped share the rest (1.25 each).
  std::vector<TimeNs> done(3, -1);
  fabric.transfer(Route{{l}, 0.5, 0}, 500, [&] { done[0] = sim.now(); });
  fabric.transfer(Route{{l}, 5.0, 0}, 1250, [&] { done[1] = sim.now(); });
  fabric.transfer(Route{{l}, 5.0, 0}, 1250, [&] { done[2] = sim.now(); });
  sim.run();
  EXPECT_EQ(done[0], 1000);
  EXPECT_EQ(done[1], 1000);
  EXPECT_EQ(done[2], 1000);
}

TEST(Fabric, MultiHopLimitedByTightestLink) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId wide = fabric.add_link(10.0);
  const LinkId narrow = fabric.add_link(1.0);
  TimeNs done = -1;
  fabric.transfer(Route{{wide, narrow}, 10.0, 0}, 1000,
                  [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 1000);
}

TEST(Fabric, UncontendedPolicyIgnoresSharing) {
  sim::Simulator sim;
  Fabric fabric(sim, SharingPolicy::kUncontended);
  const LinkId l = fabric.add_link(1.0);
  std::vector<TimeNs> done;
  for (int i = 0; i < 4; ++i) {
    fabric.transfer(Route{{l}, 1.0, 0}, 1000,
                    [&] { done.push_back(sim.now()); });
  }
  sim.run();
  for (TimeNs t : done) EXPECT_EQ(t, 1000);
}

TEST(Fabric, ManyFlowsConserveCapacity) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(4.0);
  const int kFlows = 16;
  TimeNs last = 0;
  int completed = 0;
  for (int i = 0; i < kFlows; ++i) {
    fabric.transfer(Route{{l}, 10.0, 0}, 1000, [&] {
      ++completed;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(completed, kFlows);
  // 16 kB over a 4 B/ns link: exactly 4000 ns if capacity is conserved.
  EXPECT_EQ(last, 4000);
}

TEST(Fabric, RejectsBadRoutes) {
  sim::Simulator sim;
  Fabric fabric(sim);
  EXPECT_THROW(fabric.transfer(Route{{}, 0.0, 0}, 10, [] {}), adapt::Error);
  EXPECT_THROW(fabric.transfer(Route{{99}, 1.0, 0}, 10, [] {}), adapt::Error);
}

TEST(Fabric, SolverWorkIsBoundedByClassesNotFlows) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId shared = fabric.add_link(8.0);
  const LinkId side = fabric.add_link(3.0);
  // 256 flows in 4 (links, cap) classes, all contending on `shared`.
  const Route shapes[] = {Route{{shared}, 1.0, 0}, Route{{shared}, 2.0, 0},
                          Route{{shared, side}, 1.0, 0},
                          Route{{side, shared}, 4.0, 0}};
  int completed = 0;
  for (int i = 0; i < 256; ++i) {
    Route r = shapes[i % 4];
    r.alpha = 10 * (i / 4);  // staggered activations
    fabric.transfer(r, 20000 + 100 * (i % 7), [&] { ++completed; });
  }
  EXPECT_EQ(fabric.solver_stats().rebalances, 0u);
  sim.run();
  EXPECT_EQ(completed, 256);
  EXPECT_EQ(fabric.peak_active_flows(), 256u);
  const Fabric::SolverStats stats = fabric.solver_stats();
  // One solve per activation and per finish, except the last finish, which
  // leaves an empty component.
  EXPECT_EQ(stats.rebalances, 511u);
  // A per-flow solver would visit every active flow (up to 256) per solve.
  EXPECT_LE(stats.classes_visited, 4 * stats.rebalances);
  EXPECT_EQ(stats.classes_visited, 1780u);
  EXPECT_EQ(stats.flows_rescheduled, 32754u);
  // Each class keeps one queued completion and re-pushes it only when its
  // least ticket moves: ~4 queue pushes per flow where a per-flow push
  // took ~128.
  EXPECT_EQ(stats.completions_armed, 1007u);
}

// ------------------------------------------------ randomized solver anchor ---
//
// Seeded scenarios that stress the max-min solver the way collectives do:
// GPU-style 4-link routes (pcie_up + NIC + pcie_down + nic_bus) next to 1-,
// 2- and 3-link routes, a few distinct caps so many flows share one
// (links, cap) shape, serial_key transmit queues, zero-byte transfers,
// staggered and tied start times, and completions that post follow-up
// transfers. The hashes pin every completion (order and ns) and the
// recorder's link-sample and transfer streams, so any change to the
// solver's arithmetic or to the order it schedules events fails here.

/// splitmix64: portable, unlike the std distributions, whose output is
/// implementation-defined.
struct AnchorRng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }
};

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
};

struct AnchorHashes {
  std::uint64_t completions;
  std::uint64_t recorder;
  int transfers;
};

AnchorHashes run_solver_anchor(std::uint64_t seed, int initial_transfers) {
  sim::Simulator sim;
  Fabric fabric(sim);
  obs::Recorder rec;
  fabric.set_recorder(&rec);
  AnchorRng rng{seed};

  constexpr int kNodes = 4;
  constexpr int kGpus = 2;
  const double link_caps[] = {3.0, 6.25, 10.0, 25.0};
  auto link = [&] { return fabric.add_link(link_caps[rng.below(4)]); };
  struct Node {
    LinkId nic_tx, nic_rx, nic_bus, shm;
    LinkId pcie_up[kGpus], pcie_down[kGpus];
  };
  std::vector<Node> nodes(kNodes);
  for (Node& n : nodes) {
    n.nic_tx = link();
    n.nic_rx = link();
    n.nic_bus = link();
    n.shm = link();
    for (int g = 0; g < kGpus; ++g) {
      n.pcie_up[g] = link();
      n.pcie_down[g] = link();
    }
  }

  const double flow_caps[] = {1.5, 3.0, 8.0};
  const Bytes sizes[] = {0, 777, 4096, 65536, 262144, 1 << 20};
  const TimeNs alphas[] = {0, 250, 1400};
  auto random_route = [&] {
    Route r;
    const int a = rng.below(kNodes);
    int b = rng.below(kNodes - 1);
    if (b >= a) ++b;
    const Node& na = nodes[static_cast<std::size_t>(a)];
    const Node& nb = nodes[static_cast<std::size_t>(b)];
    switch (rng.below(4)) {
      case 0:  // on-node copy
        r.links = {na.shm};
        break;
      case 1:  // host-to-host across the NICs
        r.links = {na.nic_tx, nb.nic_rx};
        break;
      case 2:  // device send into a remote host buffer
        r.links = {na.pcie_up[rng.below(kGpus)], na.nic_tx, nb.nic_rx};
        break;
      default:  // device to remote device, staged through the NIC bus
        r.links = {na.pcie_up[rng.below(kGpus)], na.nic_tx,
                   nb.pcie_down[rng.below(kGpus)], nb.nic_bus};
        break;
    }
    r.per_flow_cap = flow_caps[rng.below(3)];
    r.alpha = alphas[rng.below(3)];
    if (rng.below(4) == 0) r.serial_key = a * kNodes + b;
    return r;
  };

  Fnv1a done;
  int posted = 0;
  int completed = 0;
  int follow_ups_left = initial_transfers / 2;
  std::function<void(Route, Bytes)> post = [&](Route r, Bytes bytes) {
    const int id = posted++;
    r.trace = rec.transfer_begin(0, 1, bytes, 0, sim.now());
    fabric.transfer(r, bytes, [&, id, r, bytes] {
      ++completed;
      done.add(static_cast<std::uint64_t>(id));
      done.add_signed(sim.now());
      if (follow_ups_left > 0 && rng.below(3) == 0) {
        --follow_ups_left;
        post(r, bytes / 2);
      }
    });
  };
  for (int i = 0; i < initial_transfers; ++i) {
    const TimeNs start = 250 * rng.below(200);  // ties on a 250 ns grid
    Route r = random_route();
    const Bytes bytes = sizes[rng.below(6)];
    sim.at(start, [&post, r, bytes] { post(r, bytes); });
  }
  sim.run();
  EXPECT_EQ(completed, posted);
  EXPECT_EQ(fabric.active_flows(), 0);

  Fnv1a recorded;
  for (const obs::LinkSampleRec& s : rec.link_samples()) {
    recorded.add_signed(s.link);
    recorded.add_signed(s.t);
    recorded.add_signed(s.flows);
  }
  for (const obs::TransferRec& t : rec.transfers()) {
    recorded.add_signed(t.t_active);
    recorded.add_signed(t.t_end);
    recorded.add_signed(t.ideal);
  }
  return AnchorHashes{done.h, recorded.h, posted};
}

TEST(FabricAnchor, SeededScenariosKeepCompletionsAndSamples) {
  struct Expect {
    std::uint64_t seed;
    std::uint64_t completions;
    std::uint64_t recorder;
    int transfers;
  };
  const Expect expected[] = {
      {1, 0xa83a1a40fcfb7c66ull, 0x7d1adaad6f87be26ull, 450},
      {2, 0xb3a9bbaddebc9e52ull, 0x5cc512243a942f33ull, 450},
      {3, 0x34a9fdfeb4ed9a9dull, 0x348a17833ac049f6ull, 436},
      {4, 0xf6dbc43d813429a7ull, 0xa2924ab19898895dull, 450},
  };
  for (const Expect& e : expected) {
    const AnchorHashes got = run_solver_anchor(e.seed, 300);
    EXPECT_EQ(got.completions, e.completions) << "seed " << e.seed;
    EXPECT_EQ(got.recorder, e.recorder) << "seed " << e.seed;
    EXPECT_EQ(got.transfers, e.transfers) << "seed " << e.seed;
  }
}

// ------------------------------------------------------------ ClusterNet ---

TEST(ClusterNet, CpuRouteLevels) {
  sim::Simulator sim;
  topo::Machine m(topo::cori(2), 64);
  ClusterNet net(sim, m);
  const Route same_socket = net.route(0, 1);
  EXPECT_EQ(same_socket.links.size(), 1u);
  EXPECT_EQ(same_socket.alpha, m.spec().intra_socket.alpha);
  const Route cross_socket = net.route(0, 16);
  EXPECT_EQ(cross_socket.links, std::vector<LinkId>{net.qpi(0)});
  const Route cross_node = net.route(0, 32);
  EXPECT_EQ(cross_node.links,
            (std::vector<LinkId>{net.nic_tx(0), net.nic_rx(1)}));
  EXPECT_EQ(cross_node.alpha, m.spec().inter_node.alpha);
}

TEST(ClusterNet, RouteToSelfRejected) {
  sim::Simulator sim;
  topo::Machine m(topo::cori(1), 4);
  ClusterNet net(sim, m);
  EXPECT_THROW(net.route(2, 2), adapt::Error);
}

TEST(ClusterNet, InterNodeFlowsContendOnNic) {
  sim::Simulator sim;
  topo::Machine m(topo::cori(3), 96);
  ClusterNet net(sim, m);
  // Two flows out of node 0 to different nodes share nic_tx(0).
  std::vector<TimeNs> done(2, -1);
  const Bytes bytes = 1000000;
  net.transfer(net.route(0, 32), bytes, [&] { done[0] = sim.now(); });
  net.transfer(net.route(1, 64), bytes, [&] { done[1] = sim.now(); });
  sim.run();
  const TimeNs solo = m.spec().inter_node.time(bytes);
  EXPECT_GT(done[0], solo + solo / 2);  // roughly halved bandwidth
  EXPECT_EQ(done[0], done[1]);
}

TEST(ClusterNet, DifferentLanesOverlapPerfectly) {
  sim::Simulator sim;
  topo::Machine m(topo::cori(2), 64);
  ClusterNet net(sim, m);
  // The paper's three-Isend example (§3.2.2): intra-socket, inter-socket and
  // inter-node transfers progress at full speed simultaneously.
  const Bytes bytes = 1000000;
  std::vector<TimeNs> done(3, -1);
  net.transfer(net.route(0, 1), bytes, [&] { done[0] = sim.now(); });
  net.transfer(net.route(0, 16), bytes, [&] { done[1] = sim.now(); });
  net.transfer(net.route(0, 32), bytes, [&] { done[2] = sim.now(); });
  sim.run();
  // Within the ceil-to-nanosecond rounding of flow completion.
  EXPECT_NEAR(done[0], m.spec().intra_socket.time(bytes), 2);
  EXPECT_NEAR(done[1], m.spec().inter_socket.time(bytes), 2);
  EXPECT_NEAR(done[2], m.spec().inter_node.time(bytes), 2);
}

TEST(ClusterNet, GpuPeerDmaVsRootPortBounce) {
  sim::Simulator sim;
  topo::Machine m(topo::psg(1), 4, topo::PlacementPolicy::kByGpu);
  GpuConfig direct{false, true};
  GpuConfig bounce{false, false};
  ClusterNet net_direct(sim, m, SharingPolicy::kFairShare, direct);
  ClusterNet net_bounce(sim, m, SharingPolicy::kFairShare, bounce);
  const Route rd = net_direct.route_mem(0, MemSpace::kDevice, 1,
                                        MemSpace::kDevice);
  EXPECT_EQ(rd.links, std::vector<LinkId>{net_direct.gpu_peer(0)});
  const Route rb = net_bounce.route_mem(0, MemSpace::kDevice, 1,
                                        MemSpace::kDevice);
  EXPECT_EQ(rb.links, (std::vector<LinkId>{net_bounce.pcie_up(0),
                                           net_bounce.pcie_down(0)}));
}

TEST(ClusterNet, GpuInterNodeCrossesNicAndPcie) {
  sim::Simulator sim;
  topo::Machine m(topo::psg(2), 8, topo::PlacementPolicy::kByGpu);
  ClusterNet net(sim, m, SharingPolicy::kFairShare, GpuConfig{true, true});
  const Route r =
      net.route_mem(0, MemSpace::kDevice, 4, MemSpace::kDevice);
  EXPECT_EQ(r.links, (std::vector<LinkId>{net.pcie_up(0), net.nic_tx(0),
                                          net.nic_rx(1), net.pcie_down(2)}));
}

TEST(ClusterNet, NoGpuDirectAddsStagingLatency) {
  sim::Simulator sim;
  topo::Machine m(topo::psg(2), 8, topo::PlacementPolicy::kByGpu);
  ClusterNet with(sim, m, SharingPolicy::kFairShare, GpuConfig{true, false});
  ClusterNet without(sim, m, SharingPolicy::kFairShare,
                     GpuConfig{false, false});
  const Route a = with.route_mem(0, MemSpace::kDevice, 4, MemSpace::kDevice);
  const Route b =
      without.route_mem(0, MemSpace::kDevice, 4, MemSpace::kDevice);
  EXPECT_GT(b.alpha, a.alpha);
}

// ------------------------------------------------------ SHM node channel ---

TEST(ClusterNet, ShmChannelRoutesSameNodePairs) {
  sim::Simulator sim;
  topo::Machine m(topo::han_cluster(2, 4), 8);
  ClusterNet net(sim, m);
  // Every same-node pair rides the per-node SHM link; cross-node pairs still
  // cross the NICs with the fabric's alpha.
  const Route same = net.route(0, 1);
  EXPECT_EQ(same.links, std::vector<LinkId>{net.shm_node(0)});
  EXPECT_EQ(same.alpha, m.spec().shm_node.alpha);
  const Route far = net.route(1, 5);
  EXPECT_EQ(far.links, (std::vector<LinkId>{net.nic_tx(0), net.nic_rx(1)}));
  EXPECT_EQ(far.alpha, m.spec().inter_node.alpha);
}

TEST(ClusterNet, ShmChannelTimingPinsFromAlphaBeta) {
  sim::Simulator sim;
  topo::Machine m(topo::han_cluster(1, 4), 4);
  ClusterNet net(sim, m);
  // A single stream below the node memory system's aggregate capacity moves
  // at exactly the channel's Hockney time.
  const Bytes bytes = 1000000;
  TimeNs done = -1;
  net.transfer(net.route(1, 3), bytes, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, m.spec().shm_node.time(bytes), 2);
}

TEST(ClusterNet, SameNodeTrafficNeverTouchesFabricLinks) {
  sim::Simulator sim;
  topo::Machine m(topo::han_cluster(2, 4), 8);
  ClusterNet net(sim, m);
  obs::Recorder rec;
  net.fabric().set_recorder(&rec);
  // All-pairs traffic within node 0: the per-link byte counters must show
  // every byte on node 0's SHM channel and none on the QPI or NIC lanes —
  // same-node traffic is invisible to the fabric.
  Bytes sent = 0;
  for (Rank a = 0; a < 4; ++a) {
    for (Rank b = 0; b < 4; ++b) {
      if (a == b) continue;
      net.transfer(net.route(a, b), 10000, [] {});
      sent += 10000;
    }
  }
  sim.run();
  EXPECT_EQ(rec.metrics().link_bytes(net.shm_node(0)), sent);
  EXPECT_EQ(rec.metrics().link_bytes(net.shm_node(1)), 0);
  for (int node = 0; node < 2; ++node) {
    EXPECT_EQ(rec.metrics().link_bytes(net.qpi(node)), 0);
    EXPECT_EQ(rec.metrics().link_bytes(net.nic_tx(node)), 0);
    EXPECT_EQ(rec.metrics().link_bytes(net.nic_rx(node)), 0);
  }
}

TEST(ClusterNet, ShmBandwidthContendsAmongOnNodePairs) {
  sim::Simulator sim;
  topo::Machine m(topo::han_cluster(1, 16), 16);
  ClusterNet net(sim, m);
  // Eight disjoint on-node pairs stream at once. Each flow is capped at the
  // single-stream rate 1/beta = 10 B/ns, but the node memory system only
  // supplies shm_node_parallel/beta = 60 B/ns in aggregate, so the fair
  // share is 7.5 B/ns per flow — node memory bandwidth is a real, shared
  // resource, not eight private wires.
  const Bytes bytes = 1 << 20;
  int completed = 0;
  TimeNs last = 0;
  for (Rank p = 0; p < 8; ++p) {
    net.transfer(net.route(2 * p, 2 * p + 1), bytes, [&] {
      ++completed;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(completed, 8);
  const auto& spec = m.spec();
  const double share =
      spec.shm_node_parallel / spec.shm_node.beta_ns_per_byte / 8.0;
  const TimeNs expected =
      spec.shm_node.alpha +
      static_cast<TimeNs>(static_cast<double>(bytes) / share);
  EXPECT_NEAR(last, expected, 3);
  EXPECT_GT(last, spec.shm_node.time(bytes));  // slower than a solo stream
}

TEST(ClusterNet, HostLocalDeviceCopyUsesPcie) {
  sim::Simulator sim;
  topo::Machine m(topo::psg(1), 4, topo::PlacementPolicy::kByGpu);
  ClusterNet net(sim, m);
  const Route r = net.route_mem(2, MemSpace::kHost, 2, MemSpace::kDevice);
  EXPECT_EQ(r.links, std::vector<LinkId>{net.pcie_down(1)});
}

}  // namespace
}  // namespace adapt::net
