// Procedural topologies: O(1) route-cost lookup with no per-pair tables.
//
// A million-rank simulation cannot afford an N×N route matrix (10^12 entries)
// or even per-rank adjacency lists. These generators describe dragonfly and
// fat-tree fabrics by their construction parameters alone — a rank's position
// (group/router, pod/edge) is arithmetic on its index, and the Hockney cost
// of any (src, dst) pair is computed from the class of the path between those
// positions. Total state is a handful of integers regardless of rank count.
//
// The same interface doubles as the sharded engine's locality oracle: ranks
// are grouped into "blocks" (dragonfly group, fat-tree pod, machine node)
// such that traffic inside a block is cheap and every cross-block route pays
// at least min_cross_block_alpha() of wire latency. The shard mapper assigns
// whole blocks to shards, and the conservative window lookahead is exactly
// that minimum cross-block alpha: an event executing at time t can only make
// another shard's rank runnable at t + L or later.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/topo/hardware.hpp"
#include "src/support/units.hpp"

namespace adapt::topo {

/// Hockney cost of the full route between two ranks: alpha is the sum of the
/// per-hop latencies, beta the bottleneck (maximum) inverse bandwidth.
struct RouteCost {
  TimeNs alpha = 0;
  double beta_ns_per_byte = 0.0;

  TimeNs time(Bytes bytes) const {
    return alpha + static_cast<TimeNs>(beta_ns_per_byte *
                                       static_cast<double>(bytes));
  }
};

/// A topology defined by formula rather than tables. All queries are O(1).
class ProcTopology {
 public:
  virtual ~ProcTopology() = default;

  virtual int nranks() const = 0;
  /// Route cost between two ranks (src == dst yields {0, 0}).
  virtual RouteCost route(Rank src, Rank dst) const = 0;
  /// Locality block of a rank (dragonfly group / fat-tree pod / node).
  virtual int block_of(Rank r) const = 0;
  virtual int blocks() const = 0;
  /// Smallest route alpha between ranks in different blocks — the sharded
  /// engine's conservative lookahead bound.
  virtual TimeNs min_cross_block_alpha() const = 0;
  virtual std::string name() const = 0;
};

/// Dragonfly with `groups` all-to-all connected groups of `routers_per_group`
/// routers, `ranks_per_router` ranks injecting into each router. Minimal
/// routing: inject → (local hop) → (global hop → local hop) → eject.
class Dragonfly final : public ProcTopology {
 public:
  Dragonfly(int groups, int routers_per_group, int ranks_per_router,
            LinkParams inject, LinkParams local, LinkParams global);

  int nranks() const override { return nranks_; }
  RouteCost route(Rank src, Rank dst) const override;
  int block_of(Rank r) const override { return group_of(r); }
  int blocks() const override { return groups_; }
  TimeNs min_cross_block_alpha() const override;
  std::string name() const override;

  int router_of(Rank r) const { return r / ranks_per_router_; }
  int group_of(Rank r) const { return router_of(r) / routers_per_group_; }

 private:
  int groups_;
  int routers_per_group_;
  int ranks_per_router_;
  int nranks_;
  LinkParams inject_;
  LinkParams local_;
  LinkParams global_;
};

/// k-ary fat tree: k pods of k/2 edge and k/2 aggregation switches, k/2
/// hosts per edge switch — k^3/4 ranks total. Routes climb host→edge→agg→
/// core as far as needed and descend symmetrically.
class FatTree final : public ProcTopology {
 public:
  FatTree(int k, LinkParams host_edge, LinkParams edge_agg,
          LinkParams agg_core);

  int nranks() const override { return nranks_; }
  RouteCost route(Rank src, Rank dst) const override;
  int block_of(Rank r) const override { return pod_of(r); }
  int blocks() const override { return k_; }
  TimeNs min_cross_block_alpha() const override;
  std::string name() const override;

  int edge_of(Rank r) const { return r / (k_ / 2); }
  int pod_of(Rank r) const { return edge_of(r) / (k_ / 2); }

 private:
  int k_;
  int nranks_;
  LinkParams host_edge_;
  LinkParams edge_agg_;
  LinkParams agg_core_;
};

/// Adapter presenting a Machine as a ProcTopology: blocks are nodes, routes
/// are the machine's level lanes. Lets the shard mapper treat preset
/// machines and procedural fabrics uniformly.
class MachineTopology final : public ProcTopology {
 public:
  explicit MachineTopology(const Machine& machine);

  int nranks() const override { return machine_->nranks(); }
  RouteCost route(Rank src, Rank dst) const override;
  int block_of(Rank r) const override { return machine_->node_of(r); }
  int blocks() const override { return blocks_; }
  TimeNs min_cross_block_alpha() const override {
    return machine_->spec().inter_node.alpha;
  }
  std::string name() const override;

 private:
  const Machine* machine_;
  int blocks_;
};

namespace presets {

/// Dragonfly with Aries-flavoured link parameters; picks the smallest
/// balanced (g = a + 1 groups, p = a ranks/router) instance holding at least
/// `min_ranks` ranks.
std::unique_ptr<Dragonfly> dragonfly(int min_ranks);
/// k-ary fat tree with InfiniBand-flavoured parameters; smallest even k with
/// k^3/4 >= min_ranks.
std::unique_ptr<FatTree> fat_tree(int min_ranks);

}  // namespace presets

/// Assignment of ranks to shards along block boundaries: blocks are dealt in
/// index order, each to the currently least-populated shard (ties to the
/// lowest index), so equal blocks interleave as b mod shards and populations
/// stay within one block of each other. A pure function of the block sizes.
/// Shard count is clamped to the block count, so no route interior to a
/// block ever crosses shards and min_cross_block_alpha() is a valid
/// lookahead for every cross-shard message.
struct ShardMap {
  int shards = 1;
  std::vector<int> shard_of;              ///< rank -> shard
  std::vector<std::vector<Rank>> ranks;   ///< shard -> member ranks, ascending
};

ShardMap make_shard_map(const ProcTopology& topo, int shards);

}  // namespace adapt::topo
