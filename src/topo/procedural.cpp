#include "src/topo/procedural.hpp"

#include <algorithm>

#include "src/support/error.hpp"

namespace adapt::topo {

namespace {

LinkParams link(TimeNs alpha_ns, double bw_gbs) {
  return LinkParams{alpha_ns, 1.0 / bw_gbs};
}

double max3(double a, double b, double c) {
  return std::max(a, std::max(b, c));
}

}  // namespace

// ---------------------------------------------------------------------------
// Dragonfly

Dragonfly::Dragonfly(int groups, int routers_per_group, int ranks_per_router,
                     LinkParams inject, LinkParams local, LinkParams global)
    : groups_(groups),
      routers_per_group_(routers_per_group),
      ranks_per_router_(ranks_per_router),
      nranks_(groups * routers_per_group * ranks_per_router),
      inject_(inject),
      local_(local),
      global_(global) {
  ADAPT_CHECK(groups_ >= 1 && routers_per_group_ >= 1 &&
              ranks_per_router_ >= 1)
      << "degenerate dragonfly shape";
}

RouteCost Dragonfly::route(Rank src, Rank dst) const {
  if (src == dst) return {};
  const int rs = router_of(src);
  const int rd = router_of(dst);
  // Both endpoints always pay their injection lane.
  RouteCost cost{2 * inject_.alpha, inject_.beta_ns_per_byte};
  if (rs == rd) return cost;
  const int gs = rs / routers_per_group_;
  const int gd = rd / routers_per_group_;
  if (gs == gd) {
    // One local hop between routers of the same group (all-to-all intra
    // group).
    cost.alpha += local_.alpha;
    cost.beta_ns_per_byte =
        std::max(cost.beta_ns_per_byte, local_.beta_ns_per_byte);
    return cost;
  }
  // Minimal inter-group route: local hop to the router owning the global
  // link, the global hop, and a local hop inside the destination group.
  cost.alpha += 2 * local_.alpha + global_.alpha;
  cost.beta_ns_per_byte = max3(cost.beta_ns_per_byte, local_.beta_ns_per_byte,
                               global_.beta_ns_per_byte);
  return cost;
}

TimeNs Dragonfly::min_cross_block_alpha() const {
  return 2 * inject_.alpha + 2 * local_.alpha + global_.alpha;
}

std::string Dragonfly::name() const {
  return "dragonfly(g=" + std::to_string(groups_) +
         ",a=" + std::to_string(routers_per_group_) +
         ",p=" + std::to_string(ranks_per_router_) + ")";
}

// ---------------------------------------------------------------------------
// FatTree

FatTree::FatTree(int k, LinkParams host_edge, LinkParams edge_agg,
                 LinkParams agg_core)
    : k_(k),
      nranks_(k * k * k / 4),
      host_edge_(host_edge),
      edge_agg_(edge_agg),
      agg_core_(agg_core) {
  ADAPT_CHECK(k_ >= 2 && k_ % 2 == 0) << "fat-tree arity must be even";
}

RouteCost FatTree::route(Rank src, Rank dst) const {
  if (src == dst) return {};
  RouteCost cost{2 * host_edge_.alpha, host_edge_.beta_ns_per_byte};
  const int es = edge_of(src);
  const int ed = edge_of(dst);
  if (es == ed) return cost;
  // Up to an aggregation switch and back down.
  cost.alpha += 2 * edge_agg_.alpha;
  cost.beta_ns_per_byte =
      std::max(cost.beta_ns_per_byte, edge_agg_.beta_ns_per_byte);
  if (es / (k_ / 2) == ed / (k_ / 2)) return cost;
  // Different pods: continue up to a core switch and back down.
  cost.alpha += 2 * agg_core_.alpha;
  cost.beta_ns_per_byte =
      std::max(cost.beta_ns_per_byte, agg_core_.beta_ns_per_byte);
  return cost;
}

TimeNs FatTree::min_cross_block_alpha() const {
  return 2 * host_edge_.alpha + 2 * edge_agg_.alpha + 2 * agg_core_.alpha;
}

std::string FatTree::name() const {
  return "fat_tree(k=" + std::to_string(k_) + ")";
}

// ---------------------------------------------------------------------------
// MachineTopology

MachineTopology::MachineTopology(const Machine& machine) : machine_(&machine) {
  int max_node = 0;
  for (Rank r = 0; r < machine.nranks(); ++r) {
    max_node = std::max(max_node, machine.node_of(r));
  }
  blocks_ = max_node + 1;
}

RouteCost MachineTopology::route(Rank src, Rank dst) const {
  const Level level = machine_->level_between(src, dst);
  if (level == Level::kSelf) return {};
  const LinkParams& lane = machine_->lane(level);
  return {lane.alpha, lane.beta_ns_per_byte};
}

std::string MachineTopology::name() const {
  return "machine(" + machine_->spec().name + ")";
}

// ---------------------------------------------------------------------------
// Presets

namespace presets {

std::unique_ptr<Dragonfly> dragonfly(int min_ranks) {
  ADAPT_CHECK(min_ranks >= 1);
  // Balanced dragonfly: a routers/group, p = a ranks/router, g = a + 1
  // groups (one global link per router) -> a^2 * (a + 1) ranks.
  int a = 1;
  while (a * a * (a + 1) < min_ranks) ++a;
  return std::make_unique<Dragonfly>(a + 1, a, a,
                                     /*inject=*/link(500, 16.0),
                                     /*local=*/link(300, 14.0),
                                     /*global=*/link(1100, 12.0));
}

std::unique_ptr<FatTree> fat_tree(int min_ranks) {
  ADAPT_CHECK(min_ranks >= 1);
  int k = 2;
  while (k * k * k / 4 < min_ranks) k += 2;
  return std::make_unique<FatTree>(k,
                                   /*host_edge=*/link(600, 12.5),
                                   /*edge_agg=*/link(450, 12.5),
                                   /*agg_core=*/link(450, 12.5));
}

}  // namespace presets

// ---------------------------------------------------------------------------
// ShardMap

ShardMap make_shard_map(const ProcTopology& topo, int shards) {
  const int nranks = topo.nranks();
  ADAPT_CHECK(shards >= 1);
  ShardMap map;
  map.shards = std::min({shards, topo.blocks(), nranks});
  map.shard_of.assign(static_cast<std::size_t>(nranks), 0);
  map.ranks.resize(static_cast<std::size_t>(map.shards));

  // Ranks per block, in block order. Blocks are contiguous for every
  // generator above, but the mapper only relies on block_of().
  std::vector<std::vector<Rank>> by_block(
      static_cast<std::size_t>(topo.blocks()));
  for (Rank r = 0; r < nranks; ++r) {
    const int b = topo.block_of(r);
    ADAPT_CHECK(b >= 0 && b < topo.blocks());
    by_block[static_cast<std::size_t>(b)].push_back(r);
  }

  // Interleave rather than hand out contiguous ranges: pipelined chain and
  // binomial fronts advance through consecutive blocks, and a contiguous
  // deal would put the whole active front on one shard and serialise the
  // rounds. min_element picks the lowest index among equals.
  for (const auto& block : by_block) {
    if (block.empty()) continue;
    const auto least = std::min_element(
        map.ranks.begin(), map.ranks.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    const int shard = static_cast<int>(least - map.ranks.begin());
    for (Rank r : block) {
      map.shard_of[static_cast<std::size_t>(r)] = shard;
      least->push_back(r);
    }
  }
  for (auto& members : map.ranks) std::sort(members.begin(), members.end());
  return map;
}

}  // namespace adapt::topo
