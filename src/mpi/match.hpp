// Receiver-side message matching: the posted-receive queue and the
// unexpected-message queue.
//
// Matching is by (source, tag) with MPI-style wildcards; among equally
// matching entries the earliest posted/arrived wins (FIFO). The unexpected
// path is what the paper's M > N discussion (§2.2.1) is about: an unexpected
// message costs an extra buffer allocation and copy when it is finally
// matched, so ADAPT posts more receives (M) than each sender keeps in
// flight (N).
//
// Both queues are bucketed by the concrete (source, tag) pair, so the
// common case — a fully specified receive meeting a fully specified
// envelope — is an O(1) bucket-front hit instead of a linear scan across
// every pending entry (the scan is what made deep posted queues, M large in
// the M > N scheme, quadratic). Wildcard receives take a fallback path:
// posted wildcards live on a separate FIFO list that arrivals scan
// linearly, and a wildcard post scans the bucket fronts of the unexpected
// table. Every entry carries a monotone arrival stamp, and a match always
// takes the lowest stamp among the bucket candidate and the wildcard
// candidate — exactly the earliest-wins order of the original single-queue
// scan, which the interleaving unit test pins down. A drained bucket is kept
// as a spare and handed to the next new key (see Table), so each table
// holds at most the peak number of simultaneously live keys and the
// wildcard scan never walks keys that drained long ago.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/mpi/payload.hpp"
#include "src/mpi/request.hpp"
#include "src/support/buffer_pool.hpp"
#include "src/support/units.hpp"

namespace adapt::mpi {

/// A receive that has been posted and not yet matched.
struct PostedRecv {
  RequestPtr request;
  MutView buffer;
  Rank src = kAnyRank;  ///< kAnyRank = wildcard
  Tag tag = kAnyTag;    ///< kAnyTag = wildcard
};

/// In-flight message (eager: data travels with it) or rendezvous
/// ready-to-send notice (grant set: data moves only once a receive matched).
struct Envelope {
  Rank src = kAnyRank;
  Rank dst = kAnyRank;
  Tag tag = kAnyTag;
  Bytes size = 0;
  /// Copy of the sender's bytes (`size` of them, in a pooled block); null
  /// for synthetic payloads and RTS notices.
  support::BufferRef data;
  /// Rendezvous grant: invoked exactly once with the matched receive; the
  /// transport then runs CTS + data transfer and finalises both requests.
  std::function<void(PostedRecv)> grant;

  bool rendezvous() const { return static_cast<bool>(grant); }
};

class Matcher {
 public:
  /// Tries to match a newly posted receive against the unexpected queue.
  /// On a hit the envelope is removed and returned; otherwise the receive is
  /// enqueued on the posted list.
  std::optional<Envelope> post(PostedRecv recv);

  /// Tries to match an arriving envelope against the posted list. On a hit
  /// the posted receive is removed and returned and `env` is left untouched;
  /// only on a miss is `env` moved into the unexpected list (copying it
  /// would re-box the rendezvous grant's std::function on every unexpected
  /// arrival — the per-round allocation the steady-state bench pins at 0).
  std::optional<PostedRecv> arrive(Envelope&& env);

  std::size_t posted_count() const { return posted_count_; }
  std::size_t unexpected_count() const { return unexpected_count_; }
  std::uint64_t total_unexpected() const { return total_unexpected_; }

  /// (src, tag) buckets held by both tables, live and spare alike. Stays at
  /// the peak number of simultaneously live keys per table, however many
  /// distinct keys the rank has matched.
  std::size_t bucket_count() const {
    return posted_.map.size() + unexpected_.map.size();
  }
  /// Drained buckets kept for reuse (a subset of bucket_count()).
  std::size_t spare_buckets() const {
    return posted_.spare_count() + unexpected_.spare_count();
  }

  /// Approximate resident bytes of the matching structures: bucket-table
  /// slots, per-bucket node overhead (spare buckets included), every Fifo's
  /// retained capacity, and the spare queues. Deterministic for a given
  /// rank's matching history (capacities grow by the same doubling sequence
  /// and spares are reused in drain order, whatever the shard count), which
  /// lets the rank-state gauge sum it across ranks and stay byte-comparable
  /// across --shards values.
  std::size_t footprint_bytes() const {
    return sizeof(Matcher) + posted_.footprint_bytes() +
           unexpected_.footprint_bytes() +
           posted_wild_.size() * sizeof(Stamped<PostedRecv>);
  }

 private:
  static bool matches(const PostedRecv& recv, const Envelope& env) {
    return (recv.src == kAnyRank || recv.src == env.src) &&
           (recv.tag == kAnyTag || recv.tag == env.tag);
  }
  /// Envelopes always carry a concrete (src, tag): the bucket key.
  static std::uint64_t key_of(Rank src, Tag tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  template <typename T>
  struct Stamped {
    std::uint64_t stamp;
    T value;
  };

  /// Vector-backed FIFO: pop_front advances a head index and storage resets
  /// (capacity kept) once drained — one allocation per bucket lifetime
  /// instead of a deque's chunk map, and contiguous for the scans.
  template <typename T>
  struct Fifo {
    std::vector<T> items;
    std::uint32_t head = 0;

    bool empty() const { return head == items.size(); }
    T& front() { return items[head]; }
    const T& front() const { return items[head]; }
    void push_back(T v) {
      // A bucket that never fully drains (steady-state traffic keeps an
      // entry in flight across every push) never hits the drained reset, so
      // the consumed prefix would grow `items` without bound. When a push is
      // about to reallocate and at least half the storage is consumed
      // prefix, slide the live suffix down instead: erase() keeps capacity
      // and reclaims >= capacity/2 slots (amortised O(1)), so a warmed-up
      // bucket pushes with no allocation.
      if (items.size() == items.capacity() && head * 2 >= items.size() &&
          head > 0) {
        items.erase(items.begin(),
                    items.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      items.push_back(std::move(v));
    }
    void pop_front() {
      if (++head == items.size()) {
        items.clear();
        head = 0;
      }
    }
  };

  /// A (src, tag) bucket. The flag sits in the Fifo's tail padding, so a
  /// bucket is no larger than its Fifo.
  template <typename T>
  struct Bucket : Fifo<Stamped<T>> {
    /// On the table's spare queue. A bucket enters the queue when it first
    /// drains and leaves it only when the queue reaches it again, so the
    /// queue never holds a key twice and stays bounded by the table size.
    bool queued = false;
  };

  /// Buckets keyed by concrete (src, tag). A drained bucket stays in the
  /// map as a spare: a later receive on the same key (a replayed persistent
  /// round) finds it in place, and a new key takes over the oldest spare's
  /// node — extracted and re-keyed, Fifo capacity and all — before the map
  /// allocates a fresh one. Per-call collectives use fresh tags every call,
  /// so without the takeover every posted receive would cost one node and
  /// one vector that are never freed.
  template <typename T>
  struct Table {
    std::unordered_map<std::uint64_t, Bucket<T>> map;
    /// Keys of drained buckets, oldest drain first. An entry whose bucket
    /// has refilled since is skipped (and dequeued) when reached.
    Fifo<std::uint64_t> spare_keys;

    /// The non-empty bucket for `key`, or null.
    Bucket<T>* find_live(std::uint64_t key) {
      const auto it = map.find(key);
      return it != map.end() && !it->second.empty() ? &it->second : nullptr;
    }
    /// The bucket `key`'s next entry goes into.
    Bucket<T>& slot(std::uint64_t key);
    /// Pops the front of `key`'s `bucket`, queueing the bucket as a spare if
    /// that drained it.
    T pop_front(std::uint64_t key, Bucket<T>& bucket);

    std::size_t spare_count() const {
      std::size_t n = 0;
      for (const auto& [key, bucket] : map) n += bucket.empty() ? 1 : 0;
      return n;
    }
    std::size_t footprint_bytes() const {
      // unordered_map node: key + value + next pointer (libstdc++ layout).
      constexpr std::size_t kNode =
          sizeof(std::uint64_t) + sizeof(Bucket<T>) + sizeof(void*);
      std::size_t total = map.bucket_count() * sizeof(void*) +
                          spare_keys.items.capacity() * sizeof(std::uint64_t);
      for (const auto& [key, bucket] : map) {
        total += kNode + bucket.items.capacity() * sizeof(Stamped<T>);
      }
      return total;
    }
  };

  /// Fully specified receives, bucketed by (src, tag); FIFO within a bucket.
  Table<PostedRecv> posted_;
  /// Receives with a kAnyRank/kAnyTag wildcard, in posting order.
  std::deque<Stamped<PostedRecv>> posted_wild_;
  /// Unexpected envelopes, bucketed by their concrete (src, tag).
  Table<Envelope> unexpected_;

  std::uint64_t next_stamp_ = 0;
  std::size_t posted_count_ = 0;
  std::size_t unexpected_count_ = 0;
  std::uint64_t total_unexpected_ = 0;
};

}  // namespace adapt::mpi
