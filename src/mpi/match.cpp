#include "src/mpi/match.hpp"

#include <limits>
#include <utility>

namespace adapt::mpi {

namespace {
constexpr std::uint64_t kNoStamp = std::numeric_limits<std::uint64_t>::max();
}  // namespace

template <typename T>
Matcher::Bucket<T>& Matcher::Table<T>::slot(std::uint64_t key) {
  const auto it = map.find(key);
  if (it != map.end()) return it->second;
  // A new key: take over the oldest bucket that is still drained. Keys are
  // taken in drain order, never in hash-table iteration order, so the
  // reused capacities (and footprint_bytes()) depend only on the matching
  // history.
  while (!spare_keys.empty()) {
    const std::uint64_t old = spare_keys.front();
    spare_keys.pop_front();
    const auto victim = map.find(old);
    victim->second.queued = false;
    if (!victim->second.empty()) continue;  // refilled since it drained
    auto node = map.extract(victim);
    node.key() = key;
    return map.insert(std::move(node)).position->second;
  }
  return map.try_emplace(key).first->second;
}

template <typename T>
T Matcher::Table<T>::pop_front(std::uint64_t key, Bucket<T>& bucket) {
  T value = std::move(bucket.front().value);
  bucket.pop_front();
  if (bucket.empty() && !bucket.queued) {
    bucket.queued = true;
    spare_keys.push_back(key);
  }
  return value;
}

std::optional<Envelope> Matcher::post(PostedRecv recv) {
  // Find the earliest-arrived matching envelope. A concrete receive can only
  // match its own (src, tag) bucket; a wildcard receive must consider the
  // front (earliest) of every bucket whose key it matches.
  Bucket<Envelope>* hit = nullptr;
  std::uint64_t hit_key = 0;
  std::uint64_t best = kNoStamp;
  if (recv.src != kAnyRank && recv.tag != kAnyTag) {
    hit_key = key_of(recv.src, recv.tag);
    hit = unexpected_.find_live(hit_key);
  } else {
    for (auto& [key, bucket] : unexpected_.map) {
      if (bucket.empty()) continue;
      const Stamped<Envelope>& front = bucket.front();
      if (!matches(recv, front.value)) continue;
      if (front.stamp < best) {
        best = front.stamp;
        hit = &bucket;
        hit_key = key;
      }
    }
  }
  if (hit != nullptr) {
    --unexpected_count_;
    return unexpected_.pop_front(hit_key, *hit);
  }
  const std::uint64_t stamp = next_stamp_++;
  if (recv.src != kAnyRank && recv.tag != kAnyTag) {
    posted_.slot(key_of(recv.src, recv.tag))
        .push_back(Stamped<PostedRecv>{stamp, std::move(recv)});
  } else {
    posted_wild_.push_back(Stamped<PostedRecv>{stamp, std::move(recv)});
  }
  ++posted_count_;
  return std::nullopt;
}

std::optional<PostedRecv> Matcher::arrive(Envelope&& env) {
  // Two candidates can match: the front of the exact (src, tag) bucket and
  // the earliest matching wildcard. Earliest posted wins overall, so compare
  // stamps — this reproduces the original single-queue FIFO scan exactly.
  const std::uint64_t key = key_of(env.src, env.tag);
  Bucket<PostedRecv>* bucket = posted_.find_live(key);
  const std::uint64_t bucket_stamp =
      bucket != nullptr ? bucket->front().stamp : kNoStamp;
  auto wild = posted_wild_.begin();
  for (; wild != posted_wild_.end(); ++wild) {
    if (matches(wild->value, env)) break;
  }
  const std::uint64_t wild_stamp =
      wild != posted_wild_.end() ? wild->stamp : kNoStamp;

  if (bucket_stamp < wild_stamp) {
    --posted_count_;
    return posted_.pop_front(key, *bucket);
  }
  if (wild_stamp != kNoStamp) {
    PostedRecv recv = std::move(wild->value);
    posted_wild_.erase(wild);
    --posted_count_;
    return recv;
  }
  unexpected_.slot(key).push_back(
      Stamped<Envelope>{next_stamp_++, std::move(env)});
  ++unexpected_count_;
  ++total_unexpected_;
  return std::nullopt;
}

}  // namespace adapt::mpi
