#include "src/mpi/op.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "src/support/error.hpp"

namespace adapt::mpi {

const char* op_name(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return "sum";
    case ReduceOp::kProd: return "prod";
    case ReduceOp::kMax: return "max";
    case ReduceOp::kMin: return "min";
    case ReduceOp::kBand: return "band";
    case ReduceOp::kBor: return "bor";
  }
  return "?";
}

namespace {

// Element access through memcpy: reduce buffers are byte views with no
// alignment promise, and a fixed-size memcpy compiles to one (unaligned)
// load or store.
template <typename T>
T load(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
template <typename T>
void store(std::byte* p, T v) {
  std::memcpy(p, &v, sizeof v);
}

/// dst[i] = f(dst[i], src[i]) for i in [from, n), in ascending order.
template <typename T, typename F>
void fold_scalar(std::byte* dst, const std::byte* src, std::size_t from,
                 std::size_t n, F f) {
  for (std::size_t i = from; i < n; ++i) {
    store<T>(dst + i * sizeof(T),
             f(load<T>(dst + i * sizeof(T)), load<T>(src + i * sizeof(T))));
  }
}

/// dst[i] = f(dst[i], src[i]) over disjoint buffers. The inner loop over a
/// 64-byte block has a constant trip count and restrict-qualified pointers,
/// which is what GCC's -O2 ("very cheap") vectorizer needs: no runtime alias
/// check, no epilogue of unknown length. Each element is still combined on
/// its own, in its own lane, so the results are bitwise those of the scalar
/// loop.
template <typename T, typename F>
void fold_disjoint(std::byte* __restrict dst, const std::byte* __restrict src,
                   std::size_t n, F f) {
  constexpr std::size_t kLanes = 64 / sizeof(T);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    std::byte* __restrict d = dst + i * sizeof(T);
    const std::byte* __restrict s = src + i * sizeof(T);
    for (std::size_t j = 0; j < kLanes; ++j) {
      store<T>(d + j * sizeof(T),
               f(load<T>(d + j * sizeof(T)), load<T>(s + j * sizeof(T))));
    }
  }
  fold_scalar<T>(dst, src, i, n, f);
}

template <typename T, typename F>
void fold_with(std::byte* dst, const std::byte* src, std::size_t n, F f) {
  const auto d = reinterpret_cast<std::uintptr_t>(dst);
  const auto s = reinterpret_cast<std::uintptr_t>(src);
  const std::size_t len = n * sizeof(T);
  if (d < s + len && s < d + len) {
    // Overlapping views (dst == src included): the plain ascending loop,
    // whose element order is what defines the result.
    fold_scalar<T>(dst, src, 0, n, f);
    return;
  }
  fold_disjoint<T>(dst, src, n, f);
}

/// Integer sum and product wrap modulo 2^bits; doing them unsigned keeps
/// signed overflow defined without changing a single result bit.
template <typename T>
using Arith = typename std::conditional_t<std::is_integral_v<T>,
                                          std::make_unsigned<T>,
                                          std::type_identity<T>>::type;

template <typename T>
void fold(ReduceOp op, std::byte* dst, const std::byte* src, Bytes bytes) {
  const std::size_t n = static_cast<std::size_t>(bytes) / sizeof(T);
  using A = Arith<T>;
  switch (op) {
    case ReduceOp::kSum:
      fold_with<T>(dst, src, n, [](T a, T b) {
        return static_cast<T>(static_cast<A>(a) + static_cast<A>(b));
      });
      return;
    case ReduceOp::kProd:
      fold_with<T>(dst, src, n, [](T a, T b) {
        return static_cast<T>(static_cast<A>(a) * static_cast<A>(b));
      });
      return;
    case ReduceOp::kMax:
      fold_with<T>(dst, src, n, [](T a, T b) { return std::max(a, b); });
      return;
    case ReduceOp::kMin:
      fold_with<T>(dst, src, n, [](T a, T b) { return std::min(a, b); });
      return;
    case ReduceOp::kBand:
      if constexpr (std::is_integral_v<T>) {
        fold_with<T>(dst, src, n,
                     [](T a, T b) { return static_cast<T>(a & b); });
        return;
      }
      break;
    case ReduceOp::kBor:
      if constexpr (std::is_integral_v<T>) {
        fold_with<T>(dst, src, n,
                     [](T a, T b) { return static_cast<T>(a | b); });
        return;
      }
      break;
  }
  throw Error(std::string("op ") + op_name(op) +
              " is not defined for floating-point datatypes");
}

}  // namespace

void apply(ReduceOp op, Datatype dtype, std::byte* dst, const std::byte* src,
           Bytes bytes) {
  ADAPT_CHECK(bytes >= 0);
  ADAPT_CHECK(bytes % size_of(dtype) == 0)
      << "bytes=" << bytes << " not a multiple of " << datatype_name(dtype);
  switch (dtype) {
    case Datatype::kUint8: fold<std::uint8_t>(op, dst, src, bytes); return;
    case Datatype::kInt32: fold<std::int32_t>(op, dst, src, bytes); return;
    case Datatype::kInt64: fold<std::int64_t>(op, dst, src, bytes); return;
    case Datatype::kFloat: fold<float>(op, dst, src, bytes); return;
    case Datatype::kDouble: fold<double>(op, dst, src, bytes); return;
  }
  ADAPT_UNREACHABLE("bad datatype");
}

}  // namespace adapt::mpi
