// Predefined reduction operations with real arithmetic.
//
// `apply` folds `src` into `dst` element-wise (dst = dst OP src) — the same
// in-place accumulate MPI implementations use on intermediate tree nodes.
// All predefined ops are associative and commutative, which is what lets
// ADAPT's reduce combine child contributions in arrival order (§2.2.3).
#pragma once

#include <cstddef>

#include "src/mpi/datatype.hpp"
#include "src/support/units.hpp"

namespace adapt::mpi {

enum class ReduceOp {
  kSum,
  kProd,
  kMax,
  kMin,
  kBand,  ///< bitwise and (integer types only)
  kBor,   ///< bitwise or (integer types only)
};

const char* op_name(ReduceOp op);

/// dst[i] = dst[i] OP src[i] over `bytes` worth of `dtype` elements.
/// `bytes` must be a multiple of size_of(dtype); bitwise ops reject floating
/// point dtypes. Integer sum and product wrap. The views need no alignment
/// and may overlap; overlapping views fold in ascending element order.
void apply(ReduceOp op, Datatype dtype, std::byte* dst, const std::byte* src,
           Bytes bytes);

}  // namespace adapt::mpi
