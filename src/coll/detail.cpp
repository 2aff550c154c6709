#include "src/coll/detail.hpp"

#include "src/support/error.hpp"

namespace adapt::coll::detail {

Edges resolve(const runtime::Context& ctx, const mpi::Comm& comm,
              const Tree& tree) {
  ADAPT_CHECK(tree.size() == comm.size())
      << "tree over " << tree.size() << " ranks, comm of " << comm.size();
  Edges e;
  e.me_local = comm.local_of(ctx.rank());
  ADAPT_CHECK(e.me_local != kAnyRank)
      << "rank " << ctx.rank() << " is not a member of the communicator";
  e.is_root = e.me_local == tree.root;
  const Rank p = tree.up(e.me_local);
  e.parent_global = p == -1 ? -1 : comm.global(p);
  e.kids_global.reserve(tree.kids(e.me_local).size());
  for (Rank c : tree.kids(e.me_local)) e.kids_global.push_back(comm.global(c));
  return e;
}

TimeNs reduce_cost(const runtime::Context& ctx, const CollOpts& opts,
                   Bytes len) {
  const double gamma = ctx.machine().spec().reduce_gamma * opts.gamma_scale;
  return static_cast<TimeNs>(gamma * static_cast<double>(len));
}

void apply_if_real(mpi::MutView dst, mpi::ConstView src, mpi::ReduceOp op,
                   mpi::Datatype dtype, Bytes len) {
  if (len == 0 || dst.synthetic() || src.synthetic()) return;
  mpi::apply(op, dtype, dst.data, src.data, len);
}

CollSpan::CollSpan(runtime::Context& ctx, const char* op, const char* style,
                   Bytes bytes)
    : rec_(ctx.recorder()) {
  if (!rec_) return;
  pid_ = obs::rank_pid(ctx.rank());
  name_ = op;
  if (style) {
    name_ += '/';
    name_ += style;
  }
  t0_ = rec_->now();
  bytes_ = bytes;
}

CollSpan::~CollSpan() {
  if (!rec_) return;
  rec_->span(pid_, obs::kTidMain, obs::Cat::kColl, std::move(name_), t0_,
             rec_->now(), bytes_);
}

}  // namespace adapt::coll::detail
