#include "distributed/parallel_transport.hpp"

#include <stdexcept>

#include "distributed/transport.hpp"
#include "parallel/task_group.hpp"

namespace cgp::distributed {

static_assert(Transport<parallel_transport>);

parallel_transport::parallel_transport(const net_options& opts)
    : net_base(opts, opts.resolved_workers()),
      pool_(parallel::pool_options{.workers = opts.resolved_workers()}) {
  if (opts.mode == timing::asynchronous)
    throw std::invalid_argument(
        "parallel_transport implements only timing::synchronous "
        "supersteps; use sim_transport for timing::asynchronous runs");
}

void parallel_transport::for_each_shard(
    const std::function<void(std::size_t)>& fn) {
  parallel::task_group<parallel::work_stealing_pool> group(pool_);
  for (std::size_t s = 0; s < shard_count(); ++s)
    group.run([&fn, s] { fn(s); });
  group.wait();
}

}  // namespace cgp::distributed
