#include "distributed/inproc_transport.hpp"

#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "distributed/transport.hpp"

namespace cgp::distributed {

static_assert(Transport<inproc_transport>);

inproc_transport::inproc_transport(const net_options& opts)
    : net_base(opts, opts.resolved_workers()) {
  if (opts.mode == timing::asynchronous)
    throw std::invalid_argument(
        "inproc_transport implements only timing::synchronous supersteps; "
        "use sim_transport for timing::asynchronous runs");
}

void inproc_transport::for_each_shard(
    const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(shard_count());
  const auto run = [&fn, &errors](std::size_t s) {
    try {
      fn(s);
    } catch (...) {
      errors[s] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(shard_count() - 1);
    for (std::size_t s = 1; s < shard_count(); ++s)
      threads.emplace_back(run, s);
    run(0);
  }  // joins every thread
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace cgp::distributed
