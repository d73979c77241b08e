#include "telemetry/scope.hpp"

#include "telemetry/recorder.hpp"

namespace cgp::telemetry {

scope_site::scope_site(const scope_names& names, registry& reg) {
  if constexpr (!kEnabled) return;
  trace_ = names.trace;
  cat_ = names.cat;
  if (!names.metrics.empty()) {
    metrics_ = names.metrics;
    calls_ = &reg.get_counter(metrics_ + ".calls");
    ops_ = &reg.get_counter(metrics_ + ".ops");
    duration_us_ = &reg.get_histogram(metrics_ + ".duration_us");
  }
  if (!names.frame.empty()) frame_ = profile::intern(names.frame);
}

void scope::open(std::uint64_t now_ns) {
  open_ = true;
  t0_ = now_ns;
  if (!site_->trace_.empty() && trace::current_context().active())
    span_ = trace::detail::begin_span(site_->trace_, site_->cat_, now_ns);
  profile::detail::probe_enter(frame_, site_->frame_, now_ns);
  if (frame_.recording()) frame_.traced = trace::current_context().active();
}

void scope::close(std::uint64_t now_ns) {
  if (!open_) return;
  open_ = false;
  profile::detail::probe_exit(frame_, now_ns);
  if (span_.ctx.active())
    trace::detail::end_span(span_, site_->trace_, site_->cat_, now_ns,
                            std::move(args_));
  if (site_->calls_ == nullptr) return;
  const std::uint64_t us = (now_ns - t0_) / 1000;
  site_->calls_->add();
  site_->duration_us_->record(us);
  if (ops_ != 0) site_->ops_->add(ops_);
  live::flight_recorder::global().note(
      live::flight_entry::kind::span, site_->metrics_, static_cast<double>(us));
}

void scope::arg(std::string key, std::string value) {
  if (span_.ctx.active()) args_.emplace_back(std::move(key), std::move(value));
}

trace::span_context scope::context() const noexcept {
  return span_.ctx.active() ? span_.ctx : trace::current_context();
}

}  // namespace cgp::telemetry
