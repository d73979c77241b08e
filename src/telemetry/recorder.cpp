#include "telemetry/recorder.hpp"

#include "telemetry/trace.hpp"

namespace cgp::telemetry::live {

const char* to_string(flight_entry::kind k) noexcept {
  switch (k) {
    case flight_entry::kind::span:
      return "span";
    case flight_entry::kind::counter:
      return "counter";
    case flight_entry::kind::verdict:
      return "verdict";
    case flight_entry::kind::marker:
      return "marker";
  }
  return "?";
}

flight_recorder::flight_recorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

flight_recorder& flight_recorder::global() {
  static flight_recorder r;
  return r;
}

std::size_t flight_recorder::capacity() const {
  const std::lock_guard lock(mu_);
  return capacity_;
}

void flight_recorder::note(flight_entry::kind k, std::string_view name,
                           double value, std::string_view detail) {
  if constexpr (!kEnabled) return;
  const std::lock_guard lock(mu_);
  flight_entry* e = nullptr;
  if (ring_.size() < capacity_) {
    e = &ring_.emplace_back();
  } else {
    e = &ring_[head_];
    head_ = (head_ + 1) % capacity_;
    ++overwritten_;
  }
  // Stamp under the lock: insertion order, time order, and sequence order
  // all coincide, which validate_flight_dump checks.  The strings are
  // assigned into the slot, reusing an overwritten entry's buffers.
  e->t_ms = steady_now_ms();
  e->seq = ++recorded_;
  e->k = k;
  e->name.assign(name);
  e->value = value;
  e->detail.assign(detail);
}

std::uint64_t flight_recorder::recorded() const {
  const std::lock_guard lock(mu_);
  return recorded_;
}

std::uint64_t flight_recorder::overwritten() const {
  const std::lock_guard lock(mu_);
  return overwritten_;
}

std::vector<flight_entry> flight_recorder::ordered_entries() const {
  std::vector<flight_entry> out;
  out.reserve(ring_.size());
  // head_ is the oldest slot once the ring has lapped; 0 before that.
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  return out;
}

std::vector<flight_entry> flight_recorder::snapshot() const {
  const std::lock_guard lock(mu_);
  return ordered_entries();
}

std::string flight_recorder::dump_json() const {
  // Copy the entries and the totals under one lock, so a dump taken while
  // writers note still has totals that match its entries; then serialize
  // lock-free: a dump taken from a fault path must not hold the ring lock
  // while building strings.
  std::vector<flight_entry> entries;
  std::uint64_t rec, over;
  std::size_t cap;
  {
    const std::lock_guard lock(mu_);
    entries = ordered_entries();
    rec = recorded_;
    over = overwritten_;
    cap = capacity_;
  }
  json_value doc = json_document("cgp.flight.v1");
  doc.obj["capacity"] = json_number(cap);
  doc.obj["recorded"] = json_number(rec);
  doc.obj["overwritten"] = json_number(over);
  json_value& out = doc.obj["entries"] = json_array();
  for (const flight_entry& e : entries) {
    json_value j = json_object();
    j.obj["t_ms"] = json_number(e.t_ms);
    j.obj["seq"] = json_number(e.seq);
    j.obj["kind"] = json_string(to_string(e.k));
    j.obj["name"] = json_string(e.name);
    j.obj["value"] = json_number(e.value);
    j.obj["detail"] = json_string(e.detail);
    out.arr.push_back(std::move(j));
  }
  return telemetry::dump_json(doc);
}

void flight_recorder::clear() {
  const std::lock_guard lock(mu_);
  ring_.clear();
  head_ = 0;
  recorded_ = 0;
  overwritten_ = 0;
}

flight_validation validate_flight_dump(const json_value& doc) {
  flight_validation r;
  if (!r.schema_field(doc, "cgp.flight.v1")) return r;
  double cap = 0.0, rec = 0.0, over = 0.0;
  bool totals = r.num_field(doc, "capacity", "document", cap);
  totals = r.num_field(doc, "recorded", "document", rec) && totals;
  totals = r.num_field(doc, "overwritten", "document", over) && totals;
  const json_value* entries = r.arr_field(doc, "entries", "document");
  if (entries == nullptr) return r;
  if (totals) {
    const auto n = static_cast<double>(entries->arr.size());
    if (n > cap) r.fail("more entries than capacity");
    if (over > rec) r.fail("overwrote more entries than were ever recorded");
    if (rec - over != n)
      r.fail("recorded - overwritten does not match the entry count");
  }
  double prev_t = -1.0;
  double prev_seq = 0.0;
  for (const json_value& e : entries->arr) {
    const std::string where = "entry " + std::to_string(r.entries++);
    double t = 0.0, sq = 0.0, value = 0.0;
    std::string k, name, detail;
    if (!r.num_field(e, "t_ms", where, t) || !r.num_field(e, "seq", where, sq) ||
        !r.str_field(e, "kind", where, k) ||
        !r.str_field(e, "name", where, name) ||
        !r.num_field(e, "value", where, value) ||
        !r.str_field(e, "detail", where, detail))
      continue;
    if (t < prev_t) r.fail(where + " goes backwards in time");
    prev_t = t;
    // seq must be STRICTLY increasing: equal or reordered stamps mean two
    // writers tore the ring.
    if (sq <= prev_seq) r.fail(where + " has a non-increasing seq");
    prev_seq = sq;
    if (k == "span")
      ++r.spans;
    else if (k == "counter")
      ++r.counters;
    else if (k == "verdict")
      ++r.verdicts;
    else if (k == "marker")
      ++r.markers;
    else
      r.fail(where + " has unknown kind '" + k + "'");
  }
  return r;
}

void raise(const verdict& v) {
  const std::string id = v.source + "." + v.rule;
  registry& reg = registry::global();
  reg.get_counter("telemetry.verdicts").add(1);
  reg.get_counter("telemetry.verdicts." + id).add(1);
  const std::string value = json_number_text(v.value);
  const std::string threshold = json_number_text(v.threshold);
  flight_recorder::global().note(
      flight_entry::kind::verdict, id, v.value,
      v.target + ": " + value + " over " + threshold);
  // A root instant: the checking thread (the sampler, or a post-run
  // caller) has no trace context, and the verdict must reach the trace
  // anyway.
  trace::root_instant(id + ": " + v.target, "telemetry." + v.source,
                      {{"value", value}, {"threshold", threshold}});
}

}  // namespace cgp::telemetry::live
