#include "telemetry/history.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hmr::telemetry {

HistoryBuffer::HistoryBuffer(MetricsRegistry& reg, std::size_t capacity)
    : reg_(reg), cap_(capacity) {
  HMR_CHECK(cap_ > 0);
}

void HistoryBuffer::set_clock(std::function<double()> clock) {
  std::lock_guard lk(mu_);
  clock_ = std::move(clock);
}

void HistoryBuffer::sample() {
  Sample s;
  s.snap = reg_.snapshot();
  {
    std::lock_guard lk(mu_);
    s.time = clock_ ? clock_() : s.snap.time;
    samples_.push_back(std::move(s));
    if (samples_.size() > cap_) samples_.pop_front();
    ++total_;
  }
}

std::size_t HistoryBuffer::size() const {
  std::lock_guard lk(mu_);
  return samples_.size();
}

std::uint64_t HistoryBuffer::total_samples() const {
  std::lock_guard lk(mu_);
  return total_;
}

double HistoryBuffer::rate_between(double t_prev, std::uint64_t v_prev,
                                   double t_cur, std::uint64_t v_cur) {
  const double dt = t_cur - t_prev;
  if (dt <= 0) return 0; // zero-elapsed window: no meaningful rate
  // Counter reset: the new value *is* the delta since the restart.
  const double delta = v_cur >= v_prev
                           ? static_cast<double>(v_cur - v_prev)
                           : static_cast<double>(v_cur);
  return delta / dt;
}

std::vector<HistoryBuffer::Series> HistoryBuffer::series(
    const std::string& metric, double window) const {
  std::lock_guard lk(mu_);
  std::vector<Series> out;
  if (samples_.empty()) return out;

  const double cutoff =
      window > 0 ? samples_.back().time - window : samples_.front().time - 1;

  // Series identities come from the *newest* sample; older samples
  // missing an instrument (registered later) simply contribute no
  // point.
  const MetricsSnapshot& newest = samples_.back().snap;
  struct Key {
    const MetricDesc* desc;
    const char* type;
  };
  std::vector<Key> keys;
  for (const auto& c : newest.counters) {
    if (c.desc.name == metric) keys.push_back({&c.desc, "counter"});
  }
  for (const auto& g : newest.gauges) {
    if (g.desc.name == metric) keys.push_back({&g.desc, "gauge"});
  }
  for (const auto& h : newest.histograms) {
    if (h.desc.name == metric) keys.push_back({&h.desc, "counter"});
  }

  for (const Key& k : keys) {
    Series se;
    se.name = k.desc->name;
    se.labels = k.desc->labels;
    se.type = k.type;
    bool have_prev = false;
    double t_prev = 0;
    std::uint64_t c_prev = 0;
    for (const Sample& s : samples_) {
      Point p;
      p.time = s.time;
      bool found = false;
      std::uint64_t cval = 0;
      if (k.type[0] == 'g') {
        if (const auto* g = s.snap.gauge(se.name, se.labels)) {
          p.value = g->value;
          found = true;
        }
      } else if (const auto* c = s.snap.counter(se.name, se.labels)) {
        cval = c->value;
        p.value = static_cast<double>(cval);
        found = true;
      } else if (const auto* h = s.snap.histogram(se.name, se.labels)) {
        cval = h->count;
        p.value = static_cast<double>(cval);
        found = true;
      }
      if (!found) continue;
      if (k.type[0] != 'g') {
        if (have_prev) p.rate = rate_between(t_prev, c_prev, s.time, cval);
        t_prev = s.time;
        c_prev = cval;
        have_prev = true;
      }
      if (s.time >= cutoff) se.points.push_back(p);
    }
    out.push_back(std::move(se));
  }
  return out;
}

std::vector<std::string> HistoryBuffer::metric_names() const {
  std::lock_guard lk(mu_);
  std::vector<std::string> names;
  if (samples_.empty()) return names;
  const MetricsSnapshot& newest = samples_.back().snap;
  // First-seen order, deduplicated: instruments repeat per label set,
  // and those are not adjacent in the snapshot.
  auto add = [&](const std::string& n) {
    if (std::find(names.begin(), names.end(), n) == names.end()) {
      names.push_back(n);
    }
  };
  for (const auto& c : newest.counters) add(c.desc.name);
  for (const auto& g : newest.gauges) add(g.desc.name);
  for (const auto& h : newest.histograms) add(h.desc.name);
  return names;
}

void HistoryBuffer::write_json(std::ostream& os, const std::string& metric,
                               double window) const {
  if (metric.empty()) {
    const auto names = metric_names();
    std::lock_guard lk(mu_);
    os << "{\"samples\":" << samples_.size()
       << ",\"total_samples\":" << total_ << ",\"capacity\":" << cap_;
    if (!samples_.empty()) {
      os << ",\"oldest_s\":" << samples_.front().time
         << ",\"newest_s\":" << samples_.back().time;
    }
    os << ",\"metrics\":[";
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i > 0) os << ",";
      os << "\"";
      json_escape(os, names[i]);
      os << "\"";
    }
    os << "]}\n";
    return;
  }

  const auto ss = series(metric, window);
  os << "{\"metric\":\"";
  json_escape(os, metric);
  os << "\",\"window_s\":" << window << ",\"series\":[";
  for (std::size_t i = 0; i < ss.size(); ++i) {
    if (i > 0) os << ",";
    const Series& se = ss[i];
    os << "{\"labels\":\"";
    json_escape(os, se.labels);
    os << "\",\"type\":\"" << se.type << "\",\"points\":[";
    for (std::size_t j = 0; j < se.points.size(); ++j) {
      if (j > 0) os << ",";
      const Point& p = se.points[j];
      os << "{\"time\":" << p.time << ",\"value\":" << p.value
         << ",\"rate\":" << p.rate << "}";
    }
    os << "]}";
  }
  os << "]}\n";
}

} // namespace hmr::telemetry
