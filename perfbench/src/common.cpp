#include "common.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "mem/copy_kernel.hpp"

namespace hmr::bench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t ctx_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
}

int Spans::open(const char* name) {
  if (!on_) return -1;
  spans_.push_back({name, now_s(), 0.0, cur_});
  cur_ = static_cast<int>(spans_.size()) - 1;
  return cur_;
}

void Spans::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].t1 = now_s();
  cur_ = spans_[static_cast<std::size_t>(id)].parent;
}

void Spans::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return;
  const double base = spans_.empty() ? 0 : spans_.front().t0;
  os << "{\"spans\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"parent\":%d}",
                  i ? "," : "", i, s.name, (s.t0 - base) * 1e6,
                  (s.t1 - base) * 1e6, s.parent);
    os << buf;
  }
  os << "\n]}\n";
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
} // namespace

JsonLine& JsonLine::num(const std::string& k, double v) {
  kv_.emplace_back(k, fmt_num(v));
  return *this;
}
JsonLine& JsonLine::count(const std::string& k, std::uint64_t v) {
  kv_.emplace_back(k, std::to_string(v));
  return *this;
}
JsonLine& JsonLine::str(const std::string& k, const std::string& v) {
  kv_.emplace_back(k, "\"" + json_escape(v) + "\"");
  return *this;
}
JsonLine& JsonLine::flag(const std::string& k, bool v) {
  kv_.emplace_back(k, v ? "true" : "false");
  return *this;
}
JsonLine& JsonLine::list(const std::string& k, const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += fmt_num(v[i]);
  }
  kv_.emplace_back(k, s + "]");
  return *this;
}
JsonLine& JsonLine::raw(const std::string& k, const std::string& json) {
  kv_.emplace_back(k, json);
  return *this;
}
std::string JsonLine::render() const {
  std::string s = "{";
  for (std::size_t i = 0; i < kv_.size(); ++i) {
    if (i) s += ",";
    s += "\"" + json_escape(kv_[i].first) + "\":" + kv_[i].second;
  }
  return s + "}";
}

void check_thread_budget(const ThreadBudget& b) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (b.total() > nproc) {
    std::fprintf(stderr,
                 "perfbench: thread budget exceeded: %d PE + %d IO + %d "
                 "generator threads > nproc %ld\n",
                 b.pes, b.io, b.gen, nproc);
    std::exit(3);
  }
}

std::string host_tag_json(const ThreadBudget& b) {
  JsonLine j;
  j.count("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .str("copy_impl", mem::copy_impl_name(mem::copy_impl()))
      .str("compiler", std::string("gcc ") + __VERSION__)
      .str("build_type", HMR_BENCH_BUILD_TYPE)
      .count("pe_threads", static_cast<std::uint64_t>(b.pes))
      .count("io_threads", static_cast<std::uint64_t>(b.io))
      .count("gen_threads", static_cast<std::uint64_t>(b.gen));
  return j.render();
}

std::uint64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

std::string render_trial(const Options& o, const Trial& t) {
  JsonLine layers;
  for (const auto& [k, v] : t.layers) layers.num(k, v);
  JsonLine sources;
  for (const auto& [k, v] : t.layer_source) sources.str(k, v);
  JsonLine exact;
  for (const auto& [k, v] : t.exact) exact.count(k, v);
  JsonLine j;
  j.str("workload", o.workload)
      .count("seed", o.seed)
      .flag("trace", o.trace)
      .flag("correct", t.correct)
      .str("message", t.message)
      .raw("host", host_tag_json(t.threads))
      .num("setup_s", t.setup_s)
      .num("wall_s", t.wall_s)
      .num("cpu_s", t.cpu_s)
      .count("tasks", t.tasks)
      .count("attempted", t.attempted)
      .count("failed", t.failed)
      .count("fetches", t.fetches)
      .count("evicts", t.evicts)
      .count("fetch_bytes", t.fetch_bytes)
      .count("evict_bytes", t.evict_bytes)
      .count("peak_rss_kb", peak_rss_kb())
      .list("iter_s", t.iter_s)
      .raw("exact", exact.render())
      .raw("layers", layers.render())
      .raw("layer_source", sources.render());
  return j.render();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

} // namespace hmr::bench
