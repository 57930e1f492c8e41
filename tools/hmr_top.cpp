// hmr_top: terminal dashboard over a running runtime's StatusServer.
//
// Polls /status (+ /history for sparklines) on the loopback status
// port and renders per-PE queue/liveness bars, tier occupancy with a
// recent-history sparkline, the top-N hottest blocks the profiler is
// tracking, the governor's current decision, and any active watchdog
// alert.  One binary, no dependencies beyond the repo's JSON reader —
// `watch`-style refresh by default, a single frame with --once, and a
// fully offline mode (--from / --history-file) for tests and for
// inspecting saved snapshots.
//
//   hmr_top --port 8791
//   hmr_top --port 8791 --once
//   hmr_top --from status.json --history-file history.json --once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <cerrno>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/argparse.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace {

/// Blocking loopback HTTP/1.1 GET; returns false on any socket or
/// HTTP failure.  Body only (headers stripped).
bool http_get(const std::string& host, int port, const std::string& path,
              std::string& body, std::string& err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    err = "socket: " + std::string(std::strerror(errno));
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    err = "bad host address: " + host;
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    err = "connect: " + std::string(std::strerror(errno));
    return false;
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      err = "send: " + std::string(std::strerror(errno));
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      ::close(fd);
      err = "recv: " + std::string(std::strerror(errno));
      return false;
    }
    if (n == 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t hdr_end = resp.find("\r\n\r\n");
  if (hdr_end == std::string::npos) {
    err = "malformed HTTP response";
    return false;
  }
  // Status line: HTTP/1.1 NNN ...
  const std::size_t sp = resp.find(' ');
  const int status =
      sp != std::string::npos ? std::atoi(resp.c_str() + sp + 1) : 0;
  body = resp.substr(hdr_end + 4);
  if (status != 200) {
    err = "HTTP " + std::to_string(status) + ": " + body;
    return false;
  }
  return true;
}

bool read_file(const std::string& path, std::string& out,
               std::string& err) {
  std::ifstream f(path);
  if (!f) {
    err = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

/// Fixed-width ASCII bar: `[####....]` at `width` fill characters.
std::string bar(double fraction, int width) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const int fill =
      static_cast<int>(std::lround(fraction * static_cast<double>(width)));
  std::string out = "[";
  out.append(static_cast<std::size_t>(fill), '#');
  out.append(static_cast<std::size_t>(width - fill), '.');
  out += "]";
  return out;
}

/// ASCII sparkline over `points`, scaled to the series max (all-zero
/// series renders as spaces).  Pure ASCII so golden tests and dumb
/// terminals agree.
std::string sparkline(const std::vector<double>& points, int width) {
  static const char kLevels[] = " .:-=+*#%@";
  const int nlevels = 9; // indexes 0..9 into kLevels
  if (points.empty()) return std::string(static_cast<std::size_t>(width), ' ');
  double max = 0;
  for (const double v : points) max = std::max(max, v);
  // Tail of the series, one point per column.
  std::string out;
  const std::size_t n = points.size();
  const std::size_t take =
      std::min<std::size_t>(n, static_cast<std::size_t>(width));
  for (std::size_t i = n - take; i < n; ++i) {
    const double f = max > 0 ? points[i] / max : 0;
    const int lvl = static_cast<int>(std::lround(f * nlevels));
    out.push_back(kLevels[std::clamp(lvl, 0, nlevels)]);
  }
  while (out.size() < static_cast<std::size_t>(width)) {
    out.insert(out.begin(), ' ');
  }
  return out;
}

/// Values of the /history series whose labels mention `level_key`
/// (e.g. level="0"); empty when the metric/series is absent.
std::vector<double> series_values(const hmr::json::Value& history,
                                  const std::string& level_key) {
  std::vector<double> out;
  const auto* series = history.find("series");
  if (!series || !series->is_array()) return out;
  for (const auto& s : series->arr) {
    const auto* labels = s.find("labels");
    if (!labels || labels->str.find(level_key) == std::string::npos) {
      continue;
    }
    const auto* pts = s.find("points");
    if (!pts) continue;
    for (const auto& p : pts->arr) {
      if (const auto* v = p.find("value")) out.push_back(v->num_or(0));
    }
  }
  return out;
}

struct Frame {
  hmr::json::Value status;
  hmr::json::Value history; // /history?metric=hmr_tier_used_bytes ({} if n/a)
  bool have_history = false;
  hmr::json::Value cluster; // /cluster/metrics federation ({} if n/a)
  bool have_cluster = false;
};

/// Counter value from a MetricsRegistry JSON object ("counters" array
/// entries {"name","labels","value"}); labels must match exactly.
double counter_value(const hmr::json::Value& metrics, const char* name,
                     const std::string& labels = "") {
  const auto* cs = metrics.find("counters");
  if (!cs || !cs->is_array()) return 0;
  for (const auto& c : cs->arr) {
    const auto* n = c.find("name");
    const auto* l = c.find("labels");
    if (n && n->str == name && (l ? l->str : "") == labels) {
      const auto* v = c.find("value");
      return v ? v->num_or(0) : 0;
    }
  }
  return 0;
}

/// One row of the cluster pane from one node's (or the aggregate's)
/// metrics object.
void cluster_row(const char* label, double weight,
                 const hmr::json::Value& metrics, double busiest_fetch,
                 int width) {
  const double tasks = counter_value(metrics, "hmr_policy_tasks_run_total");
  const double fetch_b =
      counter_value(metrics, "hmr_policy_fetch_bytes_total");
  // Stall split from the attribution counters: everything but compute,
  // as a fraction of attributed wall time.
  static const char* kBuckets[] = {"compute", "fetch_wait", "queue_wait",
                                   "remote_serial", "evict_stall"};
  double wall = 0, stall = 0, worst = 0;
  const char* worst_name = "-";
  for (const char* b : kBuckets) {
    const double ns = counter_value(metrics, "hmr_attrib_ns_total",
                                    "bucket=\"" + std::string(b) + "\"");
    wall += ns;
    if (std::strcmp(b, "compute") == 0) continue;
    stall += ns;
    if (ns > worst) {
      worst = ns;
      worst_name = b;
    }
  }
  std::printf("  %-10s %5.0f %9.0f %10s %s %5.1f%%  %s\n", label, weight,
              tasks,
              hmr::fmt_bytes(static_cast<std::uint64_t>(fetch_b)).c_str(),
              bar(busiest_fetch > 0 ? fetch_b / busiest_fetch : 0, width)
                  .c_str(),
              wall > 0 ? stall / wall * 100 : 0,
              wall > 0 && stall > 0 ? worst_name : "-");
}

/// Cluster pane: one row per federated node snapshot plus the
/// weighted aggregate (see docs/CLUSTER.md and /cluster/metrics).
void render_cluster(const hmr::json::Value& fed, int width) {
  const auto* nodes = fed.find("nodes");
  const auto* total = fed.find("total_nodes");
  std::printf("\nCluster (%d node%s, %zu group%s) — fetch bytes:\n",
              total ? static_cast<int>(total->num_or(0)) : 0,
              total && total->num_or(0) == 1 ? "" : "s",
              nodes && nodes->is_array() ? nodes->arr.size() : 0,
              nodes && nodes->is_array() && nodes->arr.size() == 1 ? ""
                                                                   : "s");
  std::printf("  %-10s %5s %9s %10s %*s %6s  %s\n", "node", "nodes",
              "tasks", "fetch", width + 2, "", "stall", "dominant");
  if (!nodes || !nodes->is_array()) return;
  double busiest = 0;
  for (const auto& n : nodes->arr) {
    if (const auto* m = n.find("metrics")) {
      busiest = std::max(
          busiest, counter_value(*m, "hmr_policy_fetch_bytes_total"));
    }
  }
  for (const auto& n : nodes->arr) {
    const auto* name = n.find("node");
    const auto* weight = n.find("weight");
    const auto* m = n.find("metrics");
    if (!m) continue;
    cluster_row(name ? name->str.c_str() : "?",
                weight ? weight->num_or(1) : 1, *m, busiest, width);
  }
  if (const auto* agg = fed.find("aggregate")) {
    cluster_row("aggregate", total ? total->num_or(0) : 0, *agg, busiest,
                width);
  }
}

void render(const Frame& fr, int top_n, int width) {
  const hmr::json::Value& st = fr.status;
  const auto num = [&](const char* key, double fb) {
    const auto* v = st.find(key);
    return v ? v->num_or(fb) : fb;
  };
  std::printf("hmr_top — t=%.3f s  strategy=%s\n", num("time_s", 0),
              st.find("strategy") ? st.find("strategy")->str.c_str() : "?");
  std::printf(
      "tasks=%.0f retired=%.0f outstanding_msgs=%.0f outstanding_ops=%.0f\n",
      num("tasks_executed", 0), num("retired", 0),
      num("outstanding_msgs", 0), num("outstanding_ops", 0));

  // Per-PE panel: queue depth bar (msgs + run_q, scaled to the busiest
  // PE) plus liveness.  Stale beats (age over a second) get flagged.
  const auto* pes = st.find("pes");
  if (pes && pes->is_array() && !pes->arr.empty()) {
    double busiest = 1;
    for (const auto& pe : pes->arr) {
      const double q = (pe.find("msgs") ? pe.find("msgs")->num_or(0) : 0) +
                       (pe.find("run_q") ? pe.find("run_q")->num_or(0) : 0);
      busiest = std::max(busiest, q);
    }
    std::printf("\nPEs (%zu) — queue depth:\n", pes->arr.size());
    for (std::size_t i = 0; i < pes->arr.size(); ++i) {
      const auto& pe = pes->arr[i];
      const double msgs = pe.find("msgs") ? pe.find("msgs")->num_or(0) : 0;
      const double runq =
          pe.find("run_q") ? pe.find("run_q")->num_or(0) : 0;
      const double age =
          pe.find("beat_age_s") ? pe.find("beat_age_s")->num_or(-1) : -1;
      std::printf("  pe%-3zu %s msgs=%-5.0f run_q=%-5.0f%s\n", i,
                  bar((msgs + runq) / busiest, width).c_str(), msgs, runq,
                  age > 1.0 ? "  [stale beat]" : "");
    }
  }

  const auto* tiers = st.find("tiers");
  if (tiers && tiers->is_array()) {
    std::printf("\nTiers:\n");
    for (const auto& t : tiers->arr) {
      const double level = t.find("level") ? t.find("level")->num_or(0) : 0;
      const double used =
          t.find("used_bytes") ? t.find("used_bytes")->num_or(0) : 0;
      const double cap =
          t.find("capacity_bytes") ? t.find("capacity_bytes")->num_or(0)
                                   : 0;
      const double frac = cap > 0 ? used / cap : 0;
      std::string spark;
      if (fr.have_history) {
        const std::string key =
            "level=\"" + std::to_string(static_cast<int>(level)) + "\"";
        spark = sparkline(series_values(fr.history, key), width);
      }
      std::printf("  L%-2d %s %9s / %-9s", static_cast<int>(level),
                  bar(frac, width).c_str(),
                  hmr::fmt_bytes(static_cast<std::uint64_t>(used)).c_str(),
                  cap > 0
                      ? hmr::fmt_bytes(static_cast<std::uint64_t>(cap))
                            .c_str()
                      : "inf");
      if (!spark.empty()) std::printf("  |%s|", spark.c_str());
      std::printf("\n");
    }
  }

  const auto* hot = st.find("hot_blocks");
  if (hot && hot->is_array() && !hot->arr.empty()) {
    std::printf("\nHot blocks (top %d by expected accesses/phase):\n",
                top_n);
    std::printf("  %8s %10s %10s %10s %10s\n", "block", "bytes",
                "hotness", "ro_frac", "reuse");
    int shown = 0;
    for (const auto& b : hot->arr) {
      if (shown++ >= top_n) break;
      std::printf(
          "  %8.0f %10s %10.3f %10.3f %10.1f\n",
          b.find("block") ? b.find("block")->num_or(0) : 0,
          hmr::fmt_bytes(static_cast<std::uint64_t>(
                             b.find("bytes") ? b.find("bytes")->num_or(0)
                                             : 0))
              .c_str(),
          b.find("hotness") ? b.find("hotness")->num_or(0) : 0,
          b.find("readonly_frac") ? b.find("readonly_frac")->num_or(0)
                                  : 0,
          b.find("reuse_distance") ? b.find("reuse_distance")->num_or(0)
                                   : 0);
    }
  }

  const auto* gov = st.find("governor");
  if (gov && gov->is_object()) {
    std::printf(
        "\nGovernor: strategy=%s eager_evict=%s fair_admission=%s "
        "switches=%.0f phases=%.0f\n",
        gov->find("strategy") ? gov->find("strategy")->str.c_str() : "?",
        gov->find("eager_evict") && gov->find("eager_evict")->boolean
            ? "on"
            : "off",
        gov->find("fair_admission") && gov->find("fair_admission")->boolean
            ? "on"
            : "off",
        gov->find("switches") ? gov->find("switches")->num_or(0) : 0,
        gov->find("phases") ? gov->find("phases")->num_or(0) : 0);
  }

  if (fr.have_cluster) render_cluster(fr.cluster, width);

  // Active alerts: the watchdog's latched stall plus its last reason
  // whenever anything has tripped (storm alerts report here too).
  const auto* wd = st.find("watchdog");
  std::printf("\nAlerts:\n");
  bool any = false;
  if (wd && wd->is_object()) {
    const double trips =
        wd->find("trips") ? wd->find("trips")->num_or(0) : 0;
    const bool stalled =
        wd->find("stalled") && wd->find("stalled")->boolean;
    if (stalled) {
      std::printf("  !! STALLED: %s\n",
                  wd->find("last_reason")
                      ? wd->find("last_reason")->str.c_str()
                      : "");
      any = true;
    } else if (trips > 0) {
      std::printf("  !  %.0f watchdog trip(s), last: %s\n", trips,
                  wd->find("last_reason")
                      ? wd->find("last_reason")->str.c_str()
                      : "");
      any = true;
    }
  }
  if (!any) std::printf("  (none)\n");
}

} // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::int64_t port = 0;
  double interval = 2.0;
  bool once = false;
  std::string from;
  std::string history_file;
  bool cluster = false;
  std::string cluster_file;
  std::int64_t top_n = 8;
  std::int64_t width = 24;

  hmr::ArgParser args(
      "hmr_top",
      "Terminal dashboard over a runtime's status port (or saved "
      "/status + /history JSON with --from/--history-file)");
  args.add_flag("host", "status server address", &host);
  args.add_flag("port", "status server port (required unless --from)",
                &port);
  args.add_flag("interval", "refresh period in seconds", &interval);
  args.add_flag("once", "render a single frame and exit", &once);
  args.add_flag("from", "offline mode: read /status JSON from this file",
                &from);
  args.add_flag("history-file",
                "offline mode: read /history?metric=hmr_tier_used_bytes "
                "JSON from this file",
                &history_file);
  args.add_flag("cluster",
                "add the federated per-node pane (/cluster/metrics; "
                "needs Config::cluster_metrics_json wired)",
                &cluster);
  args.add_flag("cluster-file",
                "offline mode: read /cluster/metrics JSON from this file",
                &cluster_file);
  args.add_flag("top", "hot-block rows to show", &top_n);
  args.add_flag("width", "bar/sparkline width in characters", &width);
  if (!args.parse(argc, argv)) return 1;

  const bool offline = !from.empty();
  if (!offline && port <= 0) {
    std::fprintf(stderr, "hmr_top: --port or --from is required\n%s",
                 args.usage().c_str());
    return 1;
  }

  const auto fetch = [&](Frame& fr, std::string& err) {
    std::string status_text;
    if (offline) {
      if (!read_file(from, status_text, err)) return false;
    } else if (!http_get(host, static_cast<int>(port), "/status",
                         status_text, err)) {
      return false;
    }
    std::string jerr;
    if (!hmr::json::parse(status_text, fr.status, &jerr)) {
      err = "bad /status JSON: " + jerr;
      return false;
    }
    std::string hist_text;
    if (offline) {
      std::string ignored;
      fr.have_history = !history_file.empty() &&
                        read_file(history_file, hist_text, ignored);
    } else {
      std::string ignored;
      // 404 just means Config::history_depth=0 — dashboard minus the
      // sparklines, not an error.
      fr.have_history =
          http_get(host, static_cast<int>(port),
                   "/history?metric=hmr_tier_used_bytes", hist_text,
                   ignored);
    }
    if (fr.have_history &&
        !hmr::json::parse(hist_text, fr.history, &jerr)) {
      fr.have_history = false;
    }
    std::string cluster_text;
    if (offline) {
      std::string ignored;
      fr.have_cluster = !cluster_file.empty() &&
                        read_file(cluster_file, cluster_text, ignored);
    } else if (cluster) {
      std::string ignored;
      // 404 = no federation attached; drop the pane, keep the frame.
      fr.have_cluster =
          http_get(host, static_cast<int>(port), "/cluster/metrics",
                   cluster_text, ignored);
    }
    if (fr.have_cluster &&
        !hmr::json::parse(cluster_text, fr.cluster, &jerr)) {
      fr.have_cluster = false;
    }
    return true;
  };

  for (;;) {
    Frame fr;
    std::string err;
    if (!fetch(fr, err)) {
      std::fprintf(stderr, "hmr_top: %s\n", err.c_str());
      return 1;
    }
    if (!once) std::printf("\033[H\033[2J"); // home + clear
    render(fr, static_cast<int>(top_n), static_cast<int>(width));
    std::fflush(stdout);
    if (once || offline) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
  return 0;
}
