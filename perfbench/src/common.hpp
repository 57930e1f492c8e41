#pragma once
// Shared harness pieces: clocks, the span recorder, a one-line JSON
// writer, the host tag and the per-trial result every workload fills.
//
// A trial is one process: set up, measure, check, print one JSON line.
// perfbench/run.py runs trials back to back for the requested seconds
// and folds their raw samples into the benchmark's metrics, so an abort
// inside the library costs one trial, never the whole run.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hmr::bench {

double now_s();        // steady clock, seconds
double cpu_s();        // process CPU time (all threads), seconds
std::uint64_t ctx_switches(); // voluntary + involuntary, this process
std::uint64_t peak_rss_kb();  // this process's peak resident set

/// Spans recorded around the harness's calls into each layer: name,
/// start, end and the enclosing span.  Kept in memory and written once
/// at the end of a traced trial.  Main thread only.
class Spans {
public:
  struct Span {
    const char* name;
    double t0;
    double t1;
    int parent; // index into the span list, -1 at top level
  };

  explicit Spans(bool on) : on_(on) { spans_.reserve(on ? 1 << 16 : 0); }

  /// Open a span under the current one; returns its id (-1 when off).
  int open(const char* name);
  void close(int id);
  void write_json(const std::string& path) const;

private:
  bool on_;
  int cur_ = -1;
  std::vector<Span> spans_;
};

class SpanScope {
public:
  SpanScope(Spans& s, const char* name) : s_(s), id_(s.open(name)) {}
  ~SpanScope() { s_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

private:
  Spans& s_;
  int id_;
};

/// Ordered key/value object rendered as one JSON line.
class JsonLine {
public:
  JsonLine& num(const std::string& k, double v);
  JsonLine& count(const std::string& k, std::uint64_t v);
  JsonLine& str(const std::string& k, const std::string& v);
  JsonLine& flag(const std::string& k, bool v);
  JsonLine& list(const std::string& k, const std::vector<double>& v);
  JsonLine& raw(const std::string& k, const std::string& json);
  std::string render() const;

private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string out_dir = ".bench_build/traces"; // traced-trial artifacts
  int trial = 0;                               // index within the run
};

/// Threads a workload starts: PE workers, IO threads and the harness's
/// own generator thread.  Must fit the host's hardware threads.
struct ThreadBudget {
  int pes = 0;
  int io = 0;
  int gen = 0;
  int total() const { return pes + io + gen; }
};

/// Dies with a message (exit code 3) when `b` exceeds nproc.
void check_thread_budget(const ThreadBudget& b);

/// Host tag: nproc, copy kernel, compiler, build type, thread counts.
std::string host_tag_json(const ThreadBudget& b);

/// Everything one trial reports.  `iter_s` are the workload's step
/// times (see perfbench/NOTES.md for what a step is per workload);
/// the rest are totals over the measured phase.
struct Trial {
  bool correct = true;
  std::string message; // first failed check, empty when correct
  double setup_s = 0;
  std::vector<double> iter_s;
  double wall_s = 0;         // measured phase
  double cpu_s = 0;          // process CPU over the measured phase
  std::uint64_t tasks = 0;     // tasks retired in the measured phase
  std::uint64_t attempted = 0; // tasks attempted
  std::uint64_t failed = 0;    // tasks failed or wrong
  std::uint64_t fetches = 0;
  std::uint64_t evicts = 0;
  std::uint64_t fetch_bytes = 0;
  std::uint64_t evict_bytes = 0;
  /// Per-layer metrics (traced trials only), name -> value, plus the
  /// name of the probe a value came from when not from the run itself.
  std::map<std::string, double> layers;
  std::map<std::string, std::string> layer_source;
  /// Exact counts the run must repeat bit for bit.
  std::map<std::string, std::uint64_t> exact;
  ThreadBudget threads;

  void fail(const std::string& why) {
    if (correct) message = why;
    correct = false;
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

std::string render_trial(const Options& o, const Trial& t);

/// Percentile of `v` (linear interpolation, q in [0, 100]); 0 if empty.
double percentile(std::vector<double> v, double q);

} // namespace hmr::bench
