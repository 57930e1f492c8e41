#include "telemetry/decision_log.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "telemetry/metrics.hpp" // json_escape
#include "util/check.hpp"

namespace hmr::telemetry {

namespace {
/// JSON/CSV have no infinity: an unreachable break-even (fast
/// placement never pays off) serializes as -1.
double fin(double v) { return std::isfinite(v) ? v : -1.0; }
} // namespace

static_assert(std::is_trivially_copyable_v<DecisionLog::Record>,
              "records are seqlock-copied word-wise");

DecisionLog::DecisionLog(std::size_t capacity) : cap_(capacity) {
  HMR_CHECK(cap_ > 0);
  slots_ = std::make_unique<Slot[]>(cap_);
}

void DecisionLog::record(const adapt::DecisionEvent& e) {
  Record r;
  r.seq = widx_.fetch_add(1, std::memory_order_relaxed);
  r.time = clock_ ? clock_() : 0.0;
  r.ev = e;

  std::uint64_t words[kWords] = {};
  std::memcpy(words, &r, sizeof(Record));

  Slot& s = slots_[r.seq % cap_];
  // Seqlock write: odd marks in-progress, the release store of the
  // even value publishes the payload.  Each payload store is a release,
  // so a reader whose acquire load sees it also sees the odd sequence
  // value stored before it (orderings on the atomics themselves, not
  // fences: ThreadSanitizer models the former only).
  s.seq.store(2 * r.seq + 1, std::memory_order_relaxed);
  for (std::size_t w = 0; w < kWords; ++w) {
    std::atomic_ref<std::uint64_t>(s.words[w])
        .store(words[w], std::memory_order_release);
  }
  s.seq.store(2 * r.seq + 2, std::memory_order_release);
}

std::vector<DecisionLog::Record> DecisionLog::snapshot() const {
  std::vector<Record> out;
  out.reserve(cap_);
  for (std::size_t i = 0; i < cap_; ++i) {
    const Slot& s = slots_[i];
    // A couple of retries ride out a concurrent overwrite; a slot that
    // stays unstable is simply the one being written right now.
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
      if (s1 == 0 || (s1 & 1) != 0) {
        if ((s1 & 1) != 0) continue; // mid-write: retry
        break;                       // never written
      }
      std::uint64_t words[kWords];
      for (std::size_t w = 0; w < kWords; ++w) {
        // atomic_ref<const T> lands only in C++26; cast away const for
        // the load (the object itself is non-const).  Acquire keeps
        // the sequence re-check below from moving above it.
        words[w] =
            std::atomic_ref<std::uint64_t>(
                const_cast<std::uint64_t&>(s.words[w]))
                .load(std::memory_order_acquire);
      }
      if (s.seq.load(std::memory_order_relaxed) != s1) continue;
      Record r;
      std::memcpy(&r, words, sizeof(Record));
      out.push_back(r);
      break;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Record& a, const Record& b) { return a.seq < b.seq; });
  return out;
}

std::vector<DecisionLog::Record> DecisionLog::snapshot_block(
    ooc::BlockId b) const {
  std::vector<Record> all = snapshot();
  std::vector<Record> out;
  for (const Record& r : all) {
    if (r.ev.kind == adapt::DecisionKind::GovernorPhase || r.ev.block == b) {
      out.push_back(r);
    }
  }
  return out;
}

void DecisionLog::write_json(std::ostream& os,
                             const std::vector<Record>& recs,
                             std::uint64_t total,
                             std::uint64_t overwritten) {
  os << "{\"total\":" << total << ",\"overwritten\":" << overwritten
     << ",\"decisions\":[";
  bool first = true;
  for (const Record& r : recs) {
    if (!first) os << ",";
    first = false;
    const adapt::DecisionEvent& e = r.ev;
    os << "{\"seq\":" << r.seq << ",\"time_s\":" << r.time << ",\"kind\":\"";
    json_escape(os, adapt::decision_kind_name(e.kind));
    os << "\"";
    if (e.kind == adapt::DecisionKind::GovernorPhase) {
      os << ",\"phase\":" << e.phase
         << ",\"phase_seconds\":" << e.phase_seconds
         << ",\"wait_fraction\":" << e.wait_fraction
         << ",\"refetch_ratio\":" << e.refetch_ratio
         << ",\"channel_util\":" << e.channel_util
         << ",\"peak_inflight\":" << e.peak_inflight
         << ",\"lru_reclaims\":" << e.lru_reclaims
         << ",\"in_cooldown\":" << (e.in_cooldown ? "true" : "false")
         << ",\"strategy\":\"" << ooc::strategy_name(e.strategy) << "\""
         << ",\"eager_evict\":" << (e.eager_evict ? "true" : "false")
         << ",\"fair_admission\":" << (e.fair_admission ? "true" : "false")
         << ",\"lru_watermark\":" << e.lru_watermark
         << ",\"bypass_streaming\":" << (e.bypass_streaming ? "true" : "false")
         << ",\"changed\":" << (e.changed ? "true" : "false");
    } else {
      os << ",\"block\":" << e.block << ",\"bytes\":" << e.bytes
         << ",\"hotness\":" << e.hotness
         << ",\"readonly_frac\":" << e.readonly_frac
         << ",\"reuse_distance\":" << e.reuse_distance
         << ",\"break_even\":" << fin(e.break_even)
         << ",\"pin\":" << (e.pin ? "true" : "false")
         << ",\"demote_first\":" << (e.demote_first ? "true" : "false")
         << ",\"bypass_fetch\":" << (e.bypass_fetch ? "true" : "false")
         << ",\"demote_level\":" << e.demote_level;
    }
    os << "}";
  }
  os << "]}\n";
}

void DecisionLog::write_csv(std::ostream& os,
                            const std::vector<Record>& recs) {
  os << "seq,time,kind,block,bytes,hotness,readonly_frac,reuse_distance,"
        "break_even,pin,demote_first,bypass_fetch,demote_level,phase,"
        "phase_seconds,wait_fraction,refetch_ratio,channel_util,"
        "peak_inflight,lru_reclaims,in_cooldown,strategy,eager_evict,"
        "fair_admission,lru_watermark,bypass_streaming,changed\n";
  for (const Record& r : recs) {
    const adapt::DecisionEvent& e = r.ev;
    os << r.seq << ',' << r.time << ','
       << adapt::decision_kind_name(e.kind) << ',' << e.block << ','
       << e.bytes << ',' << e.hotness << ',' << e.readonly_frac << ','
       << e.reuse_distance << ',' << fin(e.break_even) << ',' << int(e.pin)
       << ',' << int(e.demote_first) << ',' << int(e.bypass_fetch) << ','
       << e.demote_level << ',' << e.phase << ',' << e.phase_seconds << ','
       << e.wait_fraction << ',' << e.refetch_ratio << ',' << e.channel_util
       << ',' << e.peak_inflight << ',' << e.lru_reclaims << ','
       << int(e.in_cooldown) << ',' << ooc::strategy_name(e.strategy) << ','
       << int(e.eager_evict) << ',' << int(e.fair_admission) << ','
       << e.lru_watermark << ',' << int(e.bypass_streaming) << ','
       << int(e.changed) << '\n';
  }
}

} // namespace hmr::telemetry
