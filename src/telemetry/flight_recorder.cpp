#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace hmr::telemetry {

std::size_t flight_depth_from_env(std::size_t fallback) {
  const char* env = std::getenv("HMR_FLIGHT_DEPTH");
  std::uint64_t v = 0;
  if (env == nullptr || !parse_u64(env, &v)) return fallback;
  return static_cast<std::size_t>(std::min<std::uint64_t>(v, 1024));
}

BlockFlightRecorder::Directory::Directory(std::size_t n)
    : size(n), chunks(std::make_unique<std::atomic<Chunk*>[]>(n)) {
  for (std::size_t i = 0; i < n; ++i) {
    chunks[i].store(nullptr, std::memory_order_relaxed);
  }
}

BlockFlightRecorder::BlockFlightRecorder(std::size_t depth)
    : depth_(depth) {
  HMR_CHECK(depth_ > 0);
}

BlockFlightRecorder::~BlockFlightRecorder() = default;

std::uint64_t BlockFlightRecorder::capacity() const {
  const Directory* d = dir_.load(std::memory_order_acquire);
  return d ? d->size * kChunkRings : 0;
}

BlockFlightRecorder::Ring* BlockFlightRecorder::find(ooc::BlockId b) const {
  const Directory* d = dir_.load(std::memory_order_acquire);
  const ooc::BlockId c = b >> kChunkBits;
  if (d == nullptr || c >= d->size) return nullptr;
  Chunk* ch = d->chunks[c].load(std::memory_order_acquire);
  return ch ? &ch->rings[b & (kChunkRings - 1)] : nullptr;
}

BlockFlightRecorder::Ring& BlockFlightRecorder::ring_for_write(
    ooc::BlockId b) {
  if (Ring* r = find(b)) return *r;
  std::lock_guard lk(grow_mu_);
  Directory* d = dir_.load(std::memory_order_relaxed);
  const std::size_t size = d ? d->size : 0;
  HMR_CHECK_MSG(b < capacity() + kMaxBlockIdGap,
                "flight recorder: block id too far past the table");
  const auto c = static_cast<std::size_t>(b >> kChunkBits);
  if (c >= size) {
    auto grown = std::make_unique<Directory>(std::max(2 * size, c + 1));
    for (std::size_t i = 0; i < size; ++i) {
      grown->chunks[i].store(d->chunks[i].load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    }
    d = grown.get();
    dirs_.push_back(std::move(grown));
    dir_.store(d, std::memory_order_release);
  }
  Chunk* ch = d->chunks[c].load(std::memory_order_relaxed);
  if (ch == nullptr) {
    chunks_.push_back(std::make_unique<Chunk>());
    ch = chunks_.back().get();
    d->chunks[c].store(ch, std::memory_order_release);
  }
  return ch->rings[b & (kChunkRings - 1)];
}

void BlockFlightRecorder::record(ooc::BlockId b, const Transition& t) {
  Ring& r = ring_for_write(b);
  std::lock_guard lk(r.mu);
  if (!r.slots) r.slots = std::make_unique<Transition[]>(depth_);
  r.slots[r.n % depth_] = t;
  ++r.n;
}

std::vector<BlockFlightRecorder::Transition> BlockFlightRecorder::history(
    ooc::BlockId b) const {
  const Ring* r = find(b);
  if (r == nullptr) return {};
  std::lock_guard lk(r->mu);
  const std::size_t kept =
      static_cast<std::size_t>(std::min<std::uint64_t>(r->n, depth_));
  // Once the ring wrapped, the oldest entry sits at the next write
  // position; before that, at slot 0.
  const std::size_t head = r->n > depth_ ? r->n % depth_ : 0;
  std::vector<Transition> out;
  out.reserve(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    out.push_back(r->slots[(head + i) % depth_]);
  }
  return out;
}

std::uint64_t BlockFlightRecorder::total_recorded(ooc::BlockId b) const {
  const Ring* r = find(b);
  if (r == nullptr) return 0;
  std::lock_guard lk(r->mu);
  return r->n;
}

void BlockFlightRecorder::dump_block(std::ostream& os,
                                     ooc::BlockId b) const {
  const auto hist = history(b);
  os << "block " << b << " (" << total_recorded(b)
     << " transitions, last " << hist.size() << "):\n";
  for (const auto& t : hist) {
    os << "  t=" << t.time << " " << (t.fetch ? "fetch" : "evict") << " "
       << t.src_tier << "->" << t.dst_tier << " bytes=" << t.bytes;
    if (t.task != 0) os << " task=" << t.task;
    os << "\n";
  }
}

void BlockFlightRecorder::dump(std::ostream& os) const {
  const Directory* d = dir_.load(std::memory_order_acquire);
  if (d == nullptr) return;
  for (std::size_t c = 0; c < d->size; ++c) {
    if (d->chunks[c].load(std::memory_order_acquire) == nullptr) continue;
    for (std::size_t i = 0; i < kChunkRings; ++i) {
      const ooc::BlockId b = (ooc::BlockId{c} << kChunkBits) | i;
      if (total_recorded(b) > 0) dump_block(os, b);
    }
  }
}

} // namespace hmr::telemetry
