#pragma once
// BlockFlightRecorder: last-N residency transitions per block.
//
// When a cascade demotion or an eviction decision looks wrong, the
// question is always "how did this block get here?" — and by the time
// anyone asks, the full trace (if one was even recorded) is millions
// of intervals.  The flight recorder keeps a tiny bounded ring of the
// most recent transitions *per block*, always on, so post-mortem
// debugging can replay exactly the path one block took through the
// hierarchy.
//
// Writers are the executors' migration completion paths: in the
// threaded runtime every task's fetches and evictions land here, two
// to four writes per task, so a write must cost a few loads and one
// uncontended lock.  Both executors number blocks densely, so the
// rings live in a table indexed by BlockId: fixed-size chunks of
// rings, reached through a directory that doubles when an id lands
// past its end.  A chunk never moves once published and a replaced
// directory is kept until the recorder dies, so a lookup is two
// acquire loads with no lock; each ring has its own mutex, which
// writers of distinct blocks never share.  Only a write grows the
// table (at most kMaxBlockIdGap past what it covers, as the policy
// engine bounds its own table); reads past the end find nothing.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "ooc/types.hpp"

namespace hmr::telemetry {

/// Flight-recorder depth from the environment: HMR_FLIGHT_DEPTH
/// overrides `fallback` (the executor's default depth), clamped to
/// [0, 1024] — 0 disables the recorder entirely.  Unset, or anything
/// but plain digits (parse_u64), `fallback` stands.  Lets operators deepen (or silence) the ring on
/// a deployed binary without a rebuild.
std::size_t flight_depth_from_env(std::size_t fallback);

class BlockFlightRecorder {
public:
  struct Transition {
    double time = 0; // executor clock (virtual or wall seconds)
    ooc::TaskId task = 0; // causing task; 0 = none recorded
    std::uint32_t src_tier = 0;
    std::uint32_t dst_tier = 0;
    std::uint64_t bytes = 0;
    bool fetch = false; // promotion (fetch) vs demotion (evict)
  };

  /// Growth bound of the table: recording an id more than this far
  /// past the ids the table covers is a caller bug (a stray or
  /// uninitialized id), not a reason to allocate gigabytes.
  static constexpr ooc::BlockId kMaxBlockIdGap = ooc::BlockId{1} << 20;

  /// Keep the last `depth` transitions per block.
  explicit BlockFlightRecorder(std::size_t depth = 8);
  ~BlockFlightRecorder();

  BlockFlightRecorder(const BlockFlightRecorder&) = delete;
  BlockFlightRecorder& operator=(const BlockFlightRecorder&) = delete;

  std::size_t depth() const { return depth_; }
  /// Block ids the table covers now, [0, capacity()); only record()
  /// raises it.
  std::uint64_t capacity() const;

  void record(ooc::BlockId b, const Transition& t);

  /// The block's retained transitions, oldest first; and how many were
  /// recorded in total (>= history().size() once the ring wrapped).
  /// Empty / 0 for a block never recorded, however large its id.
  std::vector<Transition> history(ooc::BlockId b) const;
  std::uint64_t total_recorded(ooc::BlockId b) const;

  /// Text dump of one block / of every recorded block in ascending id
  /// order (for post-mortems).
  void dump_block(std::ostream& os, ooc::BlockId b) const;
  void dump(std::ostream& os) const;

private:
  struct alignas(64) Ring {
    mutable std::mutex mu;
    std::uint64_t n = 0; // total recorded; slots[n % depth] is next
    std::unique_ptr<Transition[]> slots; // depth_ entries, first write
  };
  static constexpr unsigned kChunkBits = 8;
  static constexpr std::size_t kChunkRings = std::size_t{1} << kChunkBits;
  struct Chunk {
    Ring rings[kChunkRings];
  };
  struct Directory {
    explicit Directory(std::size_t n);
    std::size_t size; // chunk slots; covers size * kChunkRings ids
    std::unique_ptr<std::atomic<Chunk*>[]> chunks; // null = gap
  };

  /// The block's ring, or nullptr when no write has reached its chunk.
  /// Never grows the table.
  Ring* find(ooc::BlockId b) const;
  /// The block's ring, growing the directory and adding its chunk
  /// when needed (under grow_mu_).
  Ring& ring_for_write(ooc::BlockId b);

  std::size_t depth_;
  std::atomic<Directory*> dir_{nullptr};
  std::mutex grow_mu_; // serializes growth; guards the owners below
  // Every directory ever published (a reader may still hold an older
  // one) and every chunk; freed only with the recorder.
  std::vector<std::unique_ptr<Directory>> dirs_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
};

} // namespace hmr::telemetry
