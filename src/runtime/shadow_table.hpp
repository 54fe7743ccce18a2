// Mem-mode shadow storage (paper Fig. 5b): each live value in a truncated
// region is an entry holding (a) the value in its kept MPFR/BigFloat
// representation and (b) an FP64 shadow updated with full-precision
// operations. User-visible doubles carry a NaN-boxed integer id that
// recovers the entry, mirroring the paper's bitcast<int>(float) trick.
//
// We add reference counting on top (the paper's runtime keeps a grow-only
// list); the Real<> front-end retains/releases automatically so long runs
// stay bounded. The raw C API exposes retain/release for manual use.
//
// Concurrency (DESIGN.md §7): the table is sharded into kShards lock-striped
// segments so parallel mem-mode threads do not contend on a single mutex.
// The shard index lives in the low kShardBits of the 32-bit entry id, each
// shard keeps its own freelist, and every thread allocates from a "home"
// shard assigned round-robin — so alloc/release streams from different
// OpenMP threads touch different locks. The table generation is a single
// atomic read; clear() (the only cross-shard writer) takes every shard lock
// before bumping it, so the *_if_current operations observe generation and
// entry state atomically under their one shard lock.
#pragma once

#include <atomic>
#include <cstring>
#include <deque>
#include <mutex>
#include <vector>

#include "softfloat/bigfloat.hpp"
#include "support/common.hpp"

namespace raptor::rt {

struct ShadowEntry {
  sf::BigFloat trunc;   ///< value as maintained in the target format
  double shadow = 0.0;  ///< FP64 reference as if never truncated
  u32 refcount = 0;
};

namespace boxing {
// Quiet-NaN payload tag: sign=1, exponent all-ones, top mantissa nibble 0xA.
// The 48-bit payload carries a 16-bit table generation plus a 32-bit entry
// id; the generation invalidates outstanding handles across clear() so a
// straggling release cannot touch a recycled slot. The entry id itself is
// (slot << kShardBits) | shard — see ShadowTable.
inline constexpr u64 kTag = u64{0xFFFA} << 48;
inline constexpr u64 kMask = u64{0xFFFF} << 48;

inline bool is_boxed(double d) {
  u64 b;
  std::memcpy(&b, &d, sizeof b);
  return (b & kMask) == kTag;
}

inline double box(u32 id, u32 generation) {
  const u64 b = kTag | (static_cast<u64>(generation & 0xFFFF) << 32) | id;
  double d;
  std::memcpy(&d, &b, sizeof d);
  return d;
}

inline u32 unbox_id(double d) {
  u64 b;
  std::memcpy(&b, &d, sizeof b);
  RAPTOR_ASSERT((b & kMask) == kTag);
  return static_cast<u32>(b);
}

inline u32 unbox_generation(double d) {
  u64 b;
  std::memcpy(&b, &d, sizeof b);
  RAPTOR_ASSERT((b & kMask) == kTag);
  return static_cast<u32>((b >> 32) & 0xFFFF);
}
}  // namespace boxing

class ShadowTable {
 public:
  /// Lock stripes. The shard index occupies the low kShardBits of an id, so
  /// each shard can hold 2^(32 - kShardBits) slots.
  static constexpr u32 kShardBits = 4;
  static constexpr u32 kShards = 1u << kShardBits;

  /// Allocate an entry with refcount 1; returns its id.
  u32 alloc(const sf::BigFloat& trunc, double shadow);

  /// Allocate an entry and return the NaN-boxed handle directly. The
  /// generation is read under the same shard lock as the allocation, so the
  /// handle can never pair a fresh id with a stale stamp (or vice versa)
  /// even if clear() runs concurrently. One locked section.
  double alloc_boxed(const sf::BigFloat& trunc, double shadow);

  /// Locked copy of an entry. Copy-out (rather than a reference) keeps
  /// readers safe against concurrent deque growth in alloc() when op-mode
  /// threads and a mem-mode analysis section coexist.
  [[nodiscard]] ShadowEntry snapshot(u32 id) const;

  /// Copy an entry out iff `generation` is still current — the hot-path read
  /// combining the old generation()+snapshot() pair into a single locked
  /// section. Returns false (leaving `out` untouched) for stale handles.
  [[nodiscard]] bool snapshot_if_current(u32 id, u32 generation, ShadowEntry& out) const;

  /// Copy an entry out and drop one reference in the same locked section
  /// (the materialize / _raptor_post_c primitive). Returns false and does
  /// nothing for stale handles.
  bool take_if_current(u32 id, u32 generation, ShadowEntry& out);

  void retain(u32 id);
  /// Drop a reference; frees the slot at zero.
  void release(u32 id);

  /// Generation-checked retain/release: no-ops for stale handles, with the
  /// check made under the shard lock so a straggler racing clear() can never
  /// touch a recycled slot.
  void retain_if_current(u32 id, u32 generation);
  void release_if_current(u32 id, u32 generation);

  [[nodiscard]] std::size_t live() const;
  [[nodiscard]] std::size_t capacity() const;
  /// Drop everything (between experiments) and bump the generation:
  /// outstanding boxed handles become stale and their later retain/release
  /// calls are ignored by the runtime. Takes all shard locks. Returns the
  /// number of entries that were still live — the leak report of the
  /// upstream runtime's gc_dump_status (a nonzero count means handles were
  /// never released/materialized).
  std::size_t clear();
  /// Current generation stamped into newly boxed handles. Lock-free.
  [[nodiscard]] u32 generation() const { return generation_.load(std::memory_order_acquire); }

  /// Number of entry-level locked sections executed since the last reset
  /// (alloc / snapshot / retain / release / take). Aggregate queries (live,
  /// capacity, clear) are not counted. This instruments the acceptance
  /// criterion "one locked read per boxed operand + one locked write per
  /// result" — see bench/memmode_parallel and test_memmode. The tally is
  /// kept per shard (bumped under the shard lock already being held) so the
  /// accounting adds no shared cache line across shards.
  [[nodiscard]] u64 locked_sections() const;
  void reset_locked_sections();

 private:
  /// One cache line apart: threads take home shards round-robin, so
  /// neighbouring shards sharing a line would ping-pong it between cores.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::deque<ShadowEntry> entries;
    std::vector<u32> free_slots;
    std::size_t live = 0;
    mutable u64 locked_sections = 0;  ///< guarded by mu
  };

  static constexpr u32 shard_of(u32 id) { return id & (kShards - 1); }
  static constexpr u32 slot_of(u32 id) { return id >> kShardBits; }
  static constexpr u32 make_id(u32 shard, u32 slot) { return (slot << kShardBits) | shard; }

  /// Slot allocation within one shard; caller holds `sh.mu`.
  u32 alloc_slot_locked(Shard& sh, u32 shard_index, const sf::BigFloat& trunc, double shadow);

  Shard shards_[kShards];
  std::atomic<u32> generation_{0};
};

}  // namespace raptor::rt
