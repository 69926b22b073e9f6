// Per-thread ring-buffer span recorder with a process-wide registry.
//
// Every thread that records gets its own fixed-slot ring (no shared write
// path), so recording never contends with other recorders. Each slot is a
// seqlock: all fields are relaxed atomics guarded by a per-slot sequence
// word, so a concurrent Snapshot() either reads a consistent span or
// detects the tear and skips the slot. Rings are registered with the
// singleton TraceRegistry on first use; when a thread exits its ring is
// flushed into a bounded retired store so short-lived worker threads (the
// parallel separator search spawns them per call) don't lose their spans.
//
// Span identity: `id` is unique per process (seeded from the steady clock
// so ids adopted from another process — the router propagating a request
// id to a backend — are unlikely to collide with local ones). `root` ties
// every span of one request together; root spans have parent == 0 and
// root == id. Timestamps are steady-clock nanoseconds since registry
// construction; duration is nanoseconds.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

namespace htd::util {

/// A completed span as read out of a ring. 16-byte name, one u64 tag
/// (recursion depth, shard index, thread count — whatever the site wants).
struct TraceSpan {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root span
  uint64_t root = 0;    ///< id of the root span of this request
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  uint64_t tag = 0;
  char name[16] = {0};

  std::string Name() const;
};

/// Fixed-slot single-writer ring. Only the owning thread pushes; any
/// thread may read via ReadInto (seqlock per slot).
class TraceRing {
 public:
  static constexpr size_t kCapacity = 256;

  void Push(const TraceSpan& span);
  /// Appends every consistent, completed slot to `out`.
  void ReadInto(std::vector<TraceSpan>* out) const;
  uint64_t pushed() const { return head_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  ///< odd = write in progress
    std::atomic<uint64_t> id{0};
    std::atomic<uint64_t> parent{0};
    std::atomic<uint64_t> root{0};
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> duration_ns{0};
    std::atomic<uint64_t> tag{0};
    std::atomic<uint64_t> name0{0};
    std::atomic<uint64_t> name1{0};
  };

  Slot slots_[kCapacity];
  std::atomic<uint64_t> head_{0};
};

/// Process-wide registry of live rings plus a bounded store of spans
/// flushed from exited threads.
class TraceRegistry {
 public:
  static TraceRegistry& Instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Process-unique span id (never 0).
  uint64_t NextId();

  /// Steady-clock nanoseconds since registry construction.
  uint64_t NowNs() const;

  /// Records into the calling thread's ring (created and registered on
  /// first use). No-op when disabled.
  void Record(const TraceSpan& span);

  /// Consistent copies of every span currently held in live rings and the
  /// retired store. Order is unspecified.
  std::vector<TraceSpan> Snapshot() const;

  /// The most recent `n` completed root spans (parent == 0), newest
  /// first, each with the spans sharing its root id attached.
  struct RootTrace {
    TraceSpan root;
    std::vector<TraceSpan> spans;  ///< children, sorted by start_ns
  };
  std::vector<RootTrace> RecentRoots(size_t n) const;

  // Internal — called by the thread-local ring holder.
  void RegisterRing(TraceRing* ring);
  void RetireRing(TraceRing* ring);

 private:
  TraceRegistry();

  static constexpr size_t kRetiredCapacity = 4096;

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> next_id_;

  mutable std::mutex mu_;
  std::vector<TraceRing*> rings_;
  std::vector<TraceSpan> retired_;  ///< ring: retired_pos_ wraps
  size_t retired_pos_ = 0;

  uint64_t epoch_ns_ = 0;
};

/// Explicit parentage for spans that continue a request on another thread
/// (scheduler flights, solver pool, parallel-search workers).
struct TraceParent {
  uint64_t parent = 0;
  uint64_t root = 0;
};

/// Adopt a pre-assigned id for a root span (a request id propagated from
/// the shard router, or freshly drawn from NextId by the server).
struct TraceRootId {
  uint64_t id = 0;
};

/// RAII span. The default constructor parents under the calling thread's
/// current scope (nesting), making this span current for its lifetime.
/// The TraceParent form parents explicitly (cross-thread continuation) and
/// is inert when the parent is all-zero — a zero TraceParent means "this
/// work belongs to no traced request", so library code can pass one
/// through unconditionally. When the registry is disabled at
/// construction, the scope is inert too.
class TraceScope {
 public:
  explicit TraceScope(const char* name, uint64_t tag = 0);
  TraceScope(const char* name, TraceParent parent, uint64_t tag = 0);
  TraceScope(const char* name, TraceRootId root, uint64_t tag = 0);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  bool armed() const { return armed_; }
  uint64_t id() const { return id_; }
  uint64_t root() const { return root_; }
  /// Elapsed seconds since construction (0 when inert).
  double Seconds() const;
  void set_tag(uint64_t tag) { tag_ = tag; }

 private:
  void Begin(const char* name, uint64_t parent, uint64_t root, uint64_t id,
             uint64_t tag);

  bool armed_ = false;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t root_ = 0;
  uint64_t tag_ = 0;
  uint64_t start_ns_ = 0;
  uint64_t saved_current_ = 0;
  uint64_t saved_root_ = 0;
  char name_[16] = {0};
};

/// Records an already-measured span (used for retroactive stages such as
/// scheduler queue wait, where no scope was open at the start, and for a
/// request's root span when its answer finishes on another thread). A span
/// with parent 0 is a root: its id is `root`, as for TraceRootId.
void RecordSpan(const char* name, uint64_t parent, uint64_t root,
                uint64_t start_ns, uint64_t duration_ns, uint64_t tag = 0);

/// The calling thread's current span context (for handing to a worker).
TraceParent CurrentTraceParent();

/// 16 lowercase hex digits.
std::string TraceIdHex(uint64_t id);
/// Parses exactly 16 hex digits; returns false (id untouched) otherwise.
bool ParseTraceId(const std::string& text, uint64_t* id);

}  // namespace htd::util
