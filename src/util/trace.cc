#include "util/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace htd::util {
namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void PackName(const char* name, uint64_t* n0, uint64_t* n1) {
  char buf[16] = {0};
  if (name != nullptr) {
    size_t i = 0;
    for (; i < sizeof(buf) - 1 && name[i] != '\0'; ++i) buf[i] = name[i];
  }
  std::memcpy(n0, buf, 8);
  std::memcpy(n1, buf + 8, 8);
}

// Thread-local ring holder: registers on first use, flushes the ring into
// the registry's retired store when the thread exits.
struct RingHolder {
  TraceRing ring;
  RingHolder() { TraceRegistry::Instance().RegisterRing(&ring); }
  ~RingHolder() { TraceRegistry::Instance().RetireRing(&ring); }
};

TraceRing& ThreadRing() {
  static thread_local RingHolder holder;
  return holder.ring;
}

// Current span context for same-thread nesting.
struct ThreadContext {
  uint64_t current = 0;
  uint64_t root = 0;
};

ThreadContext& Context() {
  static thread_local ThreadContext ctx;
  return ctx;
}

}  // namespace

std::string TraceSpan::Name() const {
  size_t len = 0;
  while (len < sizeof(name) && name[len] != '\0') ++len;
  return std::string(name, len);
}

void TraceRing::Push(const TraceSpan& span) {
  uint64_t h = head_.load(std::memory_order_relaxed);
  Slot& slot = slots_[h % kCapacity];
  // Seqlock write: odd sequence marks the slot in progress; the release
  // fence orders the odd store before the field stores for any reader
  // that observes one of them, and the final release store publishes the
  // completed generation.
  slot.seq.store(2 * h + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  uint64_t n0 = 0;
  uint64_t n1 = 0;
  PackName(span.name, &n0, &n1);
  slot.id.store(span.id, std::memory_order_relaxed);
  slot.parent.store(span.parent, std::memory_order_relaxed);
  slot.root.store(span.root, std::memory_order_relaxed);
  slot.start_ns.store(span.start_ns, std::memory_order_relaxed);
  slot.duration_ns.store(span.duration_ns, std::memory_order_relaxed);
  slot.tag.store(span.tag, std::memory_order_relaxed);
  slot.name0.store(n0, std::memory_order_relaxed);
  slot.name1.store(n1, std::memory_order_relaxed);
  slot.seq.store(2 * h + 2, std::memory_order_release);
  head_.store(h + 1, std::memory_order_release);
}

void TraceRing::ReadInto(std::vector<TraceSpan>* out) const {
  for (const Slot& slot : slots_) {
    uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1) != 0) continue;  // empty or mid-write
    TraceSpan span;
    span.id = slot.id.load(std::memory_order_relaxed);
    span.parent = slot.parent.load(std::memory_order_relaxed);
    span.root = slot.root.load(std::memory_order_relaxed);
    span.start_ns = slot.start_ns.load(std::memory_order_relaxed);
    span.duration_ns = slot.duration_ns.load(std::memory_order_relaxed);
    span.tag = slot.tag.load(std::memory_order_relaxed);
    uint64_t n0 = slot.name0.load(std::memory_order_relaxed);
    uint64_t n1 = slot.name1.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
    if (s1 != s2) continue;  // torn by a concurrent push — skip
    std::memcpy(span.name, &n0, 8);
    std::memcpy(span.name + 8, &n1, 8);
    out->push_back(span);
  }
}

TraceRegistry& TraceRegistry::Instance() {
  static TraceRegistry* registry = new TraceRegistry();
  return *registry;
}

TraceRegistry::TraceRegistry() : epoch_ns_(SteadyNowNs()) {
  // Seed ids off the clock so ids minted by two fleet processes (router
  // and backend) almost never collide when one adopts the other's.
  next_id_.store((epoch_ns_ << 16) | 1, std::memory_order_relaxed);
  retired_.reserve(kRetiredCapacity);
}

uint64_t TraceRegistry::NextId() {
  uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  return id == 0 ? NextId() : id;
}

uint64_t TraceRegistry::NowNs() const { return SteadyNowNs() - epoch_ns_; }

void TraceRegistry::Record(const TraceSpan& span) {
  if (!enabled()) return;
  ThreadRing().Push(span);
}

void TraceRegistry::RegisterRing(TraceRing* ring) {
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(ring);
}

void TraceRegistry::RetireRing(TraceRing* ring) {
  std::vector<TraceSpan> spans;
  ring->ReadInto(&spans);
  std::lock_guard<std::mutex> lock(mu_);
  rings_.erase(std::remove(rings_.begin(), rings_.end(), ring), rings_.end());
  for (const TraceSpan& span : spans) {
    if (retired_.size() < kRetiredCapacity) {
      retired_.push_back(span);
    } else {
      retired_[retired_pos_ % kRetiredCapacity] = span;
    }
    ++retired_pos_;
  }
}

std::vector<TraceSpan> TraceRegistry::Snapshot() const {
  std::vector<TraceSpan> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(retired_.size() + rings_.size() * TraceRing::kCapacity / 4);
  out.insert(out.end(), retired_.begin(), retired_.end());
  for (const TraceRing* ring : rings_) ring->ReadInto(&out);
  return out;
}

std::vector<TraceRegistry::RootTrace> TraceRegistry::RecentRoots(
    size_t n) const {
  std::vector<TraceSpan> all = Snapshot();
  std::vector<const TraceSpan*> roots;
  for (const TraceSpan& span : all) {
    if (span.parent == 0 && span.id != 0) roots.push_back(&span);
  }
  std::sort(roots.begin(), roots.end(),
            [](const TraceSpan* a, const TraceSpan* b) {
              return a->start_ns + a->duration_ns >
                     b->start_ns + b->duration_ns;
            });
  if (roots.size() > n) roots.resize(n);
  std::vector<RootTrace> out;
  out.reserve(roots.size());
  for (const TraceSpan* root : roots) {
    RootTrace trace;
    trace.root = *root;
    for (const TraceSpan& span : all) {
      if (span.root == root->id && span.id != root->id) {
        trace.spans.push_back(span);
      }
    }
    std::sort(trace.spans.begin(), trace.spans.end(),
              [](const TraceSpan& a, const TraceSpan& b) {
                return a.start_ns < b.start_ns;
              });
    out.push_back(std::move(trace));
  }
  return out;
}

void TraceScope::Begin(const char* name, uint64_t parent, uint64_t root,
                       uint64_t id, uint64_t tag) {
  TraceRegistry& reg = TraceRegistry::Instance();
  if (!reg.enabled()) return;
  armed_ = true;
  id_ = id != 0 ? id : reg.NextId();
  parent_ = parent;
  root_ = root != 0 ? root : id_;
  tag_ = tag;
  start_ns_ = reg.NowNs();
  size_t i = 0;
  for (; i < sizeof(name_) - 1 && name != nullptr && name[i] != '\0'; ++i) {
    name_[i] = name[i];
  }
  ThreadContext& ctx = Context();
  saved_current_ = ctx.current;
  saved_root_ = ctx.root;
  ctx.current = id_;
  ctx.root = root_;
}

TraceScope::TraceScope(const char* name, uint64_t tag) {
  ThreadContext& ctx = Context();
  Begin(name, ctx.current, ctx.root, 0, tag);
}

TraceScope::TraceScope(const char* name, TraceParent parent, uint64_t tag) {
  if (parent.parent == 0 && parent.root == 0) return;  // untraced request
  Begin(name, parent.parent, parent.root, 0, tag);
}

TraceScope::TraceScope(const char* name, TraceRootId root, uint64_t tag) {
  Begin(name, 0, root.id, root.id, tag);
}

TraceScope::~TraceScope() {
  if (!armed_) return;
  ThreadContext& ctx = Context();
  ctx.current = saved_current_;
  ctx.root = saved_root_;
  TraceRegistry& reg = TraceRegistry::Instance();
  TraceSpan span;
  span.id = id_;
  span.parent = parent_;
  span.root = root_;
  span.start_ns = start_ns_;
  span.duration_ns = reg.NowNs() - start_ns_;
  span.tag = tag_;
  std::memcpy(span.name, name_, sizeof(span.name));
  reg.Record(span);
}

double TraceScope::Seconds() const {
  if (!armed_) return 0.0;
  return static_cast<double>(TraceRegistry::Instance().NowNs() - start_ns_) *
         1e-9;
}

void RecordSpan(const char* name, uint64_t parent, uint64_t root,
                uint64_t start_ns, uint64_t duration_ns, uint64_t tag) {
  TraceRegistry& reg = TraceRegistry::Instance();
  if (!reg.enabled()) return;
  TraceSpan span;
  span.id = parent == 0 ? root : reg.NextId();
  span.parent = parent;
  span.root = root;
  span.start_ns = start_ns;
  span.duration_ns = duration_ns;
  span.tag = tag;
  size_t i = 0;
  for (; i < sizeof(span.name) - 1 && name != nullptr && name[i] != '\0';
       ++i) {
    span.name[i] = name[i];
  }
  reg.Record(span);
}

TraceParent CurrentTraceParent() {
  ThreadContext& ctx = Context();
  return TraceParent{ctx.current, ctx.root};
}

std::string TraceIdHex(uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf, 16);
}

bool ParseTraceId(const std::string& text, uint64_t* id) {
  if (text.size() != 16) return false;
  uint64_t value = 0;
  for (char c : text) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint64_t>(c - 'A') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  if (value == 0) return false;
  *id = value;
  return true;
}

}  // namespace htd::util
