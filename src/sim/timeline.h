// Timeline recording and breakdown reports.
//
// Every executor (COMET and all baselines) emits labelled intervals into a
// Timeline. The benches derive the paper's plots from it: per-category busy
// time (Figure 11's breakdown), overlapped communication fraction (the
// "Comet hides 86.5% of communication latency" claim), and end-to-end spans.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace comet {

// Work categories matching the paper's Figure 11 legend.
enum class OpCategory {
  kGating,
  kLayer0Comm,
  kLayer0Comp,
  kActivation,
  kLayer1Comp,
  kLayer1Comm,
  kHost,       // host-side kernel launch / framework overhead
  kAttention,  // non-MoE layers in end-to-end runs
  kOther,
};

std::string OpCategoryName(OpCategory category);
bool IsCommCategory(OpCategory category);
bool IsCompCategory(OpCategory category);

// Returns a NUL-terminated copy of `label` that lives as long as the
// process; equal labels share one copy. Thread-safe. For labels composed at
// run time: Timeline::Add stores its label by pointer.
const char* InternLabel(std::string_view label);

// One labelled interval. The label is held as the pointer Timeline::Add
// was given (a string literal or an InternLabel copy) and read as text
// through label(), so comparing labels compares characters, never pointers.
class TimeInterval {
 public:
  TimeInterval(const char* label, OpCategory category, int lane,
               double start_us, double end_us)
      : category(category),
        lane(lane),
        start_us(start_us),
        end_us(end_us),
        label_(label) {}

  std::string_view label() const { return label_; }
  double Duration() const { return end_us - start_us; }

  OpCategory category;
  int lane;  // visual/logical lane, e.g. stream id or block-group id
  double start_us;
  double end_us;

 private:
  const char* label_;
};
// At 32 bytes the tile-8 layer0 timeline stays under glibc's 32 MiB mmap cap.
static_assert(sizeof(TimeInterval) <= 32, "TimeInterval must fit 32 bytes");

class Timeline {
 public:
  // `label` must outlive the timeline: a string literal, or InternLabel's
  // copy of a composed label.
  void Add(const char* label, OpCategory category, int lane, double start_us,
           double end_us);

  // Appends all intervals of `other`, shifted by `offset_us`.
  void Merge(const Timeline& other, double offset_us = 0.0);

  // Forgets every interval but keeps capacity: the executors rebuild their
  // timeline into the same storage every iteration (labels are static, so
  // refilling within capacity is allocation-free).
  void Clear() { intervals_.clear(); }

  // Makes room for `n` intervals in all, growing like push_back would (at
  // least doubling), so a writer that knows its count reallocates at most
  // once.
  void Reserve(size_t n);

  const std::vector<TimeInterval>& intervals() const { return intervals_; }
  bool empty() const { return intervals_.empty(); }

  // Sum of durations of intervals in `category` (may double-count parallel
  // lanes; use UnionTime for wall-clock questions).
  double CategoryBusy(OpCategory category) const;

  // Length of the union of intervals in `category` (wall-clock time during
  // which at least one such interval is active).
  double UnionTime(OpCategory category) const;

  // Wall-clock time during which at least one comm interval AND at least one
  // comp interval are simultaneously active: the overlapped communication.
  double CommCompOverlap() const;

  // Fraction of communication wall-clock hidden behind computation:
  // overlap / union(comm). Returns 0 when there is no communication.
  double HiddenCommFraction() const;

  // Compact textual report of per-category busy times, the span (earliest
  // start to latest end) and the hidden comm fraction.
  std::string BreakdownString() const;

 private:
  std::vector<TimeInterval> intervals_;
};

}  // namespace comet
