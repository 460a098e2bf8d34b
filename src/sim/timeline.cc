#include "sim/timeline.h"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <unordered_set>

#include "util/check.h"
#include "util/table.h"

namespace comet {

std::string OpCategoryName(OpCategory category) {
  switch (category) {
    case OpCategory::kGating:
      return "gating";
    case OpCategory::kLayer0Comm:
      return "layer0-comm";
    case OpCategory::kLayer0Comp:
      return "layer0-comp";
    case OpCategory::kActivation:
      return "activation";
    case OpCategory::kLayer1Comp:
      return "layer1-comp";
    case OpCategory::kLayer1Comm:
      return "layer1-comm";
    case OpCategory::kHost:
      return "host";
    case OpCategory::kAttention:
      return "attention";
    case OpCategory::kOther:
      return "other";
  }
  COMET_CHECK(false) << "unknown category";
  return "";
}

bool IsCommCategory(OpCategory category) {
  return category == OpCategory::kLayer0Comm ||
         category == OpCategory::kLayer1Comm;
}

bool IsCompCategory(OpCategory category) {
  return category == OpCategory::kLayer0Comp ||
         category == OpCategory::kLayer1Comp ||
         category == OpCategory::kActivation ||
         category == OpCategory::kGating;
}

const char* InternLabel(std::string_view label) {
  static std::mutex mu;
  // Node-based: an element's characters never move once inserted.
  static std::unordered_set<std::string> labels;
  std::lock_guard<std::mutex> lock(mu);
  return labels.emplace(label).first->c_str();
}

void Timeline::Add(const char* label, OpCategory category, int lane,
                   double start_us, double end_us) {
  COMET_CHECK_LE(start_us, end_us)
      << "interval '" << label << "' ends before it starts";
  intervals_.push_back(TimeInterval{label, category, lane, start_us, end_us});
}

void Timeline::Reserve(size_t n) {
  if (n > intervals_.capacity()) {
    intervals_.reserve(std::max(n, 2 * intervals_.capacity()));
  }
}

void Timeline::Merge(const Timeline& other, double offset_us) {
  for (TimeInterval iv : other.intervals_) {
    iv.start_us += offset_us;
    iv.end_us += offset_us;
    COMET_CHECK_LE(iv.start_us, iv.end_us)
        << "interval '" << iv.label() << "' ends before it starts";
    intervals_.push_back(iv);
  }
}

double Timeline::CategoryBusy(OpCategory category) const {
  double total = 0.0;
  for (const auto& iv : intervals_) {
    if (iv.category == category) {
      total += iv.Duration();
    }
  }
  return total;
}

namespace {

// Union length of a set of [start, end) intervals.
double UnionLength(std::vector<std::pair<double, double>> spans) {
  if (spans.empty()) {
    return 0.0;
  }
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  double cur_start = spans[0].first;
  double cur_end = spans[0].second;
  for (size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].first > cur_end) {
      total += cur_end - cur_start;
      cur_start = spans[i].first;
      cur_end = spans[i].second;
    } else {
      cur_end = std::max(cur_end, spans[i].second);
    }
  }
  total += cur_end - cur_start;
  return total;
}

// Intersection length of the unions of two interval sets: total time both
// a-intervals and b-intervals are active.
double IntersectLength(std::vector<std::pair<double, double>> a,
                       std::vector<std::pair<double, double>> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  // Merge each set into disjoint unions first.
  auto merge = [](std::vector<std::pair<double, double>>& v) {
    std::vector<std::pair<double, double>> out;
    for (const auto& s : v) {
      if (!out.empty() && s.first <= out.back().second) {
        out.back().second = std::max(out.back().second, s.second);
      } else {
        out.push_back(s);
      }
    }
    v = std::move(out);
  };
  merge(a);
  merge(b);
  double total = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (lo < hi) {
      total += hi - lo;
    }
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

}  // namespace

double Timeline::UnionTime(OpCategory category) const {
  std::vector<std::pair<double, double>> spans;
  for (const auto& iv : intervals_) {
    if (iv.category == category) {
      spans.emplace_back(iv.start_us, iv.end_us);
    }
  }
  return UnionLength(std::move(spans));
}

double Timeline::CommCompOverlap() const {
  std::vector<std::pair<double, double>> comm;
  std::vector<std::pair<double, double>> comp;
  for (const auto& iv : intervals_) {
    if (IsCommCategory(iv.category)) {
      comm.emplace_back(iv.start_us, iv.end_us);
    } else if (IsCompCategory(iv.category)) {
      comp.emplace_back(iv.start_us, iv.end_us);
    }
  }
  return IntersectLength(std::move(comm), std::move(comp));
}

double Timeline::HiddenCommFraction() const {
  std::vector<std::pair<double, double>> comm;
  for (const auto& iv : intervals_) {
    if (IsCommCategory(iv.category)) {
      comm.emplace_back(iv.start_us, iv.end_us);
    }
  }
  const double comm_union = UnionLength(comm);
  if (comm_union <= 0.0) {
    return 0.0;
  }
  return CommCompOverlap() / comm_union;
}

std::string Timeline::BreakdownString() const {
  AsciiTable table({"category", "busy (ms)"});
  for (OpCategory c :
       {OpCategory::kGating, OpCategory::kLayer0Comm, OpCategory::kLayer0Comp,
        OpCategory::kActivation, OpCategory::kLayer1Comp,
        OpCategory::kLayer1Comm, OpCategory::kHost, OpCategory::kAttention,
        OpCategory::kOther}) {
    const double busy = CategoryBusy(c);
    if (busy > 0.0) {
      table.AddRow({OpCategoryName(c), FormatUsAsMs(busy)});
    }
  }
  double start = intervals_.empty() ? 0.0 : intervals_.front().start_us;
  double end = 0.0;
  for (const auto& iv : intervals_) {
    start = std::min(start, iv.start_us);
    end = std::max(end, iv.end_us);
  }
  std::ostringstream os;
  os << table.Render();
  os << "span: " << FormatUsAsMs(end - start) << " ms, hidden comm: "
     << FormatPercent(HiddenCommFraction()) << "\n";
  return os.str();
}

}  // namespace comet
