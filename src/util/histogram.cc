#include "util/histogram.h"

#include <algorithm>
#include <iterator>

namespace dpstore {

void EventHistogram::Add(uint64_t event, uint64_t count) {
  counts_[event] += count;
  total_ += count;
}

uint64_t EventHistogram::Count(uint64_t event) const {
  auto it = counts_.find(event);
  return it == counts_.end() ? 0 : it->second;
}

double EventHistogram::Probability(uint64_t event) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(Count(event)) / static_cast<double>(total_);
}

std::vector<uint64_t> EventHistogram::Events() const {
  std::vector<uint64_t> out;
  out.reserve(counts_.size());
  for (const auto& [event, count] : counts_) out.push_back(event);
  return out;
}

std::vector<uint64_t> EventHistogram::UnionEvents(const EventHistogram& a,
                                                  const EventHistogram& b) {
  std::vector<uint64_t> ea = a.Events();
  std::vector<uint64_t> eb = b.Events();
  std::vector<uint64_t> out;
  out.reserve(ea.size() + eb.size());
  std::set_union(ea.begin(), ea.end(), eb.begin(), eb.end(),
                 std::back_inserter(out));
  return out;
}

void EventHistogram::Merge(const EventHistogram& other) {
  for (const auto& [event, count] : other.counts_) Add(event, count);
}

void EventHistogram::Clear() {
  counts_.clear();
  total_ = 0;
}

}  // namespace dpstore
