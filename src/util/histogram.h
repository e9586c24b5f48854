#ifndef DPSTORE_UTIL_HISTOGRAM_H_
#define DPSTORE_UTIL_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace dpstore {

/// Counting histogram over discrete 64-bit event identifiers.
///
/// The empirical-privacy harness builds one histogram per query sequence and
/// compares event probabilities across the pair; ordered iteration (std::map)
/// keeps reports deterministic.
class EventHistogram {
 public:
  void Add(uint64_t event, uint64_t count = 1);

  uint64_t Count(uint64_t event) const;
  uint64_t total() const { return total_; }
  size_t distinct() const { return counts_.size(); }

  /// Empirical probability of `event`; 0 if the histogram is empty.
  double Probability(uint64_t event) const;

  /// All events with non-zero count, ascending.
  std::vector<uint64_t> Events() const;

  /// Union of events present in either histogram, ascending.
  static std::vector<uint64_t> UnionEvents(const EventHistogram& a,
                                           const EventHistogram& b);

  void Merge(const EventHistogram& other);
  void Clear();

 private:
  std::map<uint64_t, uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace dpstore

#endif  // DPSTORE_UTIL_HISTOGRAM_H_
