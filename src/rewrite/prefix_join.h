#ifndef XVR_REWRITE_PREFIX_JOIN_H_
#define XVR_REWRITE_PREFIX_JOIN_H_

// Matching a root path pattern against a concrete label path (decoded from
// an extended Dewey code by the FST) — the "verify encodings" primitive of
// the holistic fragment join (paper §V, Example 5.1).
//
// An assignment maps every step of the path pattern to a position (depth)
// in the label path, monotonically: /-edges advance exactly one position,
// //-edges at least one, labels must agree (wildcards match anything), and
// the LAST pattern step is pinned to the LAST position (the fragment root
// is the image of the pattern's end). The root anchor follows the pattern:
// a kChild first step must sit at position 0.

#include <span>
#include <vector>

#include "pattern/path_pattern.h"
#include "xml/label_dict.h"

namespace xvr {

// One assignment: positions[i] is the depth of pattern step i in the label
// path; strictly increasing; positions.back() == path.size() - 1.
using PathAssignment = std::vector<int>;

// All assignments of one (pattern, labels) match, flattened into a single
// buffer of fixed-width rows (width = number of pattern steps). The serving
// path reuses one AssignmentSet across fragments, so enumerating
// assignments allocates nothing once the buffer has grown to the workload's
// high-water mark.
class AssignmentSet {
 public:
  void Reset(size_t width) {
    width_ = width;
    positions_.clear();
  }
  size_t width() const { return width_; }
  bool empty() const { return positions_.empty(); }
  size_t size() const { return width_ == 0 ? 0 : positions_.size() / width_; }
  std::span<const int> operator[](size_t i) const {
    return {positions_.data() + i * width_, width_};
  }
  void Append(const PathAssignment& a) {
    positions_.insert(positions_.end(), a.begin(), a.end());
  }
  // Recursion working buffer of the enumerator (kept here so repeated
  // matches reuse its capacity too).
  PathAssignment* mutable_scratch() { return &scratch_; }

 private:
  std::vector<int> positions_;
  PathAssignment scratch_;
  size_t width_ = 0;
};

// All assignments of `pattern` onto `labels`, capped at `max_assignments`
// (0 = unlimited), into `out` (Reset to the pattern's step count; its
// buffers keep their capacity across calls). An empty result means the
// label path does not match.
void MatchPathOnLabels(const PathPattern& pattern,
                       const std::vector<LabelId>& labels,
                       size_t max_assignments, AssignmentSet* out);

// Quick boolean form.
[[nodiscard]] bool PathMatchesLabels(const PathPattern& pattern,
                       const std::vector<LabelId>& labels);

}  // namespace xvr

#endif  // XVR_REWRITE_PREFIX_JOIN_H_
