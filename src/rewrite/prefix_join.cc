#include "rewrite/prefix_join.h"

namespace xvr {
namespace {

bool StepMatches(const PathStep& step, LabelId label) {
  return step.label == kWildcardLabel || step.label == label;
}

// Enumerates assignments depth-first, appending each complete one to `out`
// until it holds `cap` rows (0 = unlimited).
void Recurse(const std::vector<PathStep>& steps,
             const std::vector<LabelId>& labels, size_t step_index,
             int min_pos, size_t cap, PathAssignment* current,
             AssignmentSet* out) {
  if (cap > 0 && out->size() >= cap) {
    return;
  }
  const size_t remaining = steps.size() - step_index;
  // Each remaining step needs one position; the last must land on the end.
  for (int pos = min_pos;
       pos + static_cast<int>(remaining) <= static_cast<int>(labels.size());
       ++pos) {
    if (!StepMatches(steps[step_index], labels[static_cast<size_t>(pos)])) {
      if (steps[step_index].axis == Axis::kChild) {
        return;  // the exact required position failed
      }
      continue;
    }
    if (step_index + 1 == steps.size()) {
      // Last step must be the final position.
      if (pos == static_cast<int>(labels.size()) - 1) {
        current->push_back(pos);
        out->Append(*current);
        current->pop_back();
      }
      if (steps[step_index].axis == Axis::kChild) {
        return;
      }
      continue;
    }
    current->push_back(pos);
    // A child-axis next step is pinned to pos + 1 (enforced by the callee's
    // early returns); a descendant-axis next step ranges over >= pos + 1.
    Recurse(steps, labels, step_index + 1, pos + 1, cap, current, out);
    current->pop_back();
    if (steps[step_index].axis == Axis::kChild) {
      return;  // this step's position was pinned; no other choice
    }
  }
}

}  // namespace

void MatchPathOnLabels(const PathPattern& pattern,
                       const std::vector<LabelId>& labels,
                       size_t max_assignments, AssignmentSet* out) {
  out->Reset(pattern.steps().size());
  if (pattern.empty() || labels.empty()) {
    return;
  }
  PathAssignment* current = out->mutable_scratch();
  current->clear();
  // The first step: position 0 when anchored with '/', any when '//' — the
  // recursion starts with min_pos 0 and the kChild early-return enforces
  // pinning.
  Recurse(pattern.steps(), labels, 0, 0, max_assignments, current, out);
}

namespace {

// Allocation-free existence check used by the hot index paths.
bool Exists(const std::vector<PathStep>& steps,
            const std::vector<LabelId>& labels, size_t step_index,
            int min_pos) {
  const size_t remaining = steps.size() - step_index;
  for (int pos = min_pos;
       pos + static_cast<int>(remaining) <= static_cast<int>(labels.size());
       ++pos) {
    if (!StepMatches(steps[step_index], labels[static_cast<size_t>(pos)])) {
      if (steps[step_index].axis == Axis::kChild) {
        return false;
      }
      continue;
    }
    if (step_index + 1 == steps.size()) {
      if (pos == static_cast<int>(labels.size()) - 1) {
        return true;
      }
    } else if (Exists(steps, labels, step_index + 1, pos + 1)) {
      return true;
    }
    if (steps[step_index].axis == Axis::kChild) {
      return false;
    }
  }
  return false;
}

}  // namespace

bool PathMatchesLabels(const PathPattern& pattern,
                       const std::vector<LabelId>& labels) {
  if (pattern.empty() || labels.empty()) {
    return false;
  }
  return Exists(pattern.steps(), labels, 0, 0);
}

}  // namespace xvr
