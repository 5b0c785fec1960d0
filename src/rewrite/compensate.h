#ifndef XVR_REWRITE_COMPENSATE_H_
#define XVR_REWRITE_COMPENSATE_H_

// Compensating patterns (paper §V).
//
// For a selected view V with homomorphism h and anchor q* = h(RET(V)):
//  * the refinement pattern is the subtree of Q rooted at q*, evaluated as a
//    boolean anchored pattern on every fragment of V ("pushing selection":
//    fragments that do not satisfy the query's predicates below q* are
//    dropped before the join);
//  * for the primary view (the one covering Δ), the extraction pattern is
//    the same subtree with RET(Q) preserved as the answer node; it pulls the
//    final result out of the joined fragments.

#include <vector>

#include "pattern/path_pattern.h"
#include "pattern/tree_pattern.h"
#include "selection/answerability.h"

namespace xvr {

// Boolean compensating predicate anchored at q_star.
TreePattern RefinementPattern(const TreePattern& query,
                              TreePattern::NodeIndex q_star);

// Extraction pattern: q_star must be an ancestor-or-self of RET(query).
TreePattern ExtractionPattern(const TreePattern& query,
                              TreePattern::NodeIndex q_star);

// True when `refinement` is the anchor node alone with no value predicate.
// Such a refinement holds on every fragment whose root label path matches
// the anchor path: the path's last step is the anchor's label, pinned to
// the root's decoded label, which the fragment store guarantees equals the
// stored root label. The rewriter then skips the anchored walk.
bool IsIdentityRefinement(const TreePattern& refinement);

// The compensating artifacts of one selected view, hoisted out of the
// rewrite loop: the boolean refinement anchored at the view's q*, the
// root->q* anchor path the fragment codes are verified against, and
// whether the refinement is the identity (IsIdentityRefinement).
struct ViewCompensation {
  TreePattern refinement;
  PathPattern anchor_path;
  bool identity_refinement = false;
};

// Everything the rewrite derives from (query, selection) alone — built once
// at plan time so plan-cache hits execute with zero pattern construction.
// `views` is positionally parallel to SelectionResult::views; `extraction`
// is the primary view's extraction pattern (valid when has_extraction, i.e.
// the selection has a view covering the answer node).
struct PlanCompensation {
  std::vector<ViewCompensation> views;
  TreePattern extraction;
  bool has_extraction = false;
};

// Derives the full compensation for `selection` against `query`. The cover
// node indices inside `selection` must refer to `query`.
PlanCompensation BuildPlanCompensation(const TreePattern& query,
                                       const SelectionResult& selection);

}  // namespace xvr

#endif  // XVR_REWRITE_COMPENSATE_H_
