#include "rewrite/compensate.h"

#include "common/logging.h"

namespace xvr {

TreePattern RefinementPattern(const TreePattern& query,
                              TreePattern::NodeIndex q_star) {
  TreePattern out = query.SubtreePattern(q_star);
  out.SetAnswer(out.root());  // boolean use only
  return out;
}

TreePattern ExtractionPattern(const TreePattern& query,
                              TreePattern::NodeIndex q_star) {
  XVR_CHECK(query.IsAncestorOrSelf(q_star, query.answer()))
      << "extraction anchor must dominate the answer node";
  return query.SubtreePattern(q_star);
}

bool IsIdentityRefinement(const TreePattern& refinement) {
  return refinement.size() == 1 &&
         !refinement.node(refinement.root()).value_pred.has_value();
}

PlanCompensation BuildPlanCompensation(const TreePattern& query,
                                       const SelectionResult& selection) {
  PlanCompensation comp;
  comp.views.reserve(selection.views.size());
  for (const SelectedView& sel : selection.views) {
    ViewCompensation vc;
    vc.refinement = RefinementPattern(query, sel.cover.mapped_answer);
    vc.anchor_path = PathTo(query, sel.cover.mapped_answer);
    vc.identity_refinement = IsIdentityRefinement(vc.refinement);
    comp.views.push_back(std::move(vc));
  }
  const int primary = selection.PrimaryIndex();
  if (primary >= 0) {
    comp.extraction = ExtractionPattern(
        query, selection.views[static_cast<size_t>(primary)].cover.mapped_answer);
    comp.has_extraction = true;
  }
  return comp;
}

}  // namespace xvr
