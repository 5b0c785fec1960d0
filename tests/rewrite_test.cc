#include <gtest/gtest.h>

#include "pattern/evaluate.h"
#include "pattern/xpath_parser.h"
#include "rewrite/prefix_join.h"
#include "rewrite/rewriter.h"
#include "rewrite/skeleton.h"
#include "selection/minimum_selector.h"
#include "storage/materializer.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

// ---------------------------------------------------------------------------
// Path-on-labels matching (the encoding verification primitive).

class PrefixJoinTest : public ::testing::Test {
 protected:
  std::vector<LabelId> Labels(const std::string& names) {
    std::vector<LabelId> out;
    for (char c : names) {
      out.push_back(dict_.Intern(std::string(1, c)));
    }
    return out;
  }
  PathPattern Path(const std::string& xpath) {
    auto r = ParseXPath(xpath, &dict_);
    EXPECT_TRUE(r.ok()) << r.status();
    const Decomposition d = Decompose(*r);
    EXPECT_EQ(d.paths.size(), 1u);
    return d.paths[0];
  }
  AssignmentSet Match(const std::string& xpath, const std::string& labels,
                      size_t max_assignments = 256) {
    AssignmentSet out;
    MatchPathOnLabels(Path(xpath), Labels(labels), max_assignments, &out);
    return out;
  }
  LabelDict dict_;
};

TEST_F(PrefixJoinTest, ExactChildPath) {
  EXPECT_TRUE(PathMatchesLabels(Path("/a/b/c"), Labels("abc")));
  EXPECT_FALSE(PathMatchesLabels(Path("/a/b/c"), Labels("abd")));
  EXPECT_FALSE(PathMatchesLabels(Path("/a/b/c"), Labels("ab")));
  // The last pattern step must be the LAST label.
  EXPECT_FALSE(PathMatchesLabels(Path("/a/b"), Labels("abc")));
}

TEST_F(PrefixJoinTest, DescendantSkips) {
  EXPECT_TRUE(PathMatchesLabels(Path("/a//c"), Labels("abc")));
  EXPECT_TRUE(PathMatchesLabels(Path("/a//c"), Labels("abbc")));
  // // means proper descendant: one edge suffices.
  EXPECT_TRUE(PathMatchesLabels(Path("/a//c"), Labels("ac")));
  EXPECT_FALSE(PathMatchesLabels(Path("/a//c"), Labels("cc")));
  EXPECT_TRUE(PathMatchesLabels(Path("//c"), Labels("abc")));
  EXPECT_TRUE(PathMatchesLabels(Path("//a"), Labels("a")));
}

TEST_F(PrefixJoinTest, RootAnchor) {
  EXPECT_FALSE(PathMatchesLabels(Path("/b/c"), Labels("abc")));
  EXPECT_TRUE(PathMatchesLabels(Path("//b/c"), Labels("abc")));
}

TEST_F(PrefixJoinTest, Wildcards) {
  EXPECT_TRUE(PathMatchesLabels(Path("/a/*/c"), Labels("abc")));
  EXPECT_TRUE(PathMatchesLabels(Path("/a/*/c"), Labels("axc")));
  EXPECT_FALSE(PathMatchesLabels(Path("/a/*/c"), Labels("ac")));
}

TEST_F(PrefixJoinTest, EnumeratesAllAssignments) {
  // The last step is pinned to the last position (the fragment root), so
  // //b on a.b.b has exactly one assignment (b at depth 2).
  const AssignmentSet single = Match("//b", "abb");
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].back(), 2);
  // a//b//b on a.b.b.b: the middle b can sit at depth 1 or 2.
  EXPECT_EQ(Match("/a//b//b", "abbb").size(), 2u);
}

TEST_F(PrefixJoinTest, AssignmentCap) {
  // a//b//b on a.b.b.b.b: middle b at depth 1, 2 or 3; cap at 2.
  EXPECT_EQ(Match("/a//b//b", "abbbb").size(), 3u);
  EXPECT_EQ(Match("/a//b//b", "abbbb", 2).size(), 2u);
}

// ---------------------------------------------------------------------------
// Full rewriting on a document small enough to reason about by hand.

class RewriteTest : public ::testing::Test {
 protected:
  void Load(const std::string& xml) {
    auto r = ParseXml(xml);
    ASSERT_TRUE(r.ok()) << r.status();
    tree_ = std::move(r).value();
    tree_.AssignDeweyCodes();
  }
  TreePattern Parse(const std::string& xpath) {
    auto r = ParseXPath(xpath, &tree_.labels());
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
  // Materializes the views (with materialize_), selects a minimum set,
  // rewrites, and returns the result codes.
  Result<std::vector<DeweyCode>> Answer(
      const std::string& query_xpath,
      const std::vector<std::string>& view_xpaths,
      RewriteStats* stats = nullptr, const RewriteOptions& options = {}) {
    views_.clear();
    store_ = FragmentStore();
    for (size_t i = 0; i < view_xpaths.size(); ++i) {
      views_.push_back(Parse(view_xpaths[i]));
      auto frags = MaterializeView(views_.back(), tree_, materialize_);
      if (!frags.ok()) {
        return frags.status();
      }
      XVR_RETURN_IF_ERROR(store_.PutView(
          static_cast<int32_t>(i), std::move(frags).value(), *tree_.fst()));
    }
    const TreePattern query = Parse(query_xpath);
    std::vector<int32_t> ids;
    for (size_t i = 0; i < views_.size(); ++i) {
      ids.push_back(static_cast<int32_t>(i));
    }
    SelectionResult selection;
    XVR_ASSIGN_OR_RETURN(
        selection,
        SelectMinimum(query, ids, [this](int32_t id) {
          return &views_[static_cast<size_t>(id)];
        }));
    return AnswerWithViews(query, selection, store_, stats, options);
  }
  // Ground truth via direct evaluation.
  std::vector<DeweyCode> Direct(const std::string& query_xpath) {
    std::vector<DeweyCode> codes;
    for (NodeId n : EvaluatePattern(Parse(query_xpath), tree_)) {
      codes.push_back(tree_.dewey(n));
    }
    std::sort(codes.begin(), codes.end());
    return codes;
  }

  XmlTree tree_;
  std::vector<TreePattern> views_;
  FragmentStore store_;
  MaterializeOptions materialize_;
};

TEST_F(RewriteTest, SingleEquivalentView) {
  Load("<a><b><c/><d/></b><b><d/></b></a>");
  auto result = Answer("/a/b[c]/d", {"/a/b[c]/d"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/a/b[c]/d"));
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(RewriteTest, SingleMoreGeneralViewWithCompensation) {
  Load("<a><b><c/><d/></b><b><d/></b></a>");
  // View //b materializes both b subtrees; the compensating query checks
  // [c] and extracts d.
  auto result = Answer("/a/b[c]/d", {"//b"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/a/b[c]/d"));
}

TEST_F(RewriteTest, AnchorPathCheckedOnCodes) {
  // View //d materializes d's everywhere; only those under a/b qualify.
  Load("<a><b><d/></b><x><d/></x></a>");
  RewriteStats stats;
  auto result = Answer("/a/b/d", {"//d"}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/a/b/d"));
  EXPECT_EQ(result->size(), 1u);
  EXPECT_EQ(stats.fragments_scanned, 2u);
  EXPECT_EQ(stats.fragments_after_refinement, 1u);
}

TEST_F(RewriteTest, TwoViewJoinOnSharedParent) {
  // Example 4.2-style: the join must pair fragments under the SAME parent.
  Load(
      "<r>"
      "<s><p/><f/></s>"    // s1: has both -> its p is an answer
      "<s><p/></s>"        // s2: p but no f
      "<s><f/></s>"        // s3: f but no p
      "</r>");
  auto result = Answer("/r/s[f]/p", {"/r/s/p", "/r/s/f"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/r/s[f]/p"));
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(RewriteTest, PaperExample51) {
  // Views V1: s[t]/p, V2: s[p]/f answering Q: s[f//i][t]/p on a book-like
  // tree (nested s's).
  Load(
      "<b>"
      "<s><t/><f><i/></f><p/></s>"
      "<s><t/><p/><s><t/><p/><f><i/></f></s></s>"
      "</b>");
  auto result = Answer("//s[f//i][t]/p", {"//s[t]/p", "//s[p]/f"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("//s[f//i][t]/p"));
  EXPECT_EQ(result->size(), 2u);
}

TEST_F(RewriteTest, ThreeViewJoin) {
  Load(
      "<r>"
      "<e><x/><y/><z/></e>"  // all three -> answer
      "<e><x/><y/></e>"      // no z
      "<e><y/><z/></e>"      // no x
      "</r>");
  auto result = Answer("/r/e[x][z]/y", {"/r/e/x", "/r/e/y", "/r/e/z"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/r/e[x][z]/y"));
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(RewriteTest, JoinUnderDescendantAxisWithRepeatedLabels) {
  // Nested s's: anchors must agree on the exact s node.
  Load(
      "<b>"
      "<s><p/><s><f/><p/></s></s>"
      "<s><f/></s>"
      "</b>");
  auto result = Answer("//s[f]/p", {"//s/p", "//s/f"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("//s[f]/p"));
}

TEST_F(RewriteTest, EmptyWhenSomeViewHasNoUsableFragment) {
  // The //f view has fragments, but none sits on the query's anchor path,
  // so the rewrite result is empty (matching direct evaluation).
  Load("<r><s><p/></s><x><f><g/></f></x></r>");
  auto result = Answer("/r/s[f/g]/p", {"/r/s/p", "//f"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(*result, Direct("/r/s[f/g]/p"));
}

TEST_F(RewriteTest, ExtractionDescendsIntoFragments) {
  Load("<a><b><c><d/></c></b><b><c/></b></a>");
  // View materializes b subtrees; query answer is d, deep inside.
  auto result = Answer("/a/b/c/d", {"/a/b"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/a/b/c/d"));
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(RewriteTest, ValuePredicateInsideFragment) {
  Load("<a><b k=\"1\"><d/></b><b k=\"2\"><d/></b></a>");
  auto result = Answer("/a/b[@k = 2]/d", {"/a/b[@k = 2]/d"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/a/b[@k = 2]/d"));
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(RewriteTest, OverlappingFragmentsDeduplicated) {
  // //s fragments nest (s inside s); answers must not duplicate.
  Load("<b><s><s><p/></s></s></b>");
  auto result = Answer("//s/p", {"//s"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("//s/p"));
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(RewriteTest, StatsReported) {
  Load("<r><s><p/><f/></s><s><p/></s></r>");
  RewriteStats stats;
  auto result = Answer("/r/s[f]/p", {"/r/s/p", "/r/s/f"}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(stats.fragments_scanned, 3u);  // 2 p's + 1 f
  EXPECT_GE(stats.fragments_after_refinement, 2u);
  EXPECT_EQ(stats.join_survivors, 1u);
}

// --- root-label-path grouping and refinement elision ----------------------
//
// The anchor path is matched once per distinct root label path of a view's
// fragments; a refinement that is the anchor alone with no value predicate
// is implied by that match and skips the anchored walk. These pin the
// exact counters: grouping must not change what is scanned, kept or joined.

TEST_F(RewriteTest, GroupsSpanSeveralRootPathsOneFailingTheAnchor) {
  // //d fragments sit under three root label paths: r.a.d (three of
  // them), r.b.d and r.c.x.d. /r/*/d matches the first two only.
  Load("<r><a><d/><d/></a><b><d/></b><c><x><d/></x></c><a><d/></a></r>");
  RewriteStats stats;
  auto result = Answer("/r/*/d", {"//d"}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/r/*/d"));
  EXPECT_EQ(result->size(), 4u);
  const StoredView* stored = store_.GetStoredView(0);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->root_paths.size(), 3u);
  EXPECT_EQ(stored->group_of,
            (std::vector<uint32_t>{0, 0, 1, 2, 0}));
  EXPECT_EQ(stats.fragments_scanned, 5u);  // skipped groups still count
  EXPECT_EQ(stats.fragments_after_refinement, 4u);
  EXPECT_EQ(stats.join_survivors, 4u);
}

TEST_F(RewriteTest, ValuePredicateOnTheAnchorIsNotElided) {
  // The refinement is the anchor alone, but it carries @k = 1: every d
  // passes the anchor path, only two pass the predicate.
  Load("<r><a><d k=\"1\"/><d k=\"2\"/></a><b><d k=\"1\"/></b>"
       "<a><d/></a></r>");
  RewriteStats stats;
  auto result = Answer("/r/*/d[@k = 1]", {"//d"}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/r/*/d[@k = 1]"));
  EXPECT_EQ(result->size(), 2u);
  EXPECT_EQ(stats.fragments_scanned, 4u);
  EXPECT_EQ(stats.fragments_after_refinement, 2u);
  EXPECT_EQ(stats.join_survivors, 2u);
}

TEST_F(RewriteTest, MultiNodeRefinementFailsInsideSomeFragments) {
  // All a's share one root label path; the refinement a[x/y] holds in the
  // first and last only.
  Load("<r><a><x><y/></x></a><a><x/></a><a><y/></a><a><x><y/></x></a>"
       "<b><a><x><y/></x></a></b></r>");
  RewriteStats stats;
  auto result = Answer("/r/a[x/y]", {"//a"}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/r/a[x/y]"));
  EXPECT_EQ(result->size(), 2u);
  EXPECT_EQ(stats.fragments_scanned, 5u);
  EXPECT_EQ(stats.fragments_after_refinement, 2u);
  EXPECT_EQ(stats.join_survivors, 2u);
}

TEST_F(RewriteTest, CodesOnlyViewsJoinOnGroupRows) {
  // §VII partial materialization: fragments are their root node alone, so
  // only a childless anchor (identity refinement) can use them.
  Load("<r><s><p/><f/></s><s><p/></s><s><f/></s><t><s><p/><f/></s></t></r>");
  materialize_.codes_only = true;
  RewriteStats stats;
  auto result = Answer("/r/s[f]/p", {"//s/p", "//s/f"}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/r/s[f]/p"));
  EXPECT_EQ(result->size(), 1u);
  EXPECT_EQ(stats.fragments_scanned, 6u);  // 3 p's + 3 f's
  EXPECT_EQ(stats.fragments_after_refinement, 4u);  // not those under t
  EXPECT_EQ(stats.join_survivors, 1u);
}

TEST_F(RewriteTest, AssignmentCapAppliesPerGroup) {
  // Both c's share the root label path a.b.b.c, on which /a//b//c has two
  // assignments (b at depth 1 or 2); x's path a.b.b.x pins b to depth 2.
  // The join needs b at depth 2, which the depth-first enumeration reaches
  // second — a cap of one assignment loses it for the whole group.
  Load("<a><b><b><x/><c/><c/></b></b></a>");
  const std::string query = "/a//b[x]//c";
  const std::vector<std::string> views = {"//c", "//b/x"};
  RewriteStats stats;
  auto uncapped = Answer(query, views, &stats);
  ASSERT_TRUE(uncapped.ok()) << uncapped.status();
  EXPECT_EQ(*uncapped, Direct(query));
  EXPECT_EQ(uncapped->size(), 2u);
  EXPECT_EQ(stats.fragments_scanned, 3u);
  EXPECT_EQ(stats.fragments_after_refinement, 3u);
  EXPECT_EQ(stats.join_survivors, 2u);

  RewriteOptions capped;
  capped.max_assignments_per_fragment = 1;
  auto lossy = Answer(query, views, &stats, capped);
  ASSERT_TRUE(lossy.ok()) << lossy.status();
  EXPECT_TRUE(lossy->empty());
  EXPECT_EQ(stats.fragments_scanned, 3u);
  EXPECT_EQ(stats.fragments_after_refinement, 3u);
  EXPECT_EQ(stats.join_survivors, 0u);
}

TEST_F(RewriteTest, SkeletonConstruction) {
  Load("<r><s><p/><f/></s></r>");
  const TreePattern q = Parse("/r/s[f]/p");
  std::vector<TreePattern> views = {Parse("/r/s/p"), Parse("/r/s/f")};
  std::vector<int32_t> ids = {0, 1};
  auto selection = SelectMinimum(q, ids, [&](int32_t id) {
    return &views[static_cast<size_t>(id)];
  });
  ASSERT_TRUE(selection.ok()) << selection.status();
  const Skeleton skeleton = BuildSkeleton(q, selection->views);
  ASSERT_EQ(skeleton.view_paths.size(), 2u);
  // r and s lie on both anchor paths.
  EXPECT_EQ(skeleton.shared.size(), 2u);
  EXPECT_GE(skeleton.nodes.size(), 3u);
}

}  // namespace
}  // namespace xvr
