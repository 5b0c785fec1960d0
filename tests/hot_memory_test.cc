// Differential and compatibility tests for the hot-path memory
// architecture:
//
//   - flat-fragment layer: the anchored walks (epoched memo, preorder
//     subtree scans, one scratch shared across fragments) against
//     EvaluatePattern — the semantics ground truth — run on the fragment
//     re-parsed as a document, over randomized documents and generated
//     patterns; CSR/subtree_end/preorder structural invariants;
//   - serde: v2 round-trips byte-for-byte; v1 images, non-preorder node
//     orders, unsorted or duplicate side-table ids, truncated images and
//     damaged markers are all refused;
//   - VFILTER layer: dense label-indexed dispatch against the sparse map
//     on the same automaton, and serde round-trip;
//   - rewrite layer: view-strategy answers against the same engine's
//     base-data (BN) answers, including multi-threaded batches
//     (arena-per-context under TSan), budget failures, and arena reuse
//     across a steady sequential stream.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "pattern/evaluate.h"
#include "pattern/xpath_parser.h"
#include "storage/fragment.h"
#include "vfilter/vfilter.h"
#include "vfilter/vfilter_serde.h"
#include "workload/query_gen.h"
#include "workload/random_doc.h"
#include "workload/xmark.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

// --- flat-fragment structural invariants + differential walks --------------

void CheckTopologyInvariants(const Fragment& frag) {
  const int32_t n = static_cast<int32_t>(frag.size());
  ASSERT_GT(n, 0);
  for (int32_t i = 0; i < n; ++i) {
    const FragmentNode& node = frag.node(i);
    if (i == 0) {
      EXPECT_EQ(node.parent, -1);
    } else {
      // Preorder: every parent precedes its children.
      EXPECT_GE(node.parent, 0);
      EXPECT_LT(node.parent, i);
    }
    // Preorder contiguity: the subtree of i is exactly [i, subtree_end(i)).
    EXPECT_GT(frag.subtree_end(i), i);
    EXPECT_LE(frag.subtree_end(i), n);
    if (i > 0) {
      EXPECT_LE(frag.subtree_end(i), frag.subtree_end(node.parent));
    }
    int32_t prev = i;
    for (int32_t c : frag.children(i)) {
      EXPECT_EQ(frag.node(c).parent, i);
      EXPECT_GT(c, prev) << "children must come in document order";
      prev = c;
    }
  }
}

// The anchored semantics expressed through EvaluatePattern: `frag` re-parsed
// as a stand-alone document (its preorder node indices are the document's
// node ids) and `pattern`, relabelled into that document's dictionary,
// with its root pinned to the document root.
std::vector<int32_t> GroundTruthAnchored(const Fragment& frag,
                                         const TreePattern& pattern,
                                         const LabelDict& dict) {
  auto doc = ParseXml(frag.ToXml(dict));
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (!doc.ok()) {
    return {};
  }
  EXPECT_EQ(doc->size(), frag.size());
  TreePattern anchored = pattern;
  for (TreePattern::NodeIndex n = 0;
       n < static_cast<TreePattern::NodeIndex>(anchored.size()); ++n) {
    PatternNode& node = anchored.mutable_node(n);
    if (node.label != kWildcardLabel) {
      node.label = doc->labels().Intern(dict.Name(node.label));
    }
  }
  anchored.mutable_node(anchored.root()).axis = Axis::kChild;
  std::vector<int32_t> out;
  for (NodeId n : EvaluatePattern(anchored, *doc)) {
    out.push_back(static_cast<int32_t>(n));
  }
  return out;
}

class FlatFragmentRandomTest : public ::testing::TestWithParam<uint64_t> {};

// Checks the anchored walks against EvaluatePattern (GroundTruthAnchored).
// The test keeps its original id so its pass/fail history stays comparable.
TEST_P(FlatFragmentRandomTest, ScratchWalksMatchLegacyWalks) {
  RandomDocOptions doc_options;
  doc_options.seed = GetParam();
  doc_options.num_nodes = 300;
  doc_options.alphabet_size = 3;  // dense label reuse -> deep embeddings
  doc_options.attr_probability = 0.3;
  doc_options.text_probability = 0.2;
  const XmlTree tree = GenerateRandomDoc(doc_options);

  QueryGenOptions gen_options;
  gen_options.max_depth = 3;
  gen_options.prob_wild = 0.3;
  gen_options.prob_desc = 0.3;
  gen_options.num_pred = 2;
  gen_options.prob_attr = 0.2;
  const QueryGenerator generator(tree, gen_options);

  Rng rng(GetParam() * 31 + 1);
  FragmentScratch scratch;  // deliberately shared across every trial
  int matched = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const NodeId root =
        static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(tree.size())));
    const Fragment frag = Fragment::FromTree(tree, root);
    CheckTopologyInvariants(frag);
    for (int q = 0; q < 12; ++q) {
      // Generated patterns rarely share the random fragment's root label;
      // the wildcard-rooted variant also exercises the walks below it.
      TreePattern any_root = generator.Generate(&rng);
      const TreePattern pattern = any_root;
      any_root.mutable_node(any_root.root()).label = kWildcardLabel;
      const TreePattern* const variants[] = {&pattern, &any_root};
      for (const TreePattern* p : variants) {
        const std::vector<int32_t> truth =
            GroundTruthAnchored(frag, *p, tree.labels());
        matched += truth.empty() ? 0 : 1;
        EXPECT_EQ(frag.MatchesAnchored(*p, &scratch), !truth.empty())
            << "seed=" << GetParam() << " trial=" << trial << " q=" << q;
        std::vector<int32_t> flat;
        frag.EvaluateAnchored(*p, &scratch, &flat);
        EXPECT_EQ(flat, truth)
            << "seed=" << GetParam() << " trial=" << trial << " q=" << q;
        // The scratch-free forms run the same walk on a call-local scratch.
        EXPECT_EQ(frag.MatchesAnchored(*p), !truth.empty());
        EXPECT_EQ(frag.EvaluateAnchored(*p), truth);
      }
    }
  }
  EXPECT_GE(matched, 20) << "too few embeddings to exercise the walks";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatFragmentRandomTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- serde: v2 round-trip; v1, non-preorder and unsorted images refused ---

Fragment SampleFragment() {
  RandomDocOptions doc_options;
  doc_options.seed = 99;
  doc_options.num_nodes = 120;
  doc_options.attr_probability = 0.4;
  doc_options.text_probability = 0.4;
  const XmlTree tree = GenerateRandomDoc(doc_options);
  return Fragment::FromTree(tree, tree.root());
}

TEST(FragmentSerdeTest, V2RoundTripsByteForByte) {
  const Fragment frag = SampleFragment();
  const std::string bytes = frag.Serialize();
  // v2 leads with the magic marker.
  uint32_t magic = 0;
  ASSERT_GE(bytes.size(), 4u);
  std::memcpy(&magic, bytes.data(), 4);
  EXPECT_EQ(magic, Fragment::kFlatMagic);

  auto loaded = Fragment::Deserialize(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->Serialize(), bytes) << "v2 must be a fixed point";
  EXPECT_EQ(loaded->root_code(), frag.root_code());
  CheckTopologyInvariants(*loaded);
}

TEST(FragmentSerdeTest, V1ImageIsRefused) {
  // A v1 image is the v2 body without the leading marker.
  const std::string v1 = SampleFragment().Serialize().substr(4);
  auto loaded = Fragment::Deserialize(v1);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("v1"), std::string::npos)
      << loaded.status();
}

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutStr(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

// A hand-built v2 image with root code /1/5. `nodes` are (label, parent,
// dewey component) triples in image order; each `attrs` entry carries one
// attribute a=<value>.
struct ImageSpec {
  std::vector<std::vector<uint32_t>> nodes;
  std::vector<std::pair<uint32_t, std::string>> texts;
  std::vector<std::pair<uint32_t, std::string>> attrs;
};

std::string V2Image(const ImageSpec& spec) {
  std::string bytes;
  PutU32(Fragment::kFlatMagic, &bytes);
  PutU32(2, &bytes);  // root code depth
  PutU32(1, &bytes);
  PutU32(5, &bytes);
  PutU32(static_cast<uint32_t>(spec.nodes.size()), &bytes);
  for (const std::vector<uint32_t>& node : spec.nodes) {
    for (uint32_t field : node) {
      PutU32(field, &bytes);
    }
  }
  PutU32(static_cast<uint32_t>(spec.texts.size()), &bytes);
  for (const auto& [id, text] : spec.texts) {
    PutU32(id, &bytes);
    PutStr(text, &bytes);
  }
  PutU32(static_cast<uint32_t>(spec.attrs.size()), &bytes);
  for (const auto& [id, value] : spec.attrs) {
    PutU32(id, &bytes);
    PutU32(1, &bytes);
    PutStr("a", &bytes);
    PutStr(value, &bytes);
  }
  return bytes;
}

constexpr uint32_t kNoParent = static_cast<uint32_t>(-1);

// Root(10) with children A(11) and B(12); A has child C(13), in preorder:
// root, A, C, B.
ImageSpec PreorderSpec() {
  return ImageSpec{{{10, kNoParent, 1}, {11, 0, 1}, {13, 1, 1}, {12, 0, 2}},
                   {{1, "a"}, {2, "c"}},
                   {{0, "x"}, {3, "y"}}};
}

TEST(FragmentSerdeTest, NonPreorderImageIsRejected) {
  auto preorder = Fragment::Deserialize(V2Image(PreorderSpec()));
  ASSERT_TRUE(preorder.ok()) << preorder.status();
  CheckTopologyInvariants(*preorder);
  EXPECT_EQ(preorder->subtree_end(1), 3);  // A's subtree is {A, C}
  ASSERT_NE(preorder->text(2), nullptr);
  EXPECT_EQ(*preorder->text(2), "c");

  // The same tree breadth-first: parents still precede children, but C
  // (under A) comes after A's sibling B.
  ImageSpec bfs = PreorderSpec();
  bfs.nodes = {{10, kNoParent, 1}, {11, 0, 1}, {12, 0, 2}, {13, 1, 1}};
  auto rejected = Fragment::Deserialize(V2Image(bfs));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kParseError);

  // A parent link that points forward is not preorder either.
  ImageSpec forward = PreorderSpec();
  forward.nodes[1][1] = 2;
  EXPECT_FALSE(Fragment::Deserialize(V2Image(forward)).ok());
}

TEST(FragmentSerdeTest, UnsortedOrDuplicateSideTableIdsAreRejected) {
  ImageSpec texts_unsorted = PreorderSpec();
  texts_unsorted.texts = {{2, "c"}, {1, "a"}};
  ImageSpec texts_duplicate = PreorderSpec();
  texts_duplicate.texts = {{1, "stale"}, {1, "fresh"}};
  ImageSpec attrs_unsorted = PreorderSpec();
  attrs_unsorted.attrs = {{3, "y"}, {0, "x"}};
  ImageSpec attrs_duplicate = PreorderSpec();
  attrs_duplicate.attrs = {{0, "x"}, {0, "y"}};
  for (const ImageSpec& spec :
       {texts_unsorted, texts_duplicate, attrs_unsorted, attrs_duplicate}) {
    auto loaded = Fragment::Deserialize(V2Image(spec));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
}

TEST(FragmentSerdeTest, TruncatedImagesFailCleanly) {
  const std::string full = SampleFragment().Serialize();
  std::vector<std::string> inputs;
  for (size_t len = 0; len < full.size(); ++len) {
    inputs.push_back(full.substr(0, len));
  }
  // A damaged marker reads as an unmarked (v1) image and is refused too.
  for (size_t off = 0; off < 4; ++off) {
    std::string flipped = full;
    flipped[off] = static_cast<char>(flipped[off] ^ 0xFF);
    inputs.push_back(std::move(flipped));
  }
  for (const std::string& input : inputs) {
    EXPECT_FALSE(Fragment::Deserialize(input).ok())
        << "damaged image of length " << input.size() << " must not parse";
  }
}

// --- VFILTER: dense dispatch vs sparse fallback ----------------------------

class DenseNfaTest : public ::testing::Test {
 protected:
  TreePattern Parse(const std::string& xpath) {
    auto r = ParseXPath(xpath, &dict_);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }

  // A view set with one high-fanout NFA state (20 distinct labels under
  // /r — over the default dense threshold of 8) plus wildcard, descendant
  // and branching shapes so dispatch covers every transition kind.
  std::vector<TreePattern> HighFanoutViews() {
    std::vector<TreePattern> views;
    for (int i = 0; i < 20; ++i) {
      views.push_back(Parse("/r/a" + std::to_string(i)));
    }
    views.push_back(Parse("/r/*/a1"));
    views.push_back(Parse("//a2/a3"));
    views.push_back(Parse("/r/a4[a5]/a6"));
    views.push_back(Parse("/r//a7"));
    return views;
  }

  VFilter Build(const std::vector<TreePattern>& views) {
    VFilter filter;
    for (size_t i = 0; i < views.size(); ++i) {
      filter.AddView(static_cast<int32_t>(i), views[i]);
    }
    return filter;
  }

  std::vector<TreePattern> Queries() {
    std::vector<TreePattern> queries;
    for (int i = 0; i < 20; ++i) {
      queries.push_back(Parse("/r/a" + std::to_string(i)));
    }
    queries.push_back(Parse("/r/a4[a5]/a6"));
    queries.push_back(Parse("/r/a2/a3"));
    queries.push_back(Parse("//a7"));
    queries.push_back(Parse("/r/*"));
    queries.push_back(Parse("/r/zzz"));  // label unknown to the views
    return queries;
  }

  static void ExpectSameResult(const FilterResult& a, const FilterResult& b,
                               const std::string& context) {
    EXPECT_EQ(a.candidates, b.candidates) << context;
    ASSERT_EQ(a.lists.size(), b.lists.size()) << context;
    for (size_t i = 0; i < a.lists.size(); ++i) {
      ASSERT_EQ(a.lists[i].size(), b.lists[i].size()) << context;
      for (size_t j = 0; j < a.lists[i].size(); ++j) {
        EXPECT_EQ(a.lists[i][j].view_id, b.lists[i][j].view_id) << context;
        EXPECT_EQ(a.lists[i][j].length, b.lists[i][j].length) << context;
      }
    }
  }

  LabelDict dict_;
};

TEST_F(DenseNfaTest, DenseDispatchMatchesSparseDispatch) {
  const std::vector<TreePattern> views = HighFanoutViews();
  const VFilter filter = Build(views);
  ASSERT_GT(filter.nfa().num_dense_states(), 0u)
      << "fanout-20 state must have flipped to a dense table";

  // use_dense = false reads the same automaton through the sparse maps
  // only: the oracle for dense dispatch. The call-local-scratch overload
  // (dense by default) must agree too.
  NfaReadScratch dense_scratch;
  dense_scratch.use_dense = true;
  NfaReadScratch sparse_scratch;
  sparse_scratch.use_dense = false;
  const std::vector<TreePattern> queries = Queries();
  for (size_t q = 0; q < queries.size(); ++q) {
    const FilterResult sparse = filter.Filter(queries[q], &sparse_scratch);
    ExpectSameResult(filter.Filter(queries[q], &dense_scratch), sparse,
                     "query " + std::to_string(q));
    ExpectSameResult(filter.Filter(queries[q]), sparse,
                     "query " + std::to_string(q) + " (local scratch)");
  }
}

TEST_F(DenseNfaTest, SerdeRoundTripPreservesDenseBehavior) {
  const VFilter filter = Build(HighFanoutViews());
  auto loaded = DeserializeVFilter(SerializeVFilter(filter));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->nfa().num_dense_states(),
            filter.nfa().num_dense_states());
  const std::vector<TreePattern> queries = Queries();
  for (size_t q = 0; q < queries.size(); ++q) {
    ExpectSameResult(loaded->Filter(queries[q]), filter.Filter(queries[q]),
                     "query " + std::to_string(q));
  }
}

// --- rewrite: view strategies vs base-data evaluation ---------------------

class RewriteDifferentialTest : public ::testing::Test {
 protected:
  // Every slot the view strategy answers must carry exactly BN's codes;
  // every slot it refuses must be refused as NOT_ANSWERABLE. Returns the
  // number of answered slots so callers can reject a vacuous run.
  static size_t ExpectMatchesBase(
      const std::vector<Result<QueryAnswer>>& views,
      const std::vector<Result<QueryAnswer>>& base) {
    EXPECT_EQ(views.size(), base.size());
    size_t answered = 0;
    for (size_t i = 0; i < views.size() && i < base.size(); ++i) {
      EXPECT_TRUE(base[i].ok()) << "slot " << i << ": " << base[i].status();
      if (!views[i].ok()) {
        EXPECT_EQ(views[i].status().code(), StatusCode::kNotAnswerable)
            << "slot " << i << ": " << views[i].status();
        continue;
      }
      ++answered;
      if (base[i].ok()) {
        EXPECT_EQ(views[i]->codes, base[i]->codes) << "slot " << i;
      }
    }
    return answered;
  }
};

TEST_F(RewriteDifferentialTest, ViewAnswersMatchBaseOnXmark) {
  XmarkOptions doc_options;
  doc_options.scale = 0.12;
  doc_options.seed = 17;
  Engine engine(GenerateXmark(doc_options));

  QueryGenOptions gen_options;
  gen_options.max_depth = 4;
  gen_options.num_pred = 1;
  const QueryGenerator generator(engine.doc(), gen_options);
  Rng rng(4242);

  std::vector<TreePattern> live;
  for (int attempt = 0; attempt < 120 && live.size() < 12; ++attempt) {
    TreePattern view = generator.Generate(&rng);
    if (engine.AddView(view).ok()) {
      live.push_back(std::move(view));
    }
  }
  ASSERT_GE(live.size(), 4u) << "workload generator produced too few live views";

  std::vector<TreePattern> batch;
  for (int i = 0; i < 60; ++i) {
    batch.push_back(generator.Generate(&rng));
  }
  // Few generated queries have a leaf cover; every view answers itself.
  batch.insert(batch.end(), live.begin(), live.end());

  const auto base = engine.BatchAnswer(batch, AnswerStrategy::kBaseNodeIndex);
  for (AnswerStrategy strategy : {AnswerStrategy::kHeuristicFiltered,
                                  AnswerStrategy::kMinimumFiltered}) {
    EXPECT_GE(ExpectMatchesBase(engine.BatchAnswer(batch, strategy), base),
              live.size());
  }
}

TEST_F(RewriteDifferentialTest, ThreadedBatchMatchesSequentialAndBase) {
  // Four workers, one arena-bearing ExecutionContext each: positionally
  // identical to the sequential run (codes and rewrite stats) and to BN.
  // This is the TSan shape for the serving path.
  XmarkOptions doc_options;
  doc_options.scale = 0.1;
  doc_options.seed = 5;
  Engine engine(GenerateXmark(doc_options));

  QueryGenOptions gen_options;
  gen_options.max_depth = 4;
  const QueryGenerator generator(engine.doc(), gen_options);
  Rng rng(99);
  std::vector<TreePattern> live;
  for (int attempt = 0; attempt < 100 && live.size() < 8; ++attempt) {
    TreePattern view = generator.Generate(&rng);
    if (engine.AddView(view).ok()) {
      live.push_back(std::move(view));
    }
  }
  ASSERT_GE(live.size(), 3u);

  std::vector<TreePattern> batch;
  for (int i = 0; i < 48; ++i) {
    batch.push_back(generator.Generate(&rng));
  }
  batch.insert(batch.end(), live.begin(), live.end());
  const auto threaded =
      engine.BatchAnswer(batch, AnswerStrategy::kHeuristicFiltered,
                         /*num_threads=*/4);
  const auto sequential =
      engine.BatchAnswer(batch, AnswerStrategy::kHeuristicFiltered,
                         /*num_threads=*/0);
  const auto base = engine.BatchAnswer(batch, AnswerStrategy::kBaseNodeIndex);
  EXPECT_GE(ExpectMatchesBase(threaded, base), live.size());
  ASSERT_EQ(threaded.size(), sequential.size());
  for (size_t i = 0; i < threaded.size(); ++i) {
    ASSERT_EQ(threaded[i].ok(), sequential[i].ok()) << "slot " << i;
    if (!threaded[i].ok()) {
      continue;
    }
    EXPECT_EQ(threaded[i]->codes, sequential[i]->codes) << "slot " << i;
    const RewriteStats& a = threaded[i]->stats.rewrite;
    const RewriteStats& b = sequential[i]->stats.rewrite;
    EXPECT_EQ(a.fragments_scanned, b.fragments_scanned) << "slot " << i;
    EXPECT_EQ(a.fragments_after_refinement, b.fragments_after_refinement)
        << "slot " << i;
    EXPECT_EQ(a.join_survivors, b.join_survivors) << "slot " << i;
  }
}

TEST_F(RewriteDifferentialTest, TightBudgetsReturnResourceExhausted) {
  XmarkOptions doc_options;
  doc_options.scale = 0.1;
  doc_options.seed = 23;
  Engine engine(GenerateXmark(doc_options));
  ASSERT_TRUE(
      engine.AddView(*engine.Parse("//person/name")).ok());
  ASSERT_TRUE(
      engine.AddView(*engine.Parse("//person[profile]/name")).ok());

  std::vector<TreePattern> batch;
  batch.push_back(*engine.Parse("/site/people/person/name"));
  batch.push_back(*engine.Parse("/site/people/person[profile]/name"));

  // Unbounded, both queries have more than one answer, so either budget
  // below must trip.
  const auto base = engine.BatchAnswer(batch, AnswerStrategy::kBaseNodeIndex);
  for (const auto& r : base) {
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_GT(r->codes.size(), 1u);
  }

  QueryLimits tight;
  tight.max_result_codes = 1;    // forces RESOURCE_EXHAUSTED on real answers
  tight.max_join_fragments = 2;  // may trip first; same code either way
  const auto limited =
      engine.BatchAnswer(batch, AnswerStrategy::kHeuristicFiltered,
                         /*num_threads=*/0, tight);
  ASSERT_EQ(limited.size(), batch.size());
  for (size_t i = 0; i < limited.size(); ++i) {
    ASSERT_FALSE(limited[i].ok()) << "slot " << i;
    EXPECT_EQ(limited[i].status().code(), StatusCode::kResourceExhausted)
        << "slot " << i << ": " << limited[i].status();
  }
}

TEST_F(RewriteDifferentialTest, SteadyStreamReusesArenaCapacity) {
  // Sequential BatchAnswer drives every query through ONE context: the
  // arena must reach its high-water mark and then serve identical answers
  // with a stable footprint (Reset() + chunk reuse, no growth).
  XmarkOptions doc_options;
  doc_options.scale = 0.1;
  doc_options.seed = 31;
  Engine engine(GenerateXmark(doc_options));
  ASSERT_TRUE(engine.AddView(*engine.Parse("//person/name")).ok());
  ASSERT_TRUE(engine.AddView(*engine.Parse("//item/location")).ok());

  const TreePattern query = *engine.Parse("/site/people/person/name");
  std::vector<TreePattern> batch(16, query);
  const auto first =
      engine.BatchAnswer(batch, AnswerStrategy::kHeuristicFiltered);
  for (const auto& r : first) {
    ASSERT_TRUE(r.ok()) << r.status();
  }
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_EQ(first[i]->codes, first[0]->codes) << "slot " << i;
  }

  // The per-query arena gauges surfaced through the engine's metrics.
  const std::string text = engine.MetricsText();
  const auto value_of = [&text](const std::string& name) -> long long {
    const std::string needle = "gauge " + name + " ";
    const size_t pos = text.find(needle);
    EXPECT_NE(pos, std::string::npos) << name << " missing from:\n" << text;
    if (pos == std::string::npos) return -1;
    return std::atoll(text.c_str() + pos + needle.size());
  };
  EXPECT_GT(value_of("xvr.arena.high_water"), 0);
  EXPECT_GE(value_of("xvr.arena.high_water"),
            value_of("xvr.arena.bytes_allocated"));
}

}  // namespace
}  // namespace xvr
