// Differential and compatibility tests for the hot-path memory
// architecture:
//
//   - flat-fragment layer: the anchored walks (epoched memo, preorder
//     subtree scans, one scratch shared across fragments) against
//     EvaluatePattern — the semantics ground truth — run on the fragment
//     re-parsed as a document, over randomized documents and generated
//     patterns; CSR/subtree_end/preorder structural invariants;
//   - serde: v2 round-trips byte-for-byte, v1 legacy images (including
//     non-preorder node orders and duplicate side-table entries) load and
//     canonicalize, truncated images fail cleanly, and FragmentStore's
//     format census counts flat vs legacy loads;
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
#include "storage/fragment_store.h"
#include "storage/kv_store.h"
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

// --- serde: v2 round-trip, v1 compatibility, canonicalization --------------

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

  bool was_flat = false;
  auto loaded = Fragment::Deserialize(bytes, &was_flat);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(was_flat);
  EXPECT_EQ(loaded->Serialize(), bytes) << "v2 must be a fixed point";
  EXPECT_EQ(loaded->root_code(), frag.root_code());
  CheckTopologyInvariants(*loaded);
}

TEST(FragmentSerdeTest, LegacyImageLoadsIdentically) {
  const Fragment frag = SampleFragment();
  const std::string legacy_bytes = frag.SerializeLegacy();
  bool was_flat = true;
  auto loaded = Fragment::Deserialize(legacy_bytes, &was_flat);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(was_flat);
  // Canonicalizing a legacy image of an already-canonical fragment must
  // reproduce the fragment exactly.
  EXPECT_EQ(loaded->Serialize(), frag.Serialize());
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

TEST(FragmentSerdeTest, NonPreorderLegacyImageIsCanonicalized) {
  // Hand-crafted v1 image whose node order is valid (parents precede
  // children) but NOT preorder:
  //
  //   image idx  label  parent  comp     tree: root has children A(11)
  //   0          10     -1      1        and B(12); A has child C(13)
  //   1          11     0       1
  //   2          12     0       2
  //   3          13     1       1
  //
  // Preorder is root, A, C, B — node C (image idx 3) must move before B.
  std::string bytes;
  PutU32(2, &bytes);  // root code depth
  PutU32(1, &bytes);
  PutU32(5, &bytes);  // root code = /1/5
  PutU32(4, &bytes);  // node count
  const uint32_t kNoParent = static_cast<uint32_t>(-1);
  PutU32(10, &bytes); PutU32(kNoParent, &bytes); PutU32(1, &bytes);
  PutU32(11, &bytes); PutU32(0, &bytes); PutU32(1, &bytes);
  PutU32(12, &bytes); PutU32(0, &bytes); PutU32(2, &bytes);
  PutU32(13, &bytes); PutU32(1, &bytes); PutU32(1, &bytes);
  // Texts: a duplicate id — canonicalization keeps the LAST entry.
  PutU32(2, &bytes);
  PutU32(3, &bytes); PutStr("stale", &bytes);
  PutU32(3, &bytes); PutStr("fresh", &bytes);
  // Attrs: two entries for node 1 — canonicalization concatenates them.
  PutU32(2, &bytes);
  PutU32(1, &bytes); PutU32(1, &bytes);
  PutStr("a", &bytes); PutStr("x", &bytes);
  PutU32(1, &bytes); PutU32(1, &bytes);
  PutStr("b", &bytes); PutStr("y", &bytes);

  bool was_flat = true;
  auto loaded = Fragment::Deserialize(bytes, &was_flat);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(was_flat);
  CheckTopologyInvariants(*loaded);

  ASSERT_EQ(loaded->size(), 4u);
  // Canonical preorder: root(10), A(11), C(13), B(12).
  EXPECT_EQ(loaded->node(0).label, 10);
  EXPECT_EQ(loaded->node(1).label, 11);
  EXPECT_EQ(loaded->node(2).label, 13);
  EXPECT_EQ(loaded->node(3).label, 12);
  EXPECT_EQ(loaded->node(2).parent, 1);
  EXPECT_EQ(loaded->node(3).parent, 0);
  EXPECT_EQ(loaded->subtree_end(1), 3);  // A's subtree is {A, C}

  // Side tables followed the permutation: C was image idx 3, now idx 2.
  ASSERT_NE(loaded->text(2), nullptr);
  EXPECT_EQ(*loaded->text(2), "fresh");
  ASSERT_NE(loaded->attribute(1, "a"), nullptr);
  EXPECT_EQ(*loaded->attribute(1, "a"), "x");
  ASSERT_NE(loaded->attribute(1, "b"), nullptr);
  EXPECT_EQ(*loaded->attribute(1, "b"), "y");

  // Re-serializing emits canonical v2; reloading it is a fixed point.
  const std::string v2 = loaded->Serialize();
  auto reloaded = Fragment::Deserialize(v2);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->Serialize(), v2);
}

TEST(FragmentSerdeTest, TruncatedImagesFailCleanly) {
  const Fragment frag = SampleFragment();
  for (const std::string& full : {frag.Serialize(), frag.SerializeLegacy()}) {
    for (size_t len = 0; len < full.size(); ++len) {
      auto r = Fragment::Deserialize(full.substr(0, len));
      EXPECT_FALSE(r.ok()) << "strict prefix of length " << len
                           << " must not parse";
    }
  }
}

TEST(FragmentStoreTest, LoadCountsDistinguishFlatFromLegacyImages) {
  RandomDocOptions doc_options;
  doc_options.seed = 7;
  doc_options.num_nodes = 80;
  const XmlTree tree = GenerateRandomDoc(doc_options);
  std::vector<Fragment> fragments;
  for (NodeId n = 0; n < static_cast<NodeId>(tree.size()); n += 11) {
    fragments.push_back(Fragment::FromTree(tree, n));
  }
  const size_t count = fragments.size();
  ASSERT_GT(count, 2u);

  FragmentStore store;
  store.PutView(7, fragments);
  KvStore kv;
  ASSERT_TRUE(store.SaveTo(&kv).ok());

  // SaveTo writes v2: a fresh load is all-flat.
  FragmentStore flat_loaded;
  ASSERT_TRUE(flat_loaded.LoadFrom(kv).ok());
  EXPECT_EQ(flat_loaded.flat_load_count(), count);
  EXPECT_EQ(flat_loaded.legacy_load_count(), 0u);

  // Rewrite every value as a v1 image under the same keys — the pre-flat
  // on-disk state. It must load (legacy counter) to identical fragments.
  KvStore legacy_kv;
  const std::vector<Fragment>* stored = flat_loaded.GetView(7);
  ASSERT_NE(stored, nullptr);
  for (size_t i = 0; i < stored->size(); ++i) {
    char key[64];
    std::snprintf(key, sizeof(key), "frag/%010d/%08zu", 7, i);
    legacy_kv.Put(key, (*stored)[i].SerializeLegacy());
  }
  FragmentStore legacy_loaded;
  ASSERT_TRUE(legacy_loaded.LoadFrom(legacy_kv).ok());
  EXPECT_EQ(legacy_loaded.flat_load_count(), 0u);
  EXPECT_EQ(legacy_loaded.legacy_load_count(), count);

  const std::vector<Fragment>* via_legacy = legacy_loaded.GetView(7);
  ASSERT_NE(via_legacy, nullptr);
  ASSERT_EQ(via_legacy->size(), stored->size());
  for (size_t i = 0; i < stored->size(); ++i) {
    EXPECT_EQ((*via_legacy)[i].Serialize(), (*stored)[i].Serialize());
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
