#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "pattern/xpath_parser.h"
#include "storage/kv_store.h"
#include "vfilter/vfilter.h"
#include "vfilter/vfilter_serde.h"

namespace xvr {
namespace {

class VFilterSerdeTest : public ::testing::Test {
 protected:
  TreePattern Parse(const std::string& xpath) {
    auto r = ParseXPath(xpath, &dict_);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
  LabelDict dict_;
};

TEST_F(VFilterSerdeTest, RoundTripPreservesFiltering) {
  VFilter filter;
  const std::vector<std::string> views = {"/s[t]/p", "/s[.//f]/p", "//s/p",
                                          "/s[p]/f//i", "/s/*/t"};
  for (size_t i = 0; i < views.size(); ++i) {
    filter.AddView(static_cast<int32_t>(i), Parse(views[i]));
  }
  const std::string image = SerializeVFilter(filter);
  EXPECT_EQ(image.size(), SerializedVFilterSize(filter));
  auto restored = DeserializeVFilter(image);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->num_views(), filter.num_views());
  EXPECT_EQ(restored->num_states(), filter.num_states());
  EXPECT_EQ(restored->num_transitions(), filter.num_transitions());

  for (const char* q :
       {"/s[f//i][t]/p", "/s/p", "/s/a/t", "//s/p/x", "/s[t][p]"}) {
    const TreePattern query = Parse(q);
    EXPECT_EQ(filter.Filter(query).candidates,
              restored->Filter(query).candidates)
        << q;
  }
}

TEST_F(VFilterSerdeTest, RoundTripPreservesOptions) {
  VFilterOptions options;
  options.normalize = false;
  options.counter_mode = true;
  VFilter filter(options);
  filter.AddView(0, Parse("/a/b"));
  auto restored = DeserializeVFilter(SerializeVFilter(filter));
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(restored->options().normalize);
  EXPECT_TRUE(restored->options().counter_mode);
  EXPECT_TRUE(restored->options().share_prefixes);
}

TEST_F(VFilterSerdeTest, RejectsCorruptImages) {
  VFilter filter;
  filter.AddView(0, Parse("/a/b"));
  std::string image = SerializeVFilter(filter);
  EXPECT_FALSE(DeserializeVFilter("").ok());
  EXPECT_FALSE(DeserializeVFilter("garbage").ok());
  std::string truncated = image.substr(0, image.size() / 2);
  EXPECT_FALSE(DeserializeVFilter(truncated).ok());
  std::string bad_magic = image;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DeserializeVFilter(bad_magic).ok());
  // A 20-byte image whose length field is 20 - 24 modulo 2^64: the frame
  // check must not wrap around and accept it.
  std::string short_frame = image.substr(0, 8);
  const uint64_t wrapped = static_cast<uint64_t>(20) - 24;
  short_frame.append(reinterpret_cast<const char*>(&wrapped), 8);
  short_frame.append(4, '\0');
  EXPECT_FALSE(DeserializeVFilter(short_frame).ok());
}

TEST_F(VFilterSerdeTest, SizeGrowsSubLinearlyWithSharedPrefixes) {
  // Views sharing a long common prefix: doubling the view count should far
  // less than double the image (the Fig. 11 effect).
  auto build = [&](int n) {
    VFilter filter;
    for (int i = 0; i < n; ++i) {
      filter.AddView(i, Parse("/site/regions/africa/item/name" +
                              std::string(i % 2 == 0 ? "" : "/x" +
                                                               std::to_string(
                                                                   i))));
    }
    return SerializedVFilterSize(filter);
  };
  const size_t s1 = build(10);
  const size_t s2 = build(20);
  EXPECT_LT(static_cast<double>(s2),
            1.9 * static_cast<double>(s1));
}

TEST_F(VFilterSerdeTest, StoresInKvStore) {
  VFilter filter;
  filter.AddView(7, Parse("/a[b]//c"));
  KvStore kv;
  kv.Put("vfilter/main", SerializeVFilter(filter));
  const std::string* loaded = kv.Get("vfilter/main");
  ASSERT_NE(loaded, nullptr);
  auto restored = DeserializeVFilter(*loaded);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->NumPathsOf(7), 2);
}

}  // namespace
}  // namespace xvr
