#ifndef XVR_TESTS_TEST_UTIL_H_
#define XVR_TESTS_TEST_UTIL_H_

// Shared helpers for the test binaries.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace xvr {

// A scratch file path under the gtest temp dir that no other test can
// share: it names the running test (suite and test name) and the process.
// gtest_discover_tests runs every test as its own ctest process, and
// `ctest -j` runs those in parallel, so a fixed file name would let two
// tests clobber each other's state. `name` ends the path, so one test can
// ask for several distinct files. Call it from a test body or fixture
// SetUp (it reads the current test's name).
inline std::string UniqueTempPath(const std::string& name) {
  std::string path = ::testing::TempDir();  // lint:temp-path-ok (the helper)
  if (!path.empty() && path.back() != '/') {
    path.push_back('/');
  }
  std::string tag = "xvr";
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    tag += '_';
    tag += info->test_suite_name();
    tag += '.';
    tag += info->name();
  }
  tag += '_' + std::to_string(::getpid()) + '_' + name;
  // Parameterized suites and tests carry '/' in their names.
  for (char& c : tag) {
    if (c == '/') {
      c = '_';
    }
  }
  return path + tag;
}

// A fragment image (FlatFragment::Serialize: marker, root code depth, root
// code components, then the nodes) with its root code replaced by `code`:
// a well-formed image whose root no longer matches its position, which no
// framing check can catch.
inline std::string WithRootCode(const std::string& image,
                                const std::vector<uint32_t>& code) {
  const auto put = [](uint32_t v, std::string* out) {
    char buf[4];
    std::memcpy(buf, &v, 4);
    out->append(buf, 4);
  };
  uint32_t depth = 0;
  std::memcpy(&depth, image.data() + 4, 4);
  std::string out = image.substr(0, 4);
  put(static_cast<uint32_t>(code.size()), &out);
  for (const uint32_t c : code) {
    put(c, &out);
  }
  out += image.substr(8 + 4 * static_cast<size_t>(depth));
  return out;
}

}  // namespace xvr

#endif  // XVR_TESTS_TEST_UTIL_H_
