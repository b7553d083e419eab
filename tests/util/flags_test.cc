#include "util/flags.h"

#include <cstdlib>

#include "gtest/gtest.h"

namespace gsgrow {
namespace {

Flags ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  argv.push_back(const_cast<char*>("prog"));
  for (auto& s : storage) argv.push_back(s.data());
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
  Flags f = ParseArgs({"--min_sup=5"});
  EXPECT_EQ(f.GetInt("min_sup", 0), 5);
}

TEST(Flags, SpaceForm) {
  Flags f = ParseArgs({"--name", "gazelle"});
  EXPECT_EQ(f.GetString("name", ""), "gazelle");
}

TEST(Flags, BareBooleanSwitch) {
  Flags f = ParseArgs({"--verbose"});
  EXPECT_TRUE(f.GetBool("verbose", false));
}

TEST(Flags, BooleanSpellings) {
  EXPECT_TRUE(ParseArgs({"--x=yes"}).GetBool("x", false));
  EXPECT_TRUE(ParseArgs({"--x=on"}).GetBool("x", false));
  EXPECT_TRUE(ParseArgs({"--x=1"}).GetBool("x", false));
  EXPECT_FALSE(ParseArgs({"--x=no"}).GetBool("x", true));
  EXPECT_FALSE(ParseArgs({"--x=0"}).GetBool("x", true));
  EXPECT_FALSE(ParseArgs({"--x=off"}).GetBool("x", true));
}

TEST(Flags, DefaultsWhenAbsent) {
  Flags f = ParseArgs({});
  EXPECT_EQ(f.GetInt("k", 7), 7);
  EXPECT_EQ(f.GetString("s", "d"), "d");
  EXPECT_DOUBLE_EQ(f.GetDouble("d", 1.5), 1.5);
  EXPECT_TRUE(f.GetBool("b", true));
  EXPECT_FALSE(f.Has("k"));
}

// An unparsable value still yields the default, but it is recorded:
// CheckParsed names the first bad flag so a CLI can exit 2 instead of
// silently running with the default.
TEST(Flags, DefaultWhenUnparsable) {
  Flags f = ParseArgs({"--k=abc", "--scale=fast", "--x=maybe", "--n=3"});
  EXPECT_TRUE(f.CheckParsed().ok());  // nothing read yet
  EXPECT_EQ(f.GetInt("n", 0), 3);
  EXPECT_TRUE(f.CheckParsed().ok());
  EXPECT_EQ(f.GetInt("k", 9), 9);
  const Status status = f.CheckParsed();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--k"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("abc"), std::string::npos)
      << status.ToString();
  // Later failures keep the first one.
  EXPECT_DOUBLE_EQ(f.GetDouble("scale", 1.5), 1.5);
  EXPECT_TRUE(f.GetBool("x", true));
  EXPECT_EQ(f.CheckParsed().message(), status.message());

  Flags d = ParseArgs({"--scale=fast"});
  EXPECT_DOUBLE_EQ(d.GetDouble("scale", 1.0), 1.0);
  EXPECT_NE(d.CheckParsed().message().find("--scale"), std::string::npos);
  Flags b = ParseArgs({"--x=maybe"});
  EXPECT_FALSE(b.GetBool("x", false));
  EXPECT_NE(b.CheckParsed().message().find("--x"), std::string::npos);
  // A bare switch read as a number is unparsable too.
  Flags bare = ParseArgs({"--min_sup"});
  EXPECT_EQ(bare.GetInt("min_sup", 10), 10);
  EXPECT_FALSE(bare.CheckParsed().ok());
}

TEST(Flags, Positional) {
  Flags f = ParseArgs({"input.txt", "--k=1", "output.txt"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "output.txt");
}

TEST(Flags, DoubleValues) {
  Flags f = ParseArgs({"--scale=0.25"});
  EXPECT_DOUBLE_EQ(f.GetDouble("scale", 1.0), 0.25);
}

TEST(EnvDouble, ReadsAndDefaults) {
  ::setenv("GSGROW_TEST_ENV_DOUBLE", "0.5", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("GSGROW_TEST_ENV_DOUBLE", 1.0), 0.5);
  ::unsetenv("GSGROW_TEST_ENV_DOUBLE");
  EXPECT_DOUBLE_EQ(EnvDouble("GSGROW_TEST_ENV_DOUBLE", 1.0), 1.0);
  ::setenv("GSGROW_TEST_ENV_DOUBLE", "junk", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("GSGROW_TEST_ENV_DOUBLE", 2.0), 2.0);
  ::unsetenv("GSGROW_TEST_ENV_DOUBLE");
}

}  // namespace
}  // namespace gsgrow
