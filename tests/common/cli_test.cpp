#include "common/cli.h"

#include <gtest/gtest.h>

#include "bench/harness.h"

namespace psnap {
namespace {

// Builds an argv array from string literals.
template <std::size_t N>
bool parse(CliFlags& flags, const char* (&args)[N]) {
  return flags.parse(static_cast<int>(N), const_cast<char**>(args));
}

TEST(CliFlags, DefaultsApplyWithoutArgs) {
  CliFlags flags;
  flags.define("threads", "4", "worker count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parse(flags, argv));
  EXPECT_EQ(flags.get_uint("threads"), 4u);
}

TEST(CliFlags, EqualsSyntax) {
  CliFlags flags;
  flags.define("threads", "4", "worker count");
  const char* argv[] = {"prog", "--threads=9"};
  ASSERT_TRUE(parse(flags, argv));
  EXPECT_EQ(flags.get_uint("threads"), 9u);
}

TEST(CliFlags, SpaceSyntax) {
  CliFlags flags;
  flags.define("name", "x", "a name");
  const char* argv[] = {"prog", "--name", "hello"};
  ASSERT_TRUE(parse(flags, argv));
  EXPECT_EQ(flags.get_string("name"), "hello");
}

TEST(CliFlags, BoolFlagBareForm) {
  CliFlags flags;
  flags.define("verbose", "false", "chatty output");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(parse(flags, argv));
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(CliFlags, UnknownFlagRejected) {
  CliFlags flags;
  flags.define("a", "1", "");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(parse(flags, argv));
}

TEST(CliFlags, HelpReturnsFalse) {
  CliFlags flags;
  flags.define("a", "1", "");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(parse(flags, argv));
}

TEST(CliFlags, IntAndDouble) {
  CliFlags flags;
  flags.define("n", "-3", "");
  flags.define("f", "0.25", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parse(flags, argv));
  EXPECT_EQ(flags.get_int("n"), -3);
  EXPECT_DOUBLE_EQ(flags.get_double("f"), 0.25);
}

TEST(CliFlags, UintList) {
  CliFlags flags;
  flags.define("sizes", "1,2,8,64", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parse(flags, argv));
  auto sizes = flags.get_uint_list("sizes");
  ASSERT_EQ(sizes.size(), 4u);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[3], 64u);
}

TEST(CliFlags, PositionalArgumentRejected) {
  CliFlags flags;
  flags.define("a", "1", "");
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(parse(flags, argv));
}

// --impls lists: a key=value token continues the previous spec, so a
// multi-option spec is not cut at its own commas.
TEST(ImplSpecList, KeyValueTokensContinueThePreviousSpec) {
  EXPECT_EQ(bench::split_impl_specs(
                "fig3_cas_fast:value=blob,shards=4,lock,,seqlock"),
            (std::vector<std::string>{
                "fig3_cas_fast:value=blob,shards=4", "lock",
                "seqlock"}));
}

}  // namespace
}  // namespace psnap
