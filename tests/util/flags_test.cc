#include "util/flags.h"

#include <gtest/gtest.h>

namespace igepa {
namespace {

ArgParser MakeParser() {
  ArgParser parser("tool", "test parser");
  parser.AddString("name", "default", "a string");
  parser.AddInt("count", 7, "an int");
  parser.AddDouble("rate", 0.5, "a double");
  parser.AddBool("verbose", false, "a bool");
  return parser;
}

TEST(ArgParserTest, DefaultsWhenUnset) {
  ArgParser parser = MakeParser();
  ASSERT_TRUE(parser.Parse({}).ok());
  EXPECT_EQ(parser.GetString("name"), "default");
  EXPECT_EQ(parser.GetInt("count"), 7);
  EXPECT_DOUBLE_EQ(parser.GetDouble("rate"), 0.5);
  EXPECT_FALSE(parser.GetBool("verbose"));
  EXPECT_FALSE(parser.Provided("name"));
}

TEST(ArgParserTest, EqualsSyntax) {
  ArgParser parser = MakeParser();
  ASSERT_TRUE(
      parser.Parse({"--name=igepa", "--count=42", "--rate=0.25"}).ok());
  EXPECT_EQ(parser.GetString("name"), "igepa");
  EXPECT_EQ(parser.GetInt("count"), 42);
  EXPECT_DOUBLE_EQ(parser.GetDouble("rate"), 0.25);
  EXPECT_TRUE(parser.Provided("count"));
}

TEST(ArgParserTest, SpaceSyntax) {
  ArgParser parser = MakeParser();
  ASSERT_TRUE(parser.Parse({"--name", "x", "--count", "-3"}).ok());
  EXPECT_EQ(parser.GetString("name"), "x");
  EXPECT_EQ(parser.GetInt("count"), -3);
}

TEST(ArgParserTest, BareBooleanSetsTrue) {
  ArgParser parser = MakeParser();
  ASSERT_TRUE(parser.Parse({"--verbose"}).ok());
  EXPECT_TRUE(parser.GetBool("verbose"));
}

TEST(ArgParserTest, ExplicitBooleanValues) {
  ArgParser parser = MakeParser();
  ASSERT_TRUE(parser.Parse({"--verbose=true"}).ok());
  EXPECT_TRUE(parser.GetBool("verbose"));
  ArgParser parser2 = MakeParser();
  ASSERT_TRUE(parser2.Parse({"--verbose=false"}).ok());
  EXPECT_FALSE(parser2.GetBool("verbose"));
  ArgParser parser3 = MakeParser();
  EXPECT_FALSE(parser3.Parse({"--verbose=maybe"}).ok());
}

TEST(ArgParserTest, PositionalArguments) {
  ArgParser parser = MakeParser();
  ASSERT_TRUE(parser.Parse({"alpha", "--count=1", "beta"}).ok());
  EXPECT_EQ(parser.positional(),
            (std::vector<std::string>{"alpha", "beta"}));
}

TEST(ArgParserTest, UnknownFlagRejected) {
  ArgParser parser = MakeParser();
  const Status status = parser.Parse({"--nonsense=1"});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("nonsense"), std::string::npos);
  EXPECT_NE(status.message().find("usage"), std::string::npos);
}

TEST(ArgParserTest, MissingValueRejected) {
  ArgParser parser = MakeParser();
  EXPECT_FALSE(parser.Parse({"--name"}).ok());
}

TEST(ArgParserTest, BadNumbersRejected) {
  ArgParser parser = MakeParser();
  EXPECT_FALSE(parser.Parse({"--count=abc"}).ok());
  ArgParser parser2 = MakeParser();
  EXPECT_FALSE(parser2.Parse({"--rate=1.2.3"}).ok());
}

TEST(ArgParserTest, UsageListsAllFlags) {
  const ArgParser parser = MakeParser();
  const std::string usage = parser.Usage();
  EXPECT_NE(usage.find("--name"), std::string::npos);
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("--rate"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("default 7"), std::string::npos);

  // Parsed values must not leak into the listed defaults.
  ArgParser parsed = MakeParser();
  ASSERT_TRUE(parsed.Parse({"--name=other", "--count=8", "--rate=0.25",
                            "--verbose"})
                  .ok());
  EXPECT_EQ(parsed.Usage(), usage);
}

}  // namespace
}  // namespace igepa
