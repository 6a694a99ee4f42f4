// Unit tests: exhaustive to_string coverage for the public enums.
//
// The switches in the to_string implementations are default-less, so
// -Wswitch flags a newly added enumerator at compile time; these tests
// additionally catch drift at runtime (an enumerator silently falling
// through to the "?" sentinel) and enforce distinct, human-readable names.
// The k*Count constants live next to the enum definitions — adding an
// enumerator without bumping the count fails the distinctness check the
// moment the new value aliases the sentinel.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/node.hpp"
#include "harness/scenario.hpp"
#include "sim/auth.hpp"

namespace ssbft {
namespace {

template <typename Enum>
void expect_exhaustive(std::uint32_t count) {
  std::set<std::string> names;
  for (std::uint32_t i = 0; i < count; ++i) {
    const char* name = to_string(static_cast<Enum>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "enumerator " << i << " missing from switch";
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate name '" << name << "' for enumerator " << i;
  }
  // One past the end hits the sentinel — proves `count` is not stale-low.
  EXPECT_STREQ(to_string(static_cast<Enum>(count)), "?");
}

TEST(EnumToStringTest, AdversaryKindExhaustive) {
  expect_exhaustive<AdversaryKind>(kAdversaryKindCount);
}

TEST(EnumToStringTest, StackKindExhaustive) {
  expect_exhaustive<StackKind>(kStackKindCount);
}

TEST(EnumToStringTest, ProposeStatusExhaustive) {
  expect_exhaustive<ProposeStatus>(kProposeStatusCount);
}

TEST(EnumToStringTest, AuthKindExhaustive) {
  expect_exhaustive<AuthKind>(kAuthKindCount);
}

TEST(EnumToStringTest, SpecificNamesStable) {
  // Names appear in CLI output and CSVs; keep the common ones stable.
  EXPECT_STREQ(to_string(AdversaryKind::kSilent), "silent");
  EXPECT_STREQ(to_string(StackKind::kAgree), "agree");
  EXPECT_STREQ(to_string(StackKind::kClockSync), "clock-sync");
  EXPECT_STREQ(to_string(ProposeStatus::kSent), "sent");
}

}  // namespace
}  // namespace ssbft
