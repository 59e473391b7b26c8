#include "exp/registry.hh"

#include <algorithm>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

namespace padc::exp
{
namespace
{

TEST(GlobMatch, Basics)
{
    EXPECT_TRUE(globMatch("fig09", "fig09"));
    EXPECT_FALSE(globMatch("fig09", "fig areas"));
    EXPECT_TRUE(globMatch("fig*", "fig09"));
    EXPECT_TRUE(globMatch("*", "anything"));
    EXPECT_TRUE(globMatch("fig?9", "fig09"));
    EXPECT_FALSE(globMatch("fig?9", "fig9"));
    EXPECT_TRUE(globMatch("*09", "fig09"));
    EXPECT_TRUE(globMatch("f*g*9", "fig09"));
    EXPECT_FALSE(globMatch("fig*", "tab07"));
    EXPECT_TRUE(globMatch("", ""));
    EXPECT_FALSE(globMatch("", "x"));
}

// The real experiment set is linked in (padc_experiments), so these
// cover the production registrations, not a synthetic fixture.
TEST(Registry, AllExperimentsAreRegisteredAndSorted)
{
    const auto all = ExperimentRegistry::instance().all();
    ASSERT_GE(all.size(), 27u);
    std::set<std::string> names;
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_NE(all[i]->run, nullptr);
        EXPECT_FALSE(all[i]->info.anchor.empty());
        names.insert(all[i]->info.name);
        if (i > 0) {
            EXPECT_LT(all[i - 1]->info.name, all[i]->info.name);
        }
    }
    EXPECT_EQ(names.size(), all.size()) << "duplicate names registered";
    for (const char *name :
         {"fig01", "fig09", "fig16", "fig17", "tab07", "tab09",
          "abl_thresholds", "smoke"})
        EXPECT_EQ(names.count(name), 1u) << name;
}

TEST(Registry, FindAndMatch)
{
    const auto &registry = ExperimentRegistry::instance();
    ASSERT_NE(registry.find("fig09"), nullptr);
    EXPECT_EQ(registry.find("fig09")->info.name, "fig09");
    EXPECT_EQ(registry.find("no_such"), nullptr);

    // Exact name.
    const auto exact = registry.match("fig09");
    ASSERT_EQ(exact.size(), 1u);
    EXPECT_EQ(exact[0]->info.name, "fig09");

    // Glob over names, name-sorted.
    const auto glob = registry.match("fig1*");
    ASSERT_GE(glob.size(), 4u);
    for (std::size_t i = 1; i < glob.size(); ++i)
        EXPECT_LT(glob[i - 1]->info.name, glob[i]->info.name);
    EXPECT_EQ(glob[0]->info.name, "fig10");

    // Tag selection.
    const auto tagged = registry.match("overall");
    ASSERT_GE(tagged.size(), 3u);
    for (const Experiment *experiment : tagged) {
        const auto &tags = experiment->info.tags;
        EXPECT_NE(std::find(tags.begin(), tags.end(), "overall"),
                  tags.end());
    }

    EXPECT_TRUE(registry.match("no_such_selector").empty());
}

TEST(Registry, ClosestNameSuggestsTypoFix)
{
    const auto &registry = ExperimentRegistry::instance();
    EXPECT_EQ(registry.closestName("fig16"), "fig16");
    EXPECT_EQ(registry.closestName("smoek"), "smoke");
    EXPECT_EQ(registry.closestName("tab7"), "tab07");
    EXPECT_FALSE(registry.closestName("zzzzz").empty());
}

TEST(Registry, DuplicateNameThrows)
{
    auto &registry = ExperimentRegistry::instance();
    const auto noop = [](ExperimentContext &) {};
    registry.add({"zz_registry_test", "none", "", "", {}}, noop);
    EXPECT_THROW(registry.add({"zz_registry_test", "none", "", "", {}},
                              noop),
                 std::logic_error);
}

} // namespace
} // namespace padc::exp
