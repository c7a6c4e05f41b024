/** @file Unit tests for histograms and the table renderer. */

#include <gtest/gtest.h>

#include "sim/stats.hh"
#include "sim/table.hh"
#include "sim/time.hh"

namespace {

using molecule::sim::Histogram;
using molecule::sim::Table;
using namespace molecule::sim::literals;

TEST(Histogram, BasicMoments)
{
    Histogram h;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        h.add(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.5);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 4.0);
    EXPECT_NEAR(h.stddev(), 1.29099, 1e-4);
}

TEST(Histogram, PercentilesNearestRank)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.add(double(i));
    EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(90), 90.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
}

TEST(Histogram, AddTimeStoresMicroseconds)
{
    Histogram h;
    h.addTime(1500_ns);
    EXPECT_DOUBLE_EQ(h.mean(), 1.5);
}

TEST(Histogram, InterleavedAddAndQuery)
{
    Histogram h;
    h.add(5.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
    h.add(1.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    h.add(9.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
    EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(Histogram, ClearResets)
{
    Histogram h;
    h.add(1.0);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, SummaryLineContainsPercentiles)
{
    Histogram h;
    for (int i = 1; i <= 10; ++i)
        h.add(double(i));
    auto line = h.summaryLine();
    EXPECT_NE(line.find("avg 5.50"), std::string::npos);
    EXPECT_NE(line.find("p50 5.00"), std::string::npos);
    EXPECT_NE(line.find("p99 10.00"), std::string::npos);
}

TEST(Table, RendersAlignedColumns)
{
    Table t("Demo");
    t.header({"name", "value"});
    t.row({"alpha", "1.0"});
    t.row({"b", "22.5"});
    auto s = t.render();
    EXPECT_NE(s.find("== Demo =="), std::string::npos);
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha  1.0"), std::string::npos);
    // column alignment pads "b" to the width of "alpha"
    EXPECT_NE(s.find("b      22.5"), std::string::npos);
}

TEST(Table, NumFormatsDecimals)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

} // namespace
