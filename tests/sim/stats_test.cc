/** @file Unit tests for the fingerprint and the table renderer. */

#include <gtest/gtest.h>

#include <string_view>

#include "sim/stats.hh"
#include "sim/table.hh"

namespace {

using molecule::sim::Fingerprint;
using molecule::sim::Table;

TEST(Fingerprint, MixBytesIsFnv1a)
{
    Fingerprint empty;
    empty.mixBytes("");
    EXPECT_EQ(empty.digest(), 0xcbf29ce484222325ULL);
    Fingerprint a;
    a.mixBytes("a");
    EXPECT_EQ(a.digest(), 0xaf63dc4c8601ec8cULL);
}

TEST(Fingerprint, MixFoldsLittleEndianBytes)
{
    Fingerprint word;
    word.mix(0x0102030405060708ULL);
    Fingerprint bytes;
    bytes.mixBytes(
        std::string_view("\x08\x07\x06\x05\x04\x03\x02\x01", 8));
    EXPECT_EQ(word.digest(), bytes.digest());
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
