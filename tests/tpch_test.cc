#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "catalog/catalog.h"
#include "common/random.h"
#include "storage/csv.h"
#include "storage/page_source.h"
#include "tpch/tpch.h"

namespace accordion {
namespace {

constexpr double kSf = 0.01;

TEST(CatalogTest, LookupAndChannels) {
  Catalog catalog = MakeTpchCatalog(kSf, 10);
  auto table = catalog.GetTable("lineitem");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->ChannelOf("l_orderkey"), 0);
  EXPECT_EQ(table->ChannelOf("l_shipdate"), 10);
  EXPECT_EQ(table->ChannelOf("nope"), -1);
  EXPECT_FALSE(catalog.GetTable("ghost").ok());
  EXPECT_TRUE(catalog.HasTable("orders"));
  EXPECT_EQ(catalog.TableNames().size(), 8u);
}

TEST(CatalogTest, Table1PartitioningScheme) {
  Catalog catalog = MakeTpchCatalog(kSf, 10);
  auto nation = catalog.GetLayout("nation");
  ASSERT_TRUE(nation.ok());
  EXPECT_EQ(nation->num_nodes, 1);
  EXPECT_EQ(nation->TotalSplits(), 1);
  auto lineitem = catalog.GetLayout("lineitem");
  ASSERT_TRUE(lineitem.ok());
  EXPECT_EQ(lineitem->num_nodes, 10);
  EXPECT_EQ(lineitem->splits_per_node, 7);
  EXPECT_EQ(lineitem->TotalSplits(), 70);
  auto orders = catalog.GetLayout("orders");
  ASSERT_TRUE(orders.ok());
  EXPECT_EQ(orders->TotalSplits(), 10);
}

TEST(TpchTest, RowCountsScale) {
  EXPECT_EQ(TpchRowCount("nation", kSf), 25);
  EXPECT_EQ(TpchRowCount("region", kSf), 5);
  EXPECT_EQ(TpchRowCount("customer", kSf), 1500);
  EXPECT_EQ(TpchRowCount("orders", kSf), 15000);
  EXPECT_EQ(TpchRowCount("customer", 1.0), 150000);
}

TEST(TpchTest, SplitsPartitionWithoutOverlap) {
  // Keys across 4 splits of customer must tile [1, N] exactly once.
  std::set<int64_t> keys;
  int64_t total = 0;
  for (int s = 0; s < 4; ++s) {
    for (const auto& page : GenerateSplit("customer", kSf, s, 4)) {
      for (int64_t r = 0; r < page->num_rows(); ++r) {
        keys.insert(page->column(0).IntAt(r));
        ++total;
      }
    }
  }
  EXPECT_EQ(total, TpchRowCount("customer", kSf));
  EXPECT_EQ(static_cast<int64_t>(keys.size()), total);  // no duplicates
  EXPECT_EQ(*keys.begin(), 1);
  EXPECT_EQ(*keys.rbegin(), total);
}

TEST(TpchTest, GenerationIsDeterministic) {
  auto a = GenerateSplit("orders", kSf, 2, 5);
  auto b = GenerateSplit("orders", kSf, 2, 5);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->Serialize(), b[i]->Serialize());
  }
}

TEST(TpchTest, SplitCountDoesNotChangeValues) {
  // Row for orderkey k must be identical whether generated in 1 or 5 splits.
  auto whole = GenerateSplit("orders", kSf, 0, 1, 1 << 20);
  auto part = GenerateSplit("orders", kSf, 4, 5, 1 << 20);
  ASSERT_EQ(whole.size(), 1u);
  ASSERT_EQ(part.size(), 1u);
  int64_t first_key = part[0]->column(0).IntAt(0);
  int64_t offset = first_key - 1;
  for (int c = 0; c < part[0]->num_columns(); ++c) {
    EXPECT_EQ(part[0]->column(c).ValueAt(0),
              whole[0]->column(c).ValueAt(offset));
  }
}

TEST(TpchTest, LineitemDatesAreConsistent) {
  for (const auto& page : GenerateSplit("lineitem", kSf, 0, 10)) {
    const auto& ship = page->column(10);
    const auto& commit = page->column(11);
    const auto& receipt = page->column(12);
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      EXPECT_GT(receipt.IntAt(r), ship.IntAt(r));
      EXPECT_GT(commit.IntAt(r), 0);
      EXPECT_GE(ship.IntAt(r), ParseDate("1992-01-01"));
      EXPECT_LE(receipt.IntAt(r), ParseDate("1999-03-01"));
    }
  }
}

TEST(TpchTest, LineitemJoinsToOrdersDates) {
  // l_shipdate must be strictly after the matching o_orderdate.
  auto orders = GenerateSplit("orders", kSf, 0, 1, 1 << 20);
  ASSERT_EQ(orders.size(), 1u);
  const auto& odate = orders[0]->column(4);
  for (const auto& page : GenerateSplit("lineitem", kSf, 3, 10)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      int64_t orderkey = page->column(0).IntAt(r);
      EXPECT_GT(page->column(10).IntAt(r), odate.IntAt(orderkey - 1))
          << "orderkey " << orderkey;
    }
  }
}

TEST(TpchTest, ForeignKeysInRange) {
  int64_t customers = TpchRowCount("customer", kSf);
  for (const auto& page : GenerateSplit("orders", kSf, 0, 10)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      int64_t custkey = page->column(1).IntAt(r);
      EXPECT_GE(custkey, 1);
      EXPECT_LE(custkey, customers);
    }
  }
  int64_t parts = TpchRowCount("part", kSf);
  int64_t suppliers = TpchRowCount("supplier", kSf);
  for (const auto& page : GenerateSplit("lineitem", kSf, 0, 70)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      EXPECT_LE(page->column(1).IntAt(r), parts);
      EXPECT_LE(page->column(2).IntAt(r), suppliers);
    }
  }
}

TEST(TpchTest, GeneratorTotalRowsMatchesProduced) {
  for (const char* table : {"customer", "orders", "lineitem"}) {
    TpchSplitGenerator gen(table, kSf, 1, 3, 512);
    int64_t expected = gen.TotalRows();
    int64_t produced = 0;
    while (auto page = gen.NextPage()) produced += page->num_rows();
    EXPECT_EQ(produced, expected) << table;
  }
}

TEST(TpchTest, MarketSegmentsFromDomain) {
  std::set<std::string> segments;
  for (const auto& page : GenerateSplit("customer", kSf, 0, 1)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      segments.insert(page->column(6).StrAt(r));
    }
  }
  EXPECT_EQ(segments.size(), 5u);
  EXPECT_TRUE(segments.count("BUILDING"));
}

// One row as "v0|v1|...", doubles with all 17 significant digits.
std::string RowText(const Page& page, int64_t r) {
  std::string out;
  for (int c = 0; c < page.num_columns(); ++c) {
    if (c > 0) out += "|";
    const Column& col = page.column(c);
    if (col.type() == DataType::kDouble) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", col.DoubleAt(r));
      out += buf;
    } else {
      out += col.ValueAt(r).ToString();
    }
  }
  return out;
}

TEST(TpchTest, GoldenRowsAreStable) {
  // Reference rows of the generated data. Phone numbers, part names and
  // part types take two draws each, sequenced in the generator, so these
  // bytes must not depend on the compiler's operand evaluation order.
  struct Golden {
    const char* table;
    int64_t row;
    const char* text;
  };
  const Golden kGolden[] = {
      {"supplier", 0,
       "1|Supplier#1|dyoojqpxkrfbakm|12|10-555-4549|1695.6410141047227|"
       "cxhpmbrttmimgyhrfuthgsaut"},
      {"supplier", 1,
       "2|Supplier#2|tiffknxwdlfsdqp|19|15-555-5250|2550.1905352358608|"
       "zcfqefmsfuweiijxryngfiilz"},
      {"supplier", 57,
       "58|Supplier#58|kfafdiwgmshrbii|12|24-555-8345|4769.1582610619089|"
       "urrxhamaquhbydqzoqhwkipbo"},
      {"customer", 0,
       "1|Customer#1|nxrkkhaaxwqvugz|4|27-555-5445|661.83555166847577|"
       "AUTOMOBILE|zgurlorwdqyaozhbydcukwldy"},
      {"customer", 1,
       "2|Customer#2|azzxokyazgnmokd|21|17-555-6703|5782.6634433253012|"
       "AUTOMOBILE|zwprwepkfffpnvxvrohjgiwrw"},
      {"customer", 57,
       "58|Customer#58|ygpjwfslakauqlq|23|10-555-7262|5346.0378521388129|"
       "AUTOMOBILE|hxafsqbvurkdikvznzbgxqsps"},
      {"part", 0,
       "1|BRASS vanndxql|Manufacturer#5|Brand#32|STANDARD ANODIZED BRASS|47|"
       "MED BAG|901.00999999999999|vvlprljiecnhguc"},
      {"part", 1,
       "2|BRASS lserzrsv|Manufacturer#1|Brand#45|ECONOMY BURNISHED NICKEL|13|"
       "SM BOX|902.01999999999998|xxzfzuoqvbbuwqa"},
      {"part", 57,
       "58|TIN msmwpefi|Manufacturer#4|Brand#16|PROMO ANODIZED STEEL|42|"
       "JUMBO PACK|958.58000000000004|qvbcqpepvulyeth"},
  };
  for (const Golden& g : kGolden) {
    auto pages = GenerateSplit(g.table, kSf, 0, 1);
    ASSERT_FALSE(pages.empty());
    EXPECT_EQ(RowText(*pages[0], g.row), g.text) << g.table << " row " << g.row;
  }
}

TEST(TpchTest, ProjectedGeneratorEqualsProjectedFullRows) {
  // Seeded property: for every table, a random column subset in random
  // order, generated directly, equals the full-width rows projected onto
  // it — for every split shape and page size.
  Random rng(20251017);
  for (const std::string& table : TpchTableNames()) {
    const int width = TpchSchema(table).num_columns();
    for (int split_count : {1, 3, 7}) {
      for (int64_t batch_rows : {1, 256, 1024}) {
        std::vector<int> columns;
        while (columns.empty()) {
          for (int c = 0; c < width; ++c) {
            if (rng.NextInt(0, 1) == 1) columns.push_back(c);
          }
        }
        for (size_t i = columns.size(); i > 1; --i) {
          std::swap(columns[i - 1], columns[rng.NextInt(0, i - 1)]);
        }
        for (int split = 0; split < split_count; ++split) {
          SCOPED_TRACE(table + " split " + std::to_string(split) + "/" +
                       std::to_string(split_count) + " batch " +
                       std::to_string(batch_rows));
          TpchSplitGenerator full(table, kSf, split, split_count, batch_rows);
          TpchSplitGenerator projected(table, kSf, split, split_count,
                                       batch_rows, columns);
          EXPECT_EQ(projected.TotalRows(), full.TotalRows());
          int64_t rows = 0;
          while (PagePtr want = full.NextPage()) {
            PagePtr got = projected.NextPage();
            ASSERT_NE(got, nullptr);
            ASSERT_EQ(got->num_rows(), want->num_rows());
            ASSERT_EQ(got->num_columns(), static_cast<int>(columns.size()));
            for (size_t k = 0; k < columns.size(); ++k) {
              const Column& a = got->column(static_cast<int>(k));
              const Column& b = want->column(columns[k]);
              ASSERT_EQ(a.type(), b.type());
              for (int64_t r = 0; r < want->num_rows(); ++r) {
                ASSERT_EQ(a.ValueAt(r), b.ValueAt(r))
                    << "column " << columns[k] << " row " << rows + r;
              }
            }
            rows += want->num_rows();
          }
          EXPECT_EQ(projected.NextPage(), nullptr);
          EXPECT_EQ(rows, full.TotalRows());
        }
      }
    }
  }
}

TEST(CsvTest, RoundTripThroughDisk) {
  std::string path = testing::TempDir() + "/acc_orders_split.csv";
  ASSERT_TRUE(ExportTpchSplitCsv("orders", kSf, 0, 20, path).ok());

  CsvPageSource source(path, TpchSchema("orders"));
  ASSERT_TRUE(source.status().ok()) << source.status().ToString();
  auto generated = GenerateSplit("orders", kSf, 0, 20, 1024);
  std::vector<PagePtr> read;
  while (auto page = source.Next()) read.push_back(page);
  ASSERT_TRUE(source.status().ok()) << source.status().ToString();

  PagePtr expect = Page::Concat(generated);
  PagePtr got = Page::Concat(read);
  ASSERT_EQ(got->num_rows(), expect->num_rows());
  for (int c = 0; c < expect->num_columns(); ++c) {
    for (int64_t r = 0; r < expect->num_rows(); ++r) {
      if (expect->column(c).type() == DataType::kDouble) {
        EXPECT_DOUBLE_EQ(got->column(c).DoubleAt(r),
                         expect->column(c).DoubleAt(r));
      } else {
        EXPECT_EQ(got->column(c).ValueAt(r), expect->column(c).ValueAt(r));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(CsvTest, QuotedFieldsSurvive) {
  Column c(DataType::kString);
  c.AppendStr("plain");
  c.AppendStr("with,comma");
  c.AppendStr("with\"quote");
  std::string path = testing::TempDir() + "/acc_quoted.csv";
  ASSERT_TRUE(WriteCsvSplit(path, {Page::Make({std::move(c)})}).ok());
  CsvPageSource source(path, TableSchema("t", {{"s", DataType::kString}}));
  auto page = source.Next();
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->column(0).StrAt(1), "with,comma");
  EXPECT_EQ(page->column(0).StrAt(2), "with\"quote");
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileReportsError) {
  CsvPageSource source("/nonexistent/nope.csv", TpchSchema("orders"));
  EXPECT_FALSE(source.status().ok());
  EXPECT_EQ(source.Next(), nullptr);
}

TEST(PageSourceTest, GeneratorSourceStreams) {
  GeneratorPageSource source("customer", kSf, 0, 2, 256);
  int64_t rows = 0;
  while (auto page = source.Next()) rows += page->num_rows();
  EXPECT_EQ(rows, source.TotalRows());
  EXPECT_EQ(rows, 750);
}

}  // namespace
}  // namespace accordion
