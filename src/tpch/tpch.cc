#include "tpch/tpch.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/random.h"
#include "optimizer/stats.h"
#include "storage/page_source.h"

namespace accordion {
namespace {

constexpr int64_t kCustomersPerSf = 150000;
constexpr int64_t kOrdersPerSf = 1500000;
constexpr int64_t kSuppliersPerSf = 10000;
constexpr int64_t kPartsPerSf = 200000;
constexpr int64_t kPartsuppPerSf = 800000;

const char* kNationNames[25] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN",
    "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
const int kNationRegion[25] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                               4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};
const char* kRegionNames[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                               "MIDDLE EAST"};
const char* kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                            "MACHINERY"};
const char* kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                              "4-NOT SPECIFIED", "5-LOW"};
const char* kShipModes[7] = {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK",
                             "MAIL", "FOB"};
const char* kShipInstructs[4] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                                 "TAKE BACK RETURN"};
const char* kContainers[8] = {"SM CASE", "SM BOX", "MED BAG", "MED BOX",
                              "LG CASE", "LG BOX", "JUMBO PACK", "WRAP JAR"};
const char* kTypes[6] = {"STANDARD ANODIZED", "SMALL PLATED", "MEDIUM BRUSHED",
                         "ECONOMY BURNISHED", "LARGE POLISHED",
                         "PROMO ANODIZED"};
const char* kMaterials[5] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};

// Order-date window from the TPC-H spec.
const int64_t kStartDate = ParseDate("1992-01-01");
const int64_t kEndDate = ParseDate("1998-08-02");
// Status cut-off: line items shipped after it are open ("O"), and so are
// orders placed less than 90 days before it.
const int64_t kStatusDate = ParseDate("1995-06-17");

uint64_t Splitmix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t TableSeed(const std::string& table) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : table) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return h;
}

/// Per-row deterministic RNG: generation order never affects values.
Random RowRng(uint64_t table_seed, int64_t row) {
  return Random(Splitmix(table_seed ^ static_cast<uint64_t>(row)));
}

int64_t LinesPerOrder(int64_t orderkey) {
  return 1 + static_cast<int64_t>(Splitmix(static_cast<uint64_t>(orderkey) ^
                                           0xC0FFEE) %
                                  7);
}

double PartRetailPrice(int64_t partkey) {
  return 900.0 + static_cast<double>(partkey % 1000) + 0.01 * (partkey % 100);
}

// Line-item channels whose values take random draws (all but l_orderkey
// and l_linenumber), and those derived from the order date (8..15; the
// return flag's draw depends on it, so the draws after it do too).
constexpr uint64_t kLineitemDrawnColumns = 0xFFFFull & ~0x9ull;
constexpr uint64_t kLineitemDatedColumns = 0xFF00ull;

/// Position of `table` in TpchTableNames(), which the generator's table
/// enum follows.
int TableIndex(const std::string& table) {
  const auto& names = TpchTableNames();
  auto it = std::find(names.begin(), names.end(), table);
  ACC_CHECK(it != names.end()) << "unknown TPC-H table: " << table;
  return static_cast<int>(it - names.begin());
}

}  // namespace

/// One page under construction: a column per schema channel, of which
/// only the projected ones are ever appended to. Values of the others are
/// still drawn by the callers, so the row's RNG stays in step.
struct TpchSplitGenerator::Builder {
  std::vector<Column> cols;
  uint64_t wanted;

  bool Wants(int c) const { return (wanted >> c) & 1; }
  void Int(int c, int64_t v) {
    if (Wants(c)) cols[c].AppendInt(v);
  }
  void Double(int c, double v) {
    if (Wants(c)) cols[c].AppendDouble(v);
  }
  void Str(int c, const char* v) {
    if (Wants(c)) cols[c].AppendStr(v);
  }
  /// `prefix` followed by `n`, as in "Clerk#17".
  void Numbered(int c, const char* prefix, int64_t n) {
    if (Wants(c)) cols[c].AppendStr(prefix + std::to_string(n));
  }
  /// A random string of `len` characters, or only the draws it would take.
  void RandomStr(int c, Random* rng, int len) {
    if (Wants(c)) {
      cols[c].AppendStr(rng->NextString(len));
    } else {
      rng->Skip(len);
    }
  }
  /// A phone number "CC-555-NNNN". The local number is drawn first; the
  /// draw order is part of the generated data and must not change.
  void Phone(int c, Random* rng) {
    int64_t local = rng->NextInt(1000, 9999);
    int64_t country = 10 + rng->NextInt(0, 24);
    if (Wants(c)) {
      cols[c].AppendStr(std::to_string(country) + "-555-" +
                        std::to_string(local));
    }
  }
};

const std::vector<std::string>& TpchTableNames() {
  static const std::vector<std::string> kNames = {
      "nation", "region",   "supplier", "part",
      "partsupp", "customer", "orders",   "lineitem"};
  return kNames;
}

TableSchema TpchSchema(const std::string& table) {
  using DT = DataType;
  if (table == "nation") {
    return TableSchema("nation", {{"n_nationkey", DT::kInt64},
                                  {"n_name", DT::kString},
                                  {"n_regionkey", DT::kInt64},
                                  {"n_comment", DT::kString}});
  }
  if (table == "region") {
    return TableSchema("region", {{"r_regionkey", DT::kInt64},
                                  {"r_name", DT::kString},
                                  {"r_comment", DT::kString}});
  }
  if (table == "supplier") {
    return TableSchema("supplier", {{"s_suppkey", DT::kInt64},
                                    {"s_name", DT::kString},
                                    {"s_address", DT::kString},
                                    {"s_nationkey", DT::kInt64},
                                    {"s_phone", DT::kString},
                                    {"s_acctbal", DT::kDouble},
                                    {"s_comment", DT::kString}});
  }
  if (table == "part") {
    return TableSchema("part", {{"p_partkey", DT::kInt64},
                                {"p_name", DT::kString},
                                {"p_mfgr", DT::kString},
                                {"p_brand", DT::kString},
                                {"p_type", DT::kString},
                                {"p_size", DT::kInt64},
                                {"p_container", DT::kString},
                                {"p_retailprice", DT::kDouble},
                                {"p_comment", DT::kString}});
  }
  if (table == "partsupp") {
    return TableSchema("partsupp", {{"ps_partkey", DT::kInt64},
                                    {"ps_suppkey", DT::kInt64},
                                    {"ps_availqty", DT::kInt64},
                                    {"ps_supplycost", DT::kDouble},
                                    {"ps_comment", DT::kString}});
  }
  if (table == "customer") {
    return TableSchema("customer", {{"c_custkey", DT::kInt64},
                                    {"c_name", DT::kString},
                                    {"c_address", DT::kString},
                                    {"c_nationkey", DT::kInt64},
                                    {"c_phone", DT::kString},
                                    {"c_acctbal", DT::kDouble},
                                    {"c_mktsegment", DT::kString},
                                    {"c_comment", DT::kString}});
  }
  if (table == "orders") {
    return TableSchema("orders", {{"o_orderkey", DT::kInt64},
                                  {"o_custkey", DT::kInt64},
                                  {"o_orderstatus", DT::kString},
                                  {"o_totalprice", DT::kDouble},
                                  {"o_orderdate", DT::kDate},
                                  {"o_orderpriority", DT::kString},
                                  {"o_clerk", DT::kString},
                                  {"o_shippriority", DT::kInt64},
                                  {"o_comment", DT::kString}});
  }
  if (table == "lineitem") {
    return TableSchema("lineitem", {{"l_orderkey", DT::kInt64},
                                    {"l_partkey", DT::kInt64},
                                    {"l_suppkey", DT::kInt64},
                                    {"l_linenumber", DT::kInt64},
                                    {"l_quantity", DT::kDouble},
                                    {"l_extendedprice", DT::kDouble},
                                    {"l_discount", DT::kDouble},
                                    {"l_tax", DT::kDouble},
                                    {"l_returnflag", DT::kString},
                                    {"l_linestatus", DT::kString},
                                    {"l_shipdate", DT::kDate},
                                    {"l_commitdate", DT::kDate},
                                    {"l_receiptdate", DT::kDate},
                                    {"l_shipinstruct", DT::kString},
                                    {"l_shipmode", DT::kString},
                                    {"l_comment", DT::kString}});
  }
  ACC_CHECK(false) << "unknown TPC-H table: " << table;
  return TableSchema();
}

int64_t TpchRowCount(const std::string& table, double sf) {
  auto scaled = [sf](int64_t base) {
    return std::max<int64_t>(1, static_cast<int64_t>(std::llround(base * sf)));
  };
  if (table == "nation") return 25;
  if (table == "region") return 5;
  if (table == "supplier") return scaled(kSuppliersPerSf);
  if (table == "part") return scaled(kPartsPerSf);
  if (table == "partsupp") return scaled(kPartsuppPerSf);
  if (table == "customer") return scaled(kCustomersPerSf);
  if (table == "orders") return scaled(kOrdersPerSf);
  if (table == "lineitem") return scaled(kOrdersPerSf) * 4;  // approx
  ACC_CHECK(false) << "unknown TPC-H table: " << table;
  return 0;
}

Catalog MakeTpchCatalog(double scale_factor, int num_storage_nodes) {
  // Statistics sample per table: enough rows for stable NDV / min-max
  // estimates, small enough that catalog construction stays cheap in
  // tests that build many clusters.
  constexpr int64_t kStatsSampleRows = 8192;
  Catalog catalog;
  for (const auto& table : TpchTableNames()) {
    TableLayout layout;
    if (table == "nation" || table == "region") {
      layout = {1, 1};  // 1 node, 1 split/node (paper Table 1)
    } else if (table == "lineitem") {
      layout = {num_storage_nodes, 7};  // 7 splits/node
    } else {
      layout = {num_storage_nodes, 1};
    }
    catalog.AddTable(TpchSchema(table), layout);
    // Load-time statistics pass: scan a prefix of the (deterministic)
    // generated data and extrapolate to the exact table row count — the
    // same pass CSV ingest runs via CollectCsvSplitStats.
    GeneratorPageSource source(table, scale_factor, 0, 1);
    catalog.SetStats(table, CollectStats(TpchSchema(table), &source,
                                         kStatsSampleRows,
                                         source.TotalRows()));
  }
  return catalog;
}

TpchSplitGenerator::TpchSplitGenerator(std::string table, double scale_factor,
                                       int split_index, int split_count,
                                       int64_t batch_rows,
                                       std::vector<int> columns)
    : table_(static_cast<Table>(TableIndex(table))),
      schema_(TpchSchema(table)),
      columns_(std::move(columns)),
      batch_rows_(batch_rows),
      table_seed_(TableSeed(table)),
      orders_seed_(TableSeed("orders")),
      customers_(TpchRowCount("customer", scale_factor)),
      parts_(TpchRowCount("part", scale_factor)),
      suppliers_(TpchRowCount("supplier", scale_factor)) {
  ACC_CHECK(split_index >= 0 && split_index < split_count)
      << "bad split " << split_index << "/" << split_count;
  if (columns_.empty()) {
    for (int c = 0; c < schema_.num_columns(); ++c) columns_.push_back(c);
  }
  for (int c : columns_) {
    ACC_CHECK(c >= 0 && c < schema_.num_columns() && !((wanted_ >> c) & 1))
        << "table " << table << ": bad or repeated channel " << c;
    wanted_ |= uint64_t{1} << c;
  }
  if (table_ == Table::kLineitem) {
    // Partition by order range; derive exact line counts.
    int64_t orders = TpchRowCount("orders", scale_factor);
    begin_ = 1 + orders * split_index / split_count;
    end_ = 1 + orders * (split_index + 1) / split_count;
    for (int64_t o = begin_; o < end_; ++o) total_rows_ += LinesPerOrder(o);
  } else {
    int64_t rows = TpchRowCount(table, scale_factor);
    begin_ = rows * split_index / split_count;
    end_ = rows * (split_index + 1) / split_count;
    total_rows_ = end_ - begin_;
  }
  cursor_ = begin_;
}

PagePtr TpchSplitGenerator::NextPage() {
  if (cursor_ >= end_) return nullptr;
  Builder b{{}, wanted_};
  b.cols.reserve(schema_.num_columns());
  for (const auto& def : schema_.columns()) b.cols.emplace_back(def.type);
  int64_t produced = 0;
  while (cursor_ < end_ && produced < batch_rows_) {
    switch (table_) {
      case Table::kNation:
        AppendNation(&b);
        break;
      case Table::kRegion:
        AppendRegion(&b);
        break;
      case Table::kSupplier:
        AppendSupplier(&b);
        break;
      case Table::kPart:
        AppendPart(&b);
        break;
      case Table::kPartsupp:
        AppendPartsupp(&b);
        break;
      case Table::kCustomer:
        AppendCustomer(&b);
        break;
      case Table::kOrders:
        AppendOrders(&b);
        break;
      case Table::kLineitem:
        if (!AppendLineitem(&b)) continue;
        break;
    }
    ++produced;
  }
  if (produced == 0) return nullptr;
  std::vector<Column> out;
  out.reserve(columns_.size());
  for (int c : columns_) out.push_back(std::move(b.cols[c]));
  return Page::Make(std::move(out));
}

void TpchSplitGenerator::AppendNation(Builder* b) {
  int64_t i = cursor_++;
  Random rng = RowRng(table_seed_, i);
  b->Int(0, i);
  b->Str(1, kNationNames[i]);
  b->Int(2, kNationRegion[i]);
  b->RandomStr(3, &rng, 20);
}

void TpchSplitGenerator::AppendRegion(Builder* b) {
  int64_t i = cursor_++;
  Random rng = RowRng(table_seed_, i);
  b->Int(0, i);
  b->Str(1, kRegionNames[i]);
  b->RandomStr(2, &rng, 20);
}

void TpchSplitGenerator::AppendSupplier(Builder* b) {
  int64_t key = ++cursor_;  // 1-based keys
  Random rng = RowRng(table_seed_, key);
  b->Int(0, key);
  b->Numbered(1, "Supplier#", key);
  b->RandomStr(2, &rng, 15);
  b->Int(3, rng.NextInt(0, 24));
  b->Phone(4, &rng);
  b->Double(5, rng.NextDouble() * 10000 - 1000);
  b->RandomStr(6, &rng, 25);
}

void TpchSplitGenerator::AppendPart(Builder* b) {
  int64_t key = ++cursor_;
  Random rng = RowRng(table_seed_, key);
  b->Int(0, key);
  // p_name "<material> <suffix>" and p_type "<type> <material>" draw their
  // last word first; the draw order is part of the generated data.
  if (b->Wants(1)) {
    std::string suffix = rng.NextString(8);
    const char* material = kMaterials[rng.NextInt(0, 4)];
    b->cols[1].AppendStr(std::string(material) + " " + suffix);
  } else {
    rng.Skip(9);
  }
  b->Numbered(2, "Manufacturer#", rng.NextInt(1, 5));
  b->Numbered(3, "Brand#", rng.NextInt(11, 55));
  if (b->Wants(4)) {
    const char* material = kMaterials[rng.NextInt(0, 4)];
    const char* type = kTypes[rng.NextInt(0, 5)];
    b->cols[4].AppendStr(std::string(type) + " " + material);
  } else {
    rng.Skip(2);
  }
  b->Int(5, rng.NextInt(1, 50));
  b->Str(6, kContainers[rng.NextInt(0, 7)]);
  b->Double(7, PartRetailPrice(key));
  b->RandomStr(8, &rng, 15);
}

void TpchSplitGenerator::AppendPartsupp(Builder* b) {
  int64_t i = cursor_++;
  Random rng = RowRng(table_seed_, i);
  // 4 suppliers per part.
  int64_t partkey = 1 + i / 4;
  b->Int(0, partkey);
  b->Int(1, 1 + (partkey + (i % 4) * (suppliers_ / 4 + 1)) % suppliers_);
  b->Int(2, rng.NextInt(1, 9999));
  b->Double(3, rng.NextDouble() * 1000 + 1);
  b->RandomStr(4, &rng, 20);
}

void TpchSplitGenerator::AppendCustomer(Builder* b) {
  int64_t key = ++cursor_;
  Random rng = RowRng(table_seed_, key);
  b->Int(0, key);
  b->Numbered(1, "Customer#", key);
  b->RandomStr(2, &rng, 15);
  b->Int(3, rng.NextInt(0, 24));
  b->Phone(4, &rng);
  b->Double(5, rng.NextDouble() * 10000 - 1000);
  b->Str(6, kSegments[rng.NextInt(0, 4)]);
  b->RandomStr(7, &rng, 25);
}

void TpchSplitGenerator::AppendOrders(Builder* b) {
  int64_t key = ++cursor_;
  Random rng = RowRng(table_seed_, key);
  int64_t orderdate = kStartDate + rng.NextInt(0, kEndDate - kStartDate);
  b->Int(0, key);
  b->Int(1, rng.NextInt(1, customers_));
  b->Str(2, orderdate + 90 < kStatusDate ? "F" : "O");
  b->Double(3, 1000 + rng.NextDouble() * 450000);
  b->Int(4, orderdate);
  b->Str(5, kPriorities[rng.NextInt(0, 4)]);
  b->Numbered(6, "Clerk#", rng.NextInt(1, 1000));
  b->Int(7, 0);
  b->RandomStr(8, &rng, 30);
}

bool TpchSplitGenerator::AppendLineitem(Builder* b) {
  int64_t orderkey = cursor_;
  if (line_in_order_ >= LinesPerOrder(orderkey)) {
    ++cursor_;
    line_in_order_ = 0;
    return false;
  }
  int64_t line = ++line_in_order_;
  b->Int(0, orderkey);
  b->Int(3, line);
  if ((wanted_ & kLineitemDrawnColumns) == 0) return true;
  Random rng = RowRng(table_seed_, orderkey * 8 + line);
  int64_t partkey = rng.NextInt(1, parts_);
  double quantity = static_cast<double>(rng.NextInt(1, 50));
  int64_t ship_days = rng.NextInt(1, 121);
  int64_t commit_days = rng.NextInt(30, 90);
  int64_t receipt_days = rng.NextInt(1, 30);
  b->Int(1, partkey);
  b->Int(2, rng.NextInt(1, suppliers_));
  b->Double(4, quantity);
  b->Double(5, quantity * PartRetailPrice(partkey));
  b->Double(6, 0.01 * rng.NextInt(0, 10));
  b->Double(7, 0.01 * rng.NextInt(0, 8));
  if ((wanted_ & kLineitemDatedColumns) == 0) return true;
  // Must match the order row's date: re-derive it deterministically.
  Random order_rng = RowRng(orders_seed_, orderkey);
  int64_t orderdate = kStartDate + order_rng.NextInt(0, kEndDate - kStartDate);
  int64_t shipdate = orderdate + ship_days;
  int64_t receiptdate = shipdate + receipt_days;
  // Only received items draw their return flag.
  b->Str(8, receiptdate <= kStatusDate ? (rng.NextInt(0, 1) ? "R" : "A")
                                       : "N");
  b->Str(9, shipdate > kStatusDate ? "O" : "F");
  b->Int(10, shipdate);
  b->Int(11, orderdate + commit_days);
  b->Int(12, receiptdate);
  b->Str(13, kShipInstructs[rng.NextInt(0, 3)]);
  b->Str(14, kShipModes[rng.NextInt(0, 6)]);
  b->RandomStr(15, &rng, 20);
  return true;
}

std::vector<PagePtr> GenerateSplit(const std::string& table,
                                   double scale_factor, int split_index,
                                   int split_count, int64_t batch_rows) {
  TpchSplitGenerator gen(table, scale_factor, split_index, split_count,
                         batch_rows);
  std::vector<PagePtr> pages;
  while (PagePtr page = gen.NextPage()) pages.push_back(page);
  return pages;
}

int64_t TpchTableBytes(const std::string& table, double scale_factor,
                       int split_count) {
  int64_t bytes = 0;
  for (int s = 0; s < split_count; ++s) {
    TpchSplitGenerator gen(table, scale_factor, s, split_count, 4096);
    while (PagePtr page = gen.NextPage()) bytes += page->ByteSize();
  }
  return bytes;
}

}  // namespace accordion
