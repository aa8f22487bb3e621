#include "plan/plan_node.h"

#include <sstream>

#include "common/logging.h"

namespace accordion {

const char* PlanNodeKindName(PlanNodeKind kind) {
  switch (kind) {
    case PlanNodeKind::kTableScan:
      return "TableScan";
    case PlanNodeKind::kFilter:
      return "Filter";
    case PlanNodeKind::kProject:
      return "Project";
    case PlanNodeKind::kHashJoin:
      return "HashJoin";
    case PlanNodeKind::kPartialAggregation:
      return "PartialAggregation";
    case PlanNodeKind::kFinalAggregation:
      return "FinalAggregation";
    case PlanNodeKind::kTopN:
      return "TopN";
    case PlanNodeKind::kLimit:
      return "Limit";
    case PlanNodeKind::kExchange:
      return "Exchange";
    case PlanNodeKind::kLocalExchange:
      return "LocalExchange";
    case PlanNodeKind::kOutput:
      return "Output";
    case PlanNodeKind::kValues:
      return "Values";
    case PlanNodeKind::kShufflePassThrough:
      return "Shuffle";
    case PlanNodeKind::kRemoteSource:
      return "RemoteSource";
  }
  return "?";
}

const char* PartitioningName(Partitioning partitioning) {
  switch (partitioning) {
    case Partitioning::kArbitrary:
      return "arbitrary";
    case Partitioning::kHash:
      return "hash";
    case Partitioning::kBroadcast:
      return "broadcast";
    case Partitioning::kGather:
      return "gather";
  }
  return "?";
}

const char* JoinTypeName(JoinType type) {
  switch (type) {
    case JoinType::kInner:
      return "inner";
    case JoinType::kLeft:
      return "left";
    case JoinType::kRight:
      return "right";
    case JoinType::kFull:
      return "full";
    case JoinType::kLeftSemi:
      return "semi";
    case JoinType::kLeftAnti:
      return "anti";
    case JoinType::kNullAwareAnti:
      return "null-aware anti";
    case JoinType::kMark:
      return "mark";
  }
  return "?";
}

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "?";
}

DataType Aggregate::ResultType() const {
  switch (func) {
    case AggFunc::kCount:
      return DataType::kInt64;
    case AggFunc::kAvg:
      return DataType::kDouble;
    case AggFunc::kSum:
      return IsIntegerBacked(input_type) ? DataType::kInt64 : DataType::kDouble;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return input_type;
  }
  return DataType::kInt64;
}

std::string PlanNode::ToString(int indent) const {
  std::ostringstream out;
  out << std::string(indent * 2, ' ') << Describe();
  if (kind_ == PlanNodeKind::kTableScan) {
    const auto& names = static_cast<const TableScanNode*>(this)->column_names();
    out << " columns=[";
    for (size_t i = 0; i < names.size(); ++i) {
      out << (i == 0 ? "" : ", ") << names[i];
    }
    out << "]";
  }
  if (estimated_rows_ >= 0) {
    out << "  [est. rows: " << static_cast<int64_t>(estimated_rows_) << "]";
  }
  out << "\n";
  for (const auto& child : children_) out << child->ToString(indent + 1);
  return out.str();
}

TableScanNode::TableScanNode(int id, const TableSchema& schema,
                             std::vector<int> columns)
    : PlanNode(PlanNodeKind::kTableScan, id,
               [&] {
                 std::vector<DataType> types;
                 types.reserve(columns.size());
                 for (int c : columns) types.push_back(schema.TypeOf(c));
                 return types;
               }(),
               {}),
      table_(schema.name()),
      columns_(std::move(columns)) {
  column_names_.reserve(columns_.size());
  for (int c : columns_) column_names_.push_back(schema.columns()[c].name);
}

ProjectNode::ProjectNode(int id, std::vector<ExprPtr> exprs, PlanNodePtr child)
    : PlanNode(PlanNodeKind::kProject, id,
               [&exprs] {
                 std::vector<DataType> types;
                 types.reserve(exprs.size());
                 for (const auto& e : exprs) types.push_back(e->type());
                 return types;
               }(),
               {child}),
      exprs_(std::move(exprs)) {}

std::string ProjectNode::Describe() const {
  std::string s = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i) s += ", ";
    s += exprs_[i]->ToString();
  }
  return s + ")";
}

namespace {

std::vector<DataType> JoinOutputTypes(const PlanNode& probe,
                                      const PlanNode& build,
                                      const std::vector<int>& build_channels,
                                      JoinType join_type) {
  std::vector<DataType> types = probe.output_types();
  if (JoinEmitsBuildColumns(join_type)) {
    for (int ch : build_channels) types.push_back(build.output_types()[ch]);
  } else if (join_type == JoinType::kMark) {
    types.push_back(DataType::kBool);
  }
  return types;
}

}  // namespace

HashJoinNode::HashJoinNode(int id, PlanNodePtr probe, PlanNodePtr build,
                           std::vector<int> probe_keys,
                           std::vector<int> build_keys,
                           std::vector<int> build_output_channels,
                           JoinType join_type)
    : PlanNode(PlanNodeKind::kHashJoin, id,
               JoinOutputTypes(*probe, *build, build_output_channels,
                               join_type),
               {probe, build}),
      probe_keys_(std::move(probe_keys)),
      build_keys_(std::move(build_keys)),
      build_output_channels_(std::move(build_output_channels)),
      join_type_(join_type) {
  ACC_CHECK(probe_keys_.size() == build_keys_.size())
      << "join key arity mismatch";
  ACC_CHECK(!probe_keys_.empty()) << "hash join needs at least one key";
  ACC_CHECK(JoinEmitsBuildColumns(join_type_) ||
            build_output_channels_.empty())
      << "semi/anti/mark joins emit no build columns";
}

std::string HashJoinNode::Describe() const {
  std::string s = "HashJoin[";
  s += JoinTypeName(join_type_);
  s += "](";
  for (size_t i = 0; i < probe_keys_.size(); ++i) {
    if (i) s += " AND ";
    s += "probe#" + std::to_string(probe_keys_[i]) + " = build#" +
         std::to_string(build_keys_[i]);
  }
  return s + ")";
}

std::string AggregationBaseNode::Describe() const {
  std::string s = std::string(PlanNodeKindName(kind())) + "(keys=[";
  for (size_t i = 0; i < group_by_.size(); ++i) {
    if (i) s += ",";
    s += "#" + std::to_string(group_by_[i]);
  }
  s += "] aggs=[";
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (i) s += ",";
    s += AggFuncName(aggregates_[i].func);
    s += "(#" + std::to_string(aggregates_[i].input_channel) + ")";
  }
  return s + "])";
}

std::vector<DataType> PartialAggregationNode::PartialTypes(
    const PlanNode& child, const std::vector<int>& group_by,
    const std::vector<Aggregate>& aggs) {
  std::vector<DataType> types;
  for (int ch : group_by) types.push_back(child.output_types()[ch]);
  for (const auto& agg : aggs) {
    switch (agg.func) {
      case AggFunc::kCount:
        types.push_back(DataType::kInt64);
        break;
      case AggFunc::kSum:
        types.push_back(agg.ResultType());
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        types.push_back(agg.input_type);
        break;
      case AggFunc::kAvg:
        types.push_back(DataType::kDouble);  // running sum
        types.push_back(DataType::kInt64);   // running count
        break;
    }
  }
  return types;
}

PartialAggregationNode::PartialAggregationNode(int id,
                                               std::vector<int> group_by,
                                               std::vector<Aggregate> aggs,
                                               PlanNodePtr child)
    : AggregationBaseNode(PlanNodeKind::kPartialAggregation, id,
                          PartialTypes(*child, group_by, aggs), group_by, aggs,
                          child) {}

std::vector<DataType> FinalAggregationNode::FinalTypes(
    const PlanNode& partial_child, const std::vector<int>& group_by,
    const std::vector<Aggregate>& aggs) {
  // Input is the partial layout: keys first, then state columns.
  std::vector<DataType> types;
  for (size_t i = 0; i < group_by.size(); ++i) {
    types.push_back(partial_child.output_types()[i]);
  }
  for (const auto& agg : aggs) types.push_back(agg.ResultType());
  return types;
}

FinalAggregationNode::FinalAggregationNode(int id, std::vector<int> group_by,
                                           std::vector<Aggregate> aggs,
                                           PlanNodePtr child)
    : AggregationBaseNode(PlanNodeKind::kFinalAggregation, id,
                          FinalTypes(*child, group_by, aggs), group_by, aggs,
                          child) {}

std::string TopNNode::Describe() const {
  std::string s = partial_ ? "PartialTopN(" : "TopN(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i) s += ",";
    s += "#" + std::to_string(keys_[i].channel);
    s += keys_[i].ascending ? " asc" : " desc";
  }
  return s + " limit=" + std::to_string(limit_) + ")";
}

std::string ExchangeNode::Describe() const {
  return std::string("Exchange[") + PartitioningName(partitioning_) + "]";
}

std::string LocalExchangeNode::Describe() const {
  return std::string("LocalExchange[") + PartitioningName(partitioning_) + "]";
}

}  // namespace accordion
