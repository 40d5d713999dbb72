#include "src/optimizer/physical.h"

#include <cstdio>

namespace dhqp {

const char* PhysicalOpKindName(PhysicalOpKind kind) {
  switch (kind) {
    case PhysicalOpKind::kTableScan:
      return "TableScan";
    case PhysicalOpKind::kIndexRange:
      return "IndexRange";
    case PhysicalOpKind::kFilter:
      return "Filter";
    case PhysicalOpKind::kStartupFilter:
      return "StartupFilter";
    case PhysicalOpKind::kProject:
      return "Project";
    case PhysicalOpKind::kHashJoin:
      return "HashJoin";
    case PhysicalOpKind::kNestedLoopsJoin:
      return "NestedLoopsJoin";
    case PhysicalOpKind::kMergeJoin:
      return "MergeJoin";
    case PhysicalOpKind::kHashAggregate:
      return "HashAggregate";
    case PhysicalOpKind::kStreamAggregate:
      return "StreamAggregate";
    case PhysicalOpKind::kSort:
      return "Sort";
    case PhysicalOpKind::kTop:
      return "Top";
    case PhysicalOpKind::kConcat:
      return "Concat";
    case PhysicalOpKind::kConstTable:
      return "ConstTable";
    case PhysicalOpKind::kEmptyTable:
      return "EmptyTable";
    case PhysicalOpKind::kSpool:
      return "Spool";
    case PhysicalOpKind::kRemoteQuery:
      return "RemoteQuery";
    case PhysicalOpKind::kRemoteScan:
      return "RemoteScan";
    case PhysicalOpKind::kRemoteRange:
      return "RemoteRange";
    case PhysicalOpKind::kRemoteFetch:
      return "RemoteFetch";
    case PhysicalOpKind::kFullTextLookup:
      return "FullTextLookup";
    case PhysicalOpKind::kExchange:
      return "Exchange";
  }
  return "?";
}

bool IsRemoteOp(PhysicalOpKind kind) {
  switch (kind) {
    case PhysicalOpKind::kRemoteScan:
    case PhysicalOpKind::kRemoteRange:
    case PhysicalOpKind::kRemoteFetch:
    case PhysicalOpKind::kRemoteQuery:
      return true;
    default:
      return false;
  }
}

const char* ExchangeKindName(ExchangeKind kind) {
  switch (kind) {
    case ExchangeKind::kGather:
      return "gather";
    case ExchangeKind::kRepartitionHash:
      return "repartition";
    case ExchangeKind::kDistribute:
      return "distribute";
  }
  return "?";
}

std::string PhysicalOp::Describe() const {
  std::string out = PhysicalOpKindName(kind);
  switch (kind) {
    case PhysicalOpKind::kTableScan:
    case PhysicalOpKind::kRemoteScan:
      out += "(" + table.metadata.name;
      if (!table.server_name.empty()) out = out + " @" + table.server_name;
      out += ")";
      break;
    case PhysicalOpKind::kIndexRange:
    case PhysicalOpKind::kRemoteRange:
    case PhysicalOpKind::kRemoteFetch:
      out += "(" + table.metadata.name + "." + index_name;
      if (!table.server_name.empty()) out += " @" + table.server_name;
      out += ")";
      break;
    case PhysicalOpKind::kFilter:
    case PhysicalOpKind::kStartupFilter:
      if (predicate) out += "[" + predicate->ToString() + "]";
      break;
    case PhysicalOpKind::kHashJoin:
    case PhysicalOpKind::kNestedLoopsJoin:
    case PhysicalOpKind::kMergeJoin: {
      out += std::string("(") + JoinTypeName(join_type);
      if (!key_pairs.empty()) {
        out += ", keys:";
        for (size_t i = 0; i < key_pairs.size(); ++i) {
          if (i) out += ",";
          out += key_pairs[i].first->ToString() + "=" +
                 key_pairs[i].second->ToString();
        }
      }
      if (predicate) out += ", residual:" + predicate->ToString();
      out += ")";
      break;
    }
    case PhysicalOpKind::kSort: {
      out += "(";
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i) out += ",";
        out += "#" + std::to_string(sort_keys[i].first) +
               (sort_keys[i].second ? " asc" : " desc");
      }
      out += ")";
      break;
    }
    case PhysicalOpKind::kTop:
      out += "(" + std::to_string(limit) + ")";
      break;
    case PhysicalOpKind::kRemoteQuery:
      out += "(@" + table.server_name + ": " + remote_sql + ")";
      break;
    case PhysicalOpKind::kFullTextLookup:
      out += "(" + ft_table + ": '" + ft_query + "')";
      break;
    case PhysicalOpKind::kExchange: {
      out += std::string("(") + ExchangeKindName(exchange);
      int producers = children.empty() ? 1 : children[0]->dop;
      out += ", " + std::to_string(producers > 0 ? producers : 1) + "->" +
             std::to_string(dop > 0 ? dop : 1);
      if (!exchange_keys.empty()) {
        out += ", keys:";
        for (size_t i = 0; i < exchange_keys.size(); ++i) {
          if (i) out += ",";
          out += "#" + std::to_string(exchange_keys[i]);
        }
      }
      out += ")";
      break;
    }
    default:
      break;
  }
  if (dop > 1 && kind != PhysicalOpKind::kExchange) {
    out += " [dop=" + std::to_string(dop) + "]";
  }
  return out;
}

std::string PhysicalOp::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  char annot[64];
  std::snprintf(annot, sizeof(annot), "  [rows=%.1f cost=%.1f]",
                estimated_rows, estimated_cost);
  std::string out = pad + Describe() + annot + "\n";
  for (const PhysicalOpPtr& child : children) {
    out += child->ToString(indent + 1);
  }
  return out;
}

std::string PhysicalOp::ToStringWithIds(int indent, int* next_id) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  char buf[64];
  std::snprintf(buf, sizeof(buf), "#%d ", (*next_id)++);
  std::string out = pad + buf + Describe();
  std::snprintf(buf, sizeof(buf), "  [rows=%.1f cost=%.1f]", estimated_rows,
                estimated_cost);
  out += buf;
  out += "\n";
  // Pre-order ids: a shared subplan (memo winner reused under two parents)
  // gets a distinct id per occurrence, matching the exec-tree profiles.
  for (const PhysicalOpPtr& child : children) {
    out += child->ToStringWithIds(indent + 1, next_id);
  }
  return out;
}

PhysicalOpBuilder NewPhysicalOp(PhysicalOpKind kind) {
  auto op = std::make_shared<PhysicalOp>();
  op->kind = kind;
  return op;
}

}  // namespace dhqp
