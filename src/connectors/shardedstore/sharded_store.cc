#include "connectors/shardedstore/sharded_store.h"

#include <algorithm>
#include <set>
#include <thread>

#include "common/check.h"
#include "common/json.h"
#include "vector/block_builder.h"

namespace presto {

namespace {

class ShardedTableHandle final : public TableHandle {
 public:
  ShardedTableHandle(std::string name, RowSchema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}
  const std::string& name() const override { return name_; }
  const RowSchema& schema() const override { return schema_; }

 private:
  std::string name_;
  RowSchema schema_;
};

class ShardSplit final : public Split {
 public:
  ShardSplit(std::string table, int shard)
      : table_(std::move(table)), shard_(shard) {}
  const std::string& table() const { return table_; }
  int shard() const { return shard_; }
  std::string ToString() const override {
    return "shard:" + table_ + "/" + std::to_string(shard_);
  }

 private:
  std::string table_;
  int shard_;
};

class VectorSplitSource final : public SplitSource {
 public:
  explicit VectorSplitSource(std::vector<SplitPtr> splits)
      : splits_(std::move(splits)) {}
  Result<std::vector<SplitPtr>> NextBatch(int max_batch) override {
    std::vector<SplitPtr> out;
    while (pos_ < splits_.size() && static_cast<int>(out.size()) < max_batch) {
      out.push_back(splits_[pos_++]);
    }
    return out;
  }

 private:
  std::vector<SplitPtr> splits_;
  size_t pos_ = 0;
};

// True if `v` satisfies `pred`.
bool Matches(const Value& v, const ColumnPredicate& pred) {
  if (v.is_null()) return false;
  switch (pred.op) {
    case ColumnPredicate::Op::kEq:
      return v.SqlEquals(pred.values[0]);
    case ColumnPredicate::Op::kNeq:
      return !v.SqlEquals(pred.values[0]);
    case ColumnPredicate::Op::kLt:
      return v.Compare(pred.values[0]) < 0;
    case ColumnPredicate::Op::kLte:
      return v.Compare(pred.values[0]) <= 0;
    case ColumnPredicate::Op::kGt:
      return v.Compare(pred.values[0]) > 0;
    case ColumnPredicate::Op::kGte:
      return v.Compare(pred.values[0]) >= 0;
    case ColumnPredicate::Op::kIn:
      for (const auto& item : pred.values) {
        if (v.SqlEquals(item)) return true;
      }
      return false;
  }
  return false;
}

// One page of selected columns from boxed rows.
class RowsDataSource final : public DataSource {
 public:
  RowsDataSource(std::vector<std::vector<Value>> rows,
                 std::vector<TypeKind> types, std::vector<int> columns,
                 int64_t latency_micros)
      : rows_(std::move(rows)),
        types_(std::move(types)),
        columns_(std::move(columns)),
        latency_micros_(latency_micros) {}

  Result<std::optional<Page>> NextPage() override {
    if (done_) return std::optional<Page>();
    done_ = true;
    if (latency_micros_ > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(latency_micros_));
    }
    if (rows_.empty()) return std::optional<Page>();
    std::vector<TypeKind> out_types;
    for (int c : columns_) out_types.push_back(types_[static_cast<size_t>(c)]);
    PageBuilder builder(out_types);
    for (const auto& row : rows_) {
      std::vector<Value> projected;
      projected.reserve(columns_.size());
      for (int c : columns_) projected.push_back(row[static_cast<size_t>(c)]);
      builder.AppendRow(projected);
    }
    return std::optional<Page>(builder.Build());
  }

 private:
  std::vector<std::vector<Value>> rows_;
  std::vector<TypeKind> types_;
  std::vector<int> columns_;
  int64_t latency_micros_;
  bool done_ = false;
};

}  // namespace

class ShardedStoreConnector::Metadata final : public ConnectorMetadata {
 public:
  explicit Metadata(ShardedStoreConnector* parent) : parent_(parent) {}

  std::vector<std::string> ListTables() const override {
    std::lock_guard<std::mutex> lock(parent_->mu_);
    std::vector<std::string> names;
    for (const auto& [name, _] : parent_->tables_) names.push_back(name);
    return names;
  }

  Result<TableHandlePtr> GetTable(const std::string& name) const override {
    std::lock_guard<std::mutex> lock(parent_->mu_);
    auto it = parent_->tables_.find(name);
    if (it == parent_->tables_.end()) {
      return Status::NotFound("sharded table not found: " + name);
    }
    return TableHandlePtr(
        std::make_shared<ShardedTableHandle>(name, it->second->schema));
  }

  Result<TableStats> GetStats(const TableHandle& table) const override {
    std::lock_guard<std::mutex> lock(parent_->mu_);
    auto it = parent_->tables_.find(table.name());
    if (it == parent_->tables_.end()) {
      return Status::NotFound("sharded table not found: " + table.name());
    }
    return it->second->stats.Build();
  }

  std::vector<DataLayout> GetLayouts(const TableHandle& table) const override {
    std::lock_guard<std::mutex> lock(parent_->mu_);
    auto it = parent_->tables_.find(table.name());
    if (it == parent_->tables_.end()) return {};
    DataLayout layout;
    layout.id = "indexed";
    layout.index_columns = it->second->index_columns;
    return {layout};
  }

  PushdownSupport GetPushdownSupport(
      const TableHandle& table, const ColumnPredicate& pred) const override {
    std::lock_guard<std::mutex> lock(parent_->mu_);
    auto it = parent_->tables_.find(table.name());
    if (it == parent_->tables_.end()) return PushdownSupport::kUnsupported;
    const auto& indexed = it->second->index_columns;
    // Predicates on indexed columns are enforced exactly inside the shards
    // (§IV-C2: "only matching data is ever read").
    if (std::find(indexed.begin(), indexed.end(), pred.column) !=
        indexed.end()) {
      return PushdownSupport::kExact;
    }
    return PushdownSupport::kUnsupported;
  }

  /// Connector-level mutators (CreateTable/LoadTable) funnel through this
  /// to reach the protected version bump.
  void Bump(const std::string& table) { BumpTableVersion(table); }

 private:
  ShardedStoreConnector* parent_;
};

ShardedStoreConnector::ShardedStoreConnector(std::string name,
                                             ShardedStoreConfig config)
    : name_(std::move(name)),
      config_(config),
      metadata_(std::make_unique<Metadata>(this)) {}

ShardedStoreConnector::~ShardedStoreConnector() = default;

ConnectorMetadata& ShardedStoreConnector::metadata() { return *metadata_; }

Status ShardedStoreConnector::CreateTable(
    const std::string& table_name, RowSchema schema,
    const std::string& shard_column,
    std::vector<std::string> index_columns) {
  if (!schema.IndexOf(shard_column).has_value()) {
    return Status::InvalidArgument("shard column not in schema: " +
                                   shard_column);
  }
  for (const auto& col : index_columns) {
    if (!schema.IndexOf(col).has_value()) {
      return Status::InvalidArgument("index column not in schema: " + col);
    }
  }
  if (std::find(index_columns.begin(), index_columns.end(), shard_column) ==
      index_columns.end()) {
    index_columns.push_back(shard_column);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto info = std::make_shared<TableInfo>();
    info->schema = std::move(schema);
    info->shard_column = shard_column;
    info->index_columns = std::move(index_columns);
    info->stats = ColumnStatsBuilder(info->schema);
    for (int s = 0; s < config_.num_shards; ++s) {
      info->shards.push_back(std::make_shared<Shard>());
    }
    tables_[table_name] = std::move(info);
  }
  metadata_->Bump(table_name);
  return Status::OK();
}

Status ShardedStoreConnector::LoadTable(const std::string& table_name,
                                        const std::vector<Page>& pages) {
  std::shared_ptr<TableInfo> info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(table_name);
    if (it == tables_.end()) {
      return Status::NotFound("sharded table not found: " + table_name);
    }
    info = it->second;
  }
  size_t shard_col = *info->schema.IndexOf(info->shard_column);
  // Each load appends rows, so its sketch merges into the table's.
  ColumnStatsBuilder batch(info->schema);
  for (const auto& page : pages) {
    batch.Add(page);
    for (int64_t r = 0; r < page.num_rows(); ++r) {
      std::vector<Value> row = page.GetRow(r);
      auto shard = static_cast<size_t>(
          row[shard_col].Hash() %
          static_cast<uint64_t>(config_.num_shards));
      info->shards[shard]->rows.push_back(std::move(row));
    }
  }
  // (Re)build ordered indexes.
  for (auto& shard : info->shards) {
    shard->indexes.clear();
    for (const auto& col : info->index_columns) {
      size_t idx = *info->schema.IndexOf(col);
      auto& index = shard->indexes[col];
      index.clear();
      for (size_t r = 0; r < shard->rows.size(); ++r) {
        index.emplace_back(shard->rows[r][idx], static_cast<int64_t>(r));
      }
      std::stable_sort(index.begin(), index.end(),
                       [](const auto& a, const auto& b) {
                         return a.first.Compare(b.first) < 0;
                       });
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    info->stats.Merge(batch);
  }
  metadata_->Bump(table_name);
  return Status::OK();
}

Result<std::unique_ptr<SplitSource>> ShardedStoreConnector::GetSplits(
    const ScanSpec& spec) {
  const TableHandle& table = *spec.table;
  std::shared_ptr<TableInfo> info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(table.name());
    if (it == tables_.end()) {
      return Status::NotFound("sharded table not found: " + table.name());
    }
    info = it->second;
  }
  // Shard routing: a point/IN predicate on the shard column limits the
  // splits to the owning shards.
  std::optional<std::set<int>> keep;
  for (const auto& pred : spec.predicates) {
    if (pred.column != info->shard_column) continue;
    if (pred.op == ColumnPredicate::Op::kEq ||
        pred.op == ColumnPredicate::Op::kIn) {
      std::set<int> shards;
      for (const auto& v : pred.values) {
        shards.insert(static_cast<int>(
            v.Hash() % static_cast<uint64_t>(config_.num_shards)));
      }
      keep = std::move(shards);
    }
  }
  std::vector<SplitPtr> splits;
  for (int s = 0; s < config_.num_shards; ++s) {
    if (keep.has_value() && keep->count(s) == 0) continue;
    splits.push_back(std::make_shared<ShardSplit>(table.name(), s));
  }
  return std::unique_ptr<SplitSource>(
      new VectorSplitSource(std::move(splits)));
}

Result<std::unique_ptr<DataSource>> ShardedStoreConnector::CreateDataSource(
    const Split& split, const ScanSpec& spec) {
  const TableHandle& table = *spec.table;
  const std::vector<int>& columns = spec.columns;
  const std::vector<ColumnPredicate>& predicates = spec.predicates;
  const auto* shard_split = dynamic_cast<const ShardSplit*>(&split);
  if (shard_split == nullptr) {
    return Status::InvalidArgument("not a shard split");
  }
  std::shared_ptr<TableInfo> info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(table.name());
    if (it == tables_.end()) {
      return Status::NotFound("sharded table not found: " + table.name());
    }
    info = it->second;
  }
  const Shard& shard =
      *info->shards[static_cast<size_t>(shard_split->shard())];

  // Pick an indexed equality/range predicate to drive candidate lookup.
  std::vector<int64_t> candidates;
  bool used_index = false;
  for (const auto& pred : predicates) {
    auto idx_it = shard.indexes.find(pred.column);
    if (idx_it == shard.indexes.end()) continue;
    const auto& index = idx_it->second;
    auto lower = [&](const Value& v) {
      return std::lower_bound(index.begin(), index.end(), v,
                              [](const auto& entry, const Value& key) {
                                return entry.first.Compare(key) < 0;
                              });
    };
    auto upper = [&](const Value& v) {
      return std::upper_bound(index.begin(), index.end(), v,
                              [](const Value& key, const auto& entry) {
                                return key.Compare(entry.first) < 0;
                              });
    };
    std::vector<int64_t> hits;
    switch (pred.op) {
      case ColumnPredicate::Op::kEq:
        for (auto it = lower(pred.values[0]); it != upper(pred.values[0]);
             ++it) {
          hits.push_back(it->second);
        }
        break;
      case ColumnPredicate::Op::kIn:
        for (const auto& v : pred.values) {
          for (auto it = lower(v); it != upper(v); ++it) {
            hits.push_back(it->second);
          }
        }
        break;
      case ColumnPredicate::Op::kLt:
      case ColumnPredicate::Op::kLte: {
        auto end = pred.op == ColumnPredicate::Op::kLt
                       ? lower(pred.values[0])
                       : upper(pred.values[0]);
        for (auto it = index.begin(); it != end; ++it) {
          hits.push_back(it->second);
        }
        break;
      }
      case ColumnPredicate::Op::kGt:
      case ColumnPredicate::Op::kGte: {
        auto begin = pred.op == ColumnPredicate::Op::kGt
                         ? upper(pred.values[0])
                         : lower(pred.values[0]);
        for (auto it = begin; it != index.end(); ++it) {
          hits.push_back(it->second);
        }
        break;
      }
      default:
        continue;
    }
    candidates = std::move(hits);
    used_index = true;
    break;
  }
  if (!used_index) {
    candidates.resize(shard.rows.size());
    for (size_t r = 0; r < shard.rows.size(); ++r) {
      candidates[r] = static_cast<int64_t>(r);
    }
  }
  // Verify every pushed predicate exactly (the connector promised kExact).
  std::vector<std::vector<Value>> rows;
  for (int64_t r : candidates) {
    const auto& row = shard.rows[static_cast<size_t>(r)];
    bool ok = true;
    for (const auto& pred : predicates) {
      auto col = info->schema.IndexOf(pred.column);
      if (!col.has_value()) continue;
      if (!Matches(row[*col], pred)) {
        ok = false;
        break;
      }
    }
    if (ok) rows.push_back(row);
  }
  rows_read_.fetch_add(static_cast<int64_t>(rows.size()));
  std::vector<TypeKind> types;
  for (const auto& col : info->schema.columns()) types.push_back(col.type);
  return std::unique_ptr<DataSource>(
      new RowsDataSource(std::move(rows), std::move(types), columns,
                         config_.query_latency_micros));
}

Result<std::string> ShardedStoreConnector::SerializeSplit(
    const Split& split) const {
  const auto* shard_split = dynamic_cast<const ShardSplit*>(&split);
  if (shard_split == nullptr) {
    return Status::InvalidArgument("not a shardedstore split");
  }
  Json out = Json::Object();
  out.Set("table", Json::Str(shard_split->table()))
      .Set("shard", Json::Int(shard_split->shard()));
  return out.Serialize();
}

Result<SplitPtr> ShardedStoreConnector::DeserializeSplit(
    const std::string& data) const {
  PRESTO_ASSIGN_OR_RETURN(Json json, Json::Parse(data));
  PRESTO_ASSIGN_OR_RETURN(std::string table, json.GetString("table"));
  PRESTO_ASSIGN_OR_RETURN(int64_t shard, json.GetInt("shard"));
  return SplitPtr(std::make_shared<ShardSplit>(std::move(table),
                                               static_cast<int>(shard)));
}

}  // namespace presto
