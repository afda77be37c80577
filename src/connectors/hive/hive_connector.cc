#include "connectors/hive/hive_connector.h"

#include <set>
#include <thread>

#include "common/check.h"
#include "common/json.h"
#include "vector/block_builder.h"
#include "vector/decoded_block.h"

namespace presto {

namespace {

class HiveTableHandle final : public TableHandle {
 public:
  HiveTableHandle(std::string name, RowSchema schema,
                  std::string partition_column)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        partition_column_(std::move(partition_column)) {}
  const std::string& name() const override { return name_; }
  const RowSchema& schema() const override { return schema_; }
  const std::string& partition_column() const { return partition_column_; }

 private:
  std::string name_;
  RowSchema schema_;
  std::string partition_column_;
};

class HiveSplit final : public Split {
 public:
  HiveSplit(std::string file, std::string partition_value)
      : file_(std::move(file)), partition_value_(std::move(partition_value)) {}
  const std::string& file() const { return file_; }
  const std::string& partition_value() const { return partition_value_; }
  std::string ToString() const override { return "hive:" + file_; }

 private:
  std::string file_;
  std::string partition_value_;
};

// Lazy split enumeration with optional per-batch delay.
class HiveSplitSource final : public SplitSource {
 public:
  HiveSplitSource(std::vector<SplitPtr> splits, int64_t delay_micros)
      : splits_(std::move(splits)), delay_micros_(delay_micros) {}
  Result<std::vector<SplitPtr>> NextBatch(int max_batch) override {
    std::vector<SplitPtr> out;
    while (pos_ < splits_.size() && static_cast<int>(out.size()) < max_batch) {
      out.push_back(splits_[pos_++]);
    }
    // The simulated metastore cost is per file listed, so eager enumeration
    // (one huge batch) pays for every file before returning.
    if (delay_micros_ > 0 && !out.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          delay_micros_ * static_cast<int64_t>(out.size())));
    }
    return out;
  }

 private:
  std::vector<SplitPtr> splits_;
  size_t pos_ = 0;
  int64_t delay_micros_;
};

class HiveDataSource final : public DataSource {
 public:
  HiveDataSource(std::unique_ptr<StorcReader> reader, const MiniDfs* dfs,
                 int64_t dfs_bytes_before)
      : reader_(std::move(reader)),
        dfs_(dfs),
        bytes_before_(dfs_bytes_before) {}
  Result<std::optional<Page>> NextPage() override {
    return reader_->NextPage();
  }
  int64_t bytes_read() const override {
    return dfs_->total_bytes_read() - bytes_before_;
  }

 private:
  std::unique_ptr<StorcReader> reader_;
  const MiniDfs* dfs_;
  int64_t bytes_before_;
};

}  // namespace

class HiveConnector::Metadata final : public ConnectorMetadata {
 public:
  explicit Metadata(HiveConnector* parent) : parent_(parent) {}

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
      return Status::NotFound("hive table not found: " + name);
    }
    return TableHandlePtr(std::make_shared<HiveTableHandle>(
        name, it->second->schema, it->second->partition_column));
  }

  Result<TableStats> GetStats(const TableHandle& table) const override {
    std::lock_guard<std::mutex> lock(parent_->mu_);
    auto it = parent_->tables_.find(table.name());
    if (it == parent_->tables_.end()) {
      return Status::NotFound("hive table not found: " + table.name());
    }
    return it->second->stats;  // invalid (unknown) unless analyzed
  }

  PushdownSupport GetPushdownSupport(
      const TableHandle& table, const ColumnPredicate& pred) const override {
    const auto& hive = static_cast<const HiveTableHandle&>(table);
    // Partition pruning is exact (only matching directories are listed);
    // anything else is stripe-statistics pruning: inexact.
    if (!hive.partition_column().empty() &&
        pred.column == hive.partition_column() &&
        (pred.op == ColumnPredicate::Op::kEq ||
         pred.op == ColumnPredicate::Op::kIn)) {
      return PushdownSupport::kExact;
    }
    return PushdownSupport::kInexact;
  }

  Result<TableHandlePtr> BeginCreateTable(const std::string& name,
                                          const RowSchema& schema) override {
    PRESTO_RETURN_IF_ERROR(parent_->CreateTable(name, schema, ""));
    std::lock_guard<std::mutex> lock(parent_->mu_);
    parent_->tables_[name]->pending = true;
    return TableHandlePtr(
        std::make_shared<HiveTableHandle>(name, schema, ""));
  }

  Status FinishWrite(const TableHandle& table) override {
    {
      std::lock_guard<std::mutex> lock(parent_->mu_);
      auto it = parent_->tables_.find(table.name());
      if (it == parent_->tables_.end()) {
        return Status::NotFound("hive table not found: " + table.name());
      }
      it->second->pending = false;
    }
    // Write commit: invalidate dependent planning-path caches.
    BumpTableVersion(table.name());
    return Status::OK();
  }

  /// Connector-level mutators (CreateTable/LoadTable/AnalyzeTable) funnel
  /// through this to reach the protected version bump.
  void Bump(const std::string& table) { BumpTableVersion(table); }

 private:
  HiveConnector* parent_;
};

namespace {

class HiveDataSink final : public DataSink {
 public:
  using RegisterFile = std::function<void(const std::string& path,
                                          const ColumnStatsBuilder& stats)>;

  HiveDataSink(MiniDfs* dfs, std::string path, RowSchema schema,
               int64_t stripe_rows, RegisterFile register_file)
      : dfs_(dfs),
        path_(std::move(path)),
        writer_(std::move(schema), stripe_rows),
        register_file_(std::move(register_file)) {}

  Status Append(const Page& page) override {
    writer_.Append(page);
    return Status::OK();
  }

  Result<int64_t> Finish() override {
    int64_t rows = writer_.rows_written();
    if (rows > 0) {
      PRESTO_RETURN_IF_ERROR(dfs_->Write(path_, writer_.Finish()));
      register_file_(path_, writer_.column_stats());
    }
    return rows;
  }

 private:
  MiniDfs* dfs_;
  std::string path_;
  StorcWriter writer_;
  RegisterFile register_file_;
};

}  // namespace

HiveConnector::HiveConnector(std::string name, HiveConfig config)
    : name_(std::move(name)),
      config_(config),
      dfs_(config.dfs),
      metadata_(std::make_unique<Metadata>(this)) {}

HiveConnector::~HiveConnector() = default;

ConnectorMetadata& HiveConnector::metadata() { return *metadata_; }

Status HiveConnector::CreateTable(const std::string& table_name,
                                  RowSchema schema,
                                  const std::string& partition_column) {
  if (!partition_column.empty() &&
      !schema.IndexOf(partition_column).has_value()) {
    return Status::InvalidArgument("partition column not in schema: " +
                                   partition_column);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto info = std::make_shared<TableInfo>();
    info->schema = std::move(schema);
    info->partition_column = partition_column;
    tables_[table_name] = std::move(info);
  }
  metadata_->Bump(table_name);
  return Status::OK();
}

Status HiveConnector::LoadTable(const std::string& table_name,
                                const std::vector<Page>& pages) {
  std::shared_ptr<TableInfo> info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(table_name);
    if (it == tables_.end()) {
      return Status::NotFound("hive table not found: " + table_name);
    }
    info = it->second;
  }
  // Partitioned: route rows to one writer per partition value.
  std::map<std::string, std::unique_ptr<StorcWriter>> writers;
  auto writer_for = [&](const std::string& partition)
      -> StorcWriter* {
    auto it = writers.find(partition);
    if (it == writers.end()) {
      it = writers
               .emplace(partition, std::make_unique<StorcWriter>(
                                       info->schema, config_.stripe_rows))
               .first;
    }
    return it->second.get();
  };
  if (info->partition_column.empty()) {
    // Unpartitioned: chunk into files of ~file_rows rows.
    StorcWriter* writer = nullptr;
    int64_t rows_in_file = 0;
    auto flush = [&]() -> Status {
      if (writer == nullptr || writer->rows_written() == 0) return Status::OK();
      std::string path;
      {
        std::lock_guard<std::mutex> lock(mu_);
        path = "/warehouse/" + table_name + "/part-" +
               std::to_string(info->next_file_id++) + ".storc";
        info->files[""].push_back(path);
        info->file_stats[path] = writer->column_stats();
      }
      PRESTO_RETURN_IF_ERROR(dfs_.Write(path, writer->Finish()));
      writers.erase("");
      writer = nullptr;
      rows_in_file = 0;
      return Status::OK();
    };
    for (const auto& page : pages) {
      if (writer == nullptr) writer = writer_for("");
      writer->Append(page);
      rows_in_file += page.num_rows();
      if (rows_in_file >= config_.file_rows) PRESTO_RETURN_IF_ERROR(flush());
    }
    PRESTO_RETURN_IF_ERROR(flush());
    metadata_->Bump(table_name);
    return Status::OK();
  }
  size_t pcol = *info->schema.IndexOf(info->partition_column);
  for (const auto& page : pages) {
    // Split the page by partition value.
    std::map<std::string, std::vector<int32_t>> by_partition;
    const auto& pblock = *page.block(pcol);
    for (int64_t r = 0; r < page.num_rows(); ++r) {
      by_partition[pblock.GetValue(r).ToString()].push_back(
          static_cast<int32_t>(r));
    }
    for (const auto& [partition, positions] : by_partition) {
      Page part = page.CopyPositions(positions.data(),
                                     static_cast<int64_t>(positions.size()));
      writer_for(partition)->Append(part);
    }
  }
  for (auto& [partition, writer] : writers) {
    if (writer->rows_written() == 0) continue;
    std::string path;
    {
      std::lock_guard<std::mutex> lock(mu_);
      path = "/warehouse/" + table_name + "/" + info->partition_column +
             "=" + partition + "/part-" +
             std::to_string(info->next_file_id++) + ".storc";
      info->files[partition].push_back(path);
      info->file_stats[path] = writer->column_stats();
    }
    PRESTO_RETURN_IF_ERROR(dfs_.Write(path, writer->Finish()));
  }
  metadata_->Bump(table_name);
  return Status::OK();
}

Status HiveConnector::AnalyzeTable(const std::string& table_name) {
  std::shared_ptr<TableInfo> info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(table_name);
    if (it == tables_.end()) {
      return Status::NotFound("hive table not found: " + table_name);
    }
    info = it->second;
  }
  // Every storc file was sketched when it was written: ANALYZE merges the
  // per-file sketches (O(files)) instead of re-reading the data.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ColumnStatsBuilder merged(info->schema);
    for (const auto& [_, sketch] : info->file_stats) merged.Merge(sketch);
    info->stats = merged.Build();
  }
  // Stats changed: cached TableStats for this table are now stale.
  metadata_->Bump(table_name);
  return Status::OK();
}

Result<std::unique_ptr<SplitSource>> HiveConnector::GetSplits(
    const ScanSpec& spec) {
  const TableHandle& table = *spec.table;
  std::shared_ptr<TableInfo> info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(table.name());
    if (it == tables_.end()) {
      return Status::NotFound("hive table not found: " + table.name());
    }
    info = it->second;
  }
  // Partition pruning: exact pushdown on the partition column.
  std::optional<std::set<std::string>> keep_partitions;
  if (!info->partition_column.empty()) {
    for (const auto& pred : spec.predicates) {
      if (pred.column != info->partition_column) continue;
      if (pred.op == ColumnPredicate::Op::kEq ||
          pred.op == ColumnPredicate::Op::kIn) {
        std::set<std::string> keep;
        for (const auto& v : pred.values) keep.insert(v.ToString());
        keep_partitions = std::move(keep);
      }
    }
  }
  std::vector<SplitPtr> splits;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [partition, files] : info->files) {
      if (keep_partitions.has_value() &&
          keep_partitions->count(partition) == 0) {
        continue;
      }
      for (const auto& file : files) {
        splits.push_back(std::make_shared<HiveSplit>(file, partition));
      }
    }
  }
  return std::unique_ptr<SplitSource>(new HiveSplitSource(
      std::move(splits), config_.split_enumeration_delay_micros));
}

Result<std::unique_ptr<DataSource>> HiveConnector::CreateDataSource(
    const Split& split, const ScanSpec& spec) {
  const auto* hive_split = dynamic_cast<const HiveSplit*>(&split);
  if (hive_split == nullptr) {
    return Status::InvalidArgument("not a hive split");
  }
  int64_t bytes_before = dfs_.total_bytes_read();
  PRESTO_ASSIGN_OR_RETURN(StorcFooter footer,
                          ReadStorcFooter(dfs_, hive_split->file()));
  auto reader = std::make_unique<StorcReader>(
      &dfs_, hive_split->file(), std::move(footer), spec.columns,
      spec.predicates, config_.lazy_reads, &lazy_stats_);
  return std::unique_ptr<DataSource>(
      new HiveDataSource(std::move(reader), &dfs_, bytes_before));
}

Result<std::unique_ptr<DataSink>> HiveConnector::CreateDataSink(
    const TableHandle& table, int writer_id) {
  std::shared_ptr<TableInfo> info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(table.name());
    if (it == tables_.end()) {
      return Status::NotFound("hive table not found: " + table.name());
    }
    info = it->second;
  }
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    path = "/warehouse/" + table.name() + "/writer-" +
           std::to_string(writer_id) + "-" +
           std::to_string(info->next_file_id++) + ".storc";
  }
  std::string table_name = table.name();
  auto register_file = [this, table_name](const std::string& file,
                                          const ColumnStatsBuilder& stats) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(table_name);
    if (it == tables_.end()) return;
    it->second->files[""].push_back(file);
    it->second->file_stats[file] = stats;
  };
  return std::unique_ptr<DataSink>(new HiveDataSink(
      &dfs_, path, info->schema, config_.stripe_rows, register_file));
}

Result<std::string> HiveConnector::SerializeSplit(const Split& split) const {
  const auto* hive_split = dynamic_cast<const HiveSplit*>(&split);
  if (hive_split == nullptr) {
    return Status::InvalidArgument("not a hive split");
  }
  Json out = Json::Object();
  out.Set("file", Json::Str(hive_split->file()))
      .Set("partition", Json::Str(hive_split->partition_value()));
  return out.Serialize();
}

Result<SplitPtr> HiveConnector::DeserializeSplit(
    const std::string& data) const {
  PRESTO_ASSIGN_OR_RETURN(Json json, Json::Parse(data));
  PRESTO_ASSIGN_OR_RETURN(std::string file, json.GetString("file"));
  PRESTO_ASSIGN_OR_RETURN(std::string partition, json.GetString("partition"));
  return SplitPtr(
      std::make_shared<HiveSplit>(std::move(file), std::move(partition)));
}

}  // namespace presto
