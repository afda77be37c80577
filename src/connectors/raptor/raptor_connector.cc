#include "connectors/raptor/raptor_connector.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/json.h"
#include "vector/block_builder.h"

namespace presto {

namespace {

class RaptorTableHandle final : public TableHandle {
 public:
  RaptorTableHandle(std::string name, RowSchema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}
  const std::string& name() const override { return name_; }
  const RowSchema& schema() const override { return schema_; }

 private:
  std::string name_;
  RowSchema schema_;
};

class RaptorSplit final : public Split {
 public:
  RaptorSplit(std::string file, int bucket, int worker)
      : file_(std::move(file)), bucket_(bucket), worker_(worker) {}
  const std::string& file() const { return file_; }
  int bucket() const { return bucket_; }
  int preferred_worker() const override { return worker_; }
  bool hard_affinity() const override { return true; }
  std::string ToString() const override {
    return "raptor:" + file_ + " bucket=" + std::to_string(bucket_);
  }

 private:
  std::string file_;
  int bucket_;
  int worker_;
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

class RaptorDataSource final : public DataSource {
 public:
  RaptorDataSource(std::unique_ptr<StorcReader> reader, const MiniDfs* dfs,
                   int64_t bytes_before)
      : reader_(std::move(reader)), dfs_(dfs), bytes_before_(bytes_before) {}
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

std::string LayoutId(const std::string& column, int buckets) {
  return "bucketed:" + column + ":" + std::to_string(buckets);
}

}  // namespace

class RaptorConnector::Metadata final : public ConnectorMetadata {
 public:
  explicit Metadata(RaptorConnector* parent) : parent_(parent) {}

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
      return Status::NotFound("raptor table not found: " + name);
    }
    return TableHandlePtr(
        std::make_shared<RaptorTableHandle>(name, it->second->schema));
  }

  Result<TableStats> GetStats(const TableHandle& table) const override {
    std::lock_guard<std::mutex> lock(parent_->mu_);
    auto it = parent_->tables_.find(table.name());
    if (it == parent_->tables_.end()) {
      return Status::NotFound("raptor table not found: " + table.name());
    }
    return it->second->stats;
  }

  std::vector<DataLayout> GetLayouts(const TableHandle& table) const override {
    std::lock_guard<std::mutex> lock(parent_->mu_);
    auto it = parent_->tables_.find(table.name());
    if (it == parent_->tables_.end()) return {};
    const TableInfo& info = *it->second;
    DataLayout layout;
    layout.id = LayoutId(info.bucket_column, info.bucket_count);
    layout.partition_columns = {info.bucket_column};
    layout.bucket_count = info.bucket_count;
    if (!info.sort_column.empty()) {
      layout.sort_columns = {info.sort_column};
    }
    return {layout};
  }

  PushdownSupport GetPushdownSupport(
      const TableHandle&, const ColumnPredicate&) const override {
    return PushdownSupport::kInexact;  // stripe statistics pruning
  }

  /// Connector-level mutators (CreateTable/LoadTable) funnel through this
  /// to reach the protected version bump.
  void Bump(const std::string& table) { BumpTableVersion(table); }

 private:
  RaptorConnector* parent_;
};

RaptorConnector::RaptorConnector(std::string name, RaptorConfig config)
    : name_(std::move(name)),
      config_(config),
      storage_(config.storage),
      metadata_(std::make_unique<Metadata>(this)) {}

RaptorConnector::~RaptorConnector() = default;

ConnectorMetadata& RaptorConnector::metadata() { return *metadata_; }

Status RaptorConnector::CreateTable(const std::string& table_name,
                                    RowSchema schema,
                                    const std::string& bucket_column,
                                    int bucket_count,
                                    const std::string& sort_column) {
  if (!schema.IndexOf(bucket_column).has_value()) {
    return Status::InvalidArgument("bucket column not in schema: " +
                                   bucket_column);
  }
  if (!sort_column.empty() && !schema.IndexOf(sort_column).has_value()) {
    return Status::InvalidArgument("sort column not in schema: " +
                                   sort_column);
  }
  if (bucket_count <= 0) {
    return Status::InvalidArgument("bucket count must be positive");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto info = std::make_shared<TableInfo>();
    info->schema = std::move(schema);
    info->bucket_column = bucket_column;
    info->bucket_count = bucket_count;
    info->sort_column = sort_column;
    info->bucket_files.assign(static_cast<size_t>(bucket_count), "");
    tables_[table_name] = std::move(info);
  }
  metadata_->Bump(table_name);
  return Status::OK();
}

Status RaptorConnector::LoadTable(const std::string& table_name,
                                  const std::vector<Page>& pages) {
  std::shared_ptr<TableInfo> info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(table_name);
    if (it == tables_.end()) {
      return Status::NotFound("raptor table not found: " + table_name);
    }
    info = it->second;
  }
  size_t bcol = *info->schema.IndexOf(info->bucket_column);
  // Route rows into buckets by the hash of the bucket column (the same hash
  // both tables of a co-located join use).
  std::vector<std::vector<std::vector<Value>>> buckets(
      static_cast<size_t>(info->bucket_count));
  for (const auto& page : pages) {
    for (int64_t r = 0; r < page.num_rows(); ++r) {
      Value key = page.block(bcol)->GetValue(r);
      auto bucket = static_cast<size_t>(
          key.Hash() % static_cast<uint64_t>(info->bucket_count));
      buckets[bucket].push_back(page.GetRow(r));
    }
  }
  // Statistics over everything loaded: the merged sketches of the bucket
  // files' writers.
  ColumnStatsBuilder stats(info->schema);
  std::vector<TypeKind> types;
  for (const auto& col : info->schema.columns()) types.push_back(col.type);
  auto sort_col = info->sort_column.empty()
                      ? std::optional<size_t>()
                      : info->schema.IndexOf(info->sort_column);
  for (int b = 0; b < info->bucket_count; ++b) {
    auto& rows = buckets[static_cast<size_t>(b)];
    if (sort_col.has_value()) {
      std::stable_sort(rows.begin(), rows.end(),
                       [&](const auto& x, const auto& y) {
                         return x[*sort_col].Compare(y[*sort_col]) < 0;
                       });
    }
    StorcWriter writer(info->schema, config_.stripe_rows);
    PageBuilder builder(types);
    for (const auto& row : rows) {
      builder.AppendRow(row);
      if (builder.num_rows() >= 4096) writer.Append(builder.Build());
    }
    if (builder.num_rows() > 0) writer.Append(builder.Build());
    stats.Merge(writer.column_stats());
    std::string path = "/raptor/" + table_name + "/bucket-" +
                       std::to_string(b) + ".storc";
    PRESTO_RETURN_IF_ERROR(storage_.Write(path, writer.Finish()));
    std::lock_guard<std::mutex> lock(mu_);
    info->bucket_files[static_cast<size_t>(b)] = path;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    info->stats = stats.Build();
  }
  metadata_->Bump(table_name);
  return Status::OK();
}

Result<std::unique_ptr<SplitSource>> RaptorConnector::GetSplits(
    const ScanSpec& spec) {
  const TableHandle& table = *spec.table;
  std::shared_ptr<TableInfo> info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(table.name());
    if (it == tables_.end()) {
      return Status::NotFound("raptor table not found: " + table.name());
    }
    info = it->second;
  }
  std::vector<SplitPtr> splits;
  for (int b = 0; b < info->bucket_count; ++b) {
    const std::string& file = info->bucket_files[static_cast<size_t>(b)];
    if (file.empty()) continue;
    int worker = spec.num_workers > 0 ? b % spec.num_workers : 0;
    splits.push_back(std::make_shared<RaptorSplit>(file, b, worker));
  }
  return std::unique_ptr<SplitSource>(
      new VectorSplitSource(std::move(splits)));
}

Result<std::unique_ptr<DataSource>> RaptorConnector::CreateDataSource(
    const Split& split, const ScanSpec& spec) {
  const auto* raptor_split = dynamic_cast<const RaptorSplit*>(&split);
  if (raptor_split == nullptr) {
    return Status::InvalidArgument("not a raptor split");
  }
  int64_t bytes_before = storage_.total_bytes_read();
  PRESTO_ASSIGN_OR_RETURN(StorcFooter footer,
                          ReadStorcFooter(storage_, raptor_split->file()));
  auto reader = std::make_unique<StorcReader>(
      &storage_, raptor_split->file(), std::move(footer), spec.columns,
      spec.predicates,
      /*lazy=*/true, nullptr);
  return std::unique_ptr<DataSource>(
      new RaptorDataSource(std::move(reader), &storage_, bytes_before));
}

Result<std::string> RaptorConnector::SerializeSplit(const Split& split) const {
  const auto* raptor_split = dynamic_cast<const RaptorSplit*>(&split);
  if (raptor_split == nullptr) {
    return Status::InvalidArgument("not a raptor split");
  }
  Json out = Json::Object();
  out.Set("file", Json::Str(raptor_split->file()))
      .Set("bucket", Json::Int(raptor_split->bucket()))
      .Set("worker", Json::Int(raptor_split->preferred_worker()));
  return out.Serialize();
}

Result<SplitPtr> RaptorConnector::DeserializeSplit(
    const std::string& data) const {
  PRESTO_ASSIGN_OR_RETURN(Json json, Json::Parse(data));
  PRESTO_ASSIGN_OR_RETURN(std::string file, json.GetString("file"));
  PRESTO_ASSIGN_OR_RETURN(int64_t bucket, json.GetInt("bucket"));
  PRESTO_ASSIGN_OR_RETURN(int64_t worker, json.GetInt("worker"));
  return SplitPtr(std::make_shared<RaptorSplit>(
      std::move(file), static_cast<int>(bucket), static_cast<int>(worker)));
}

}  // namespace presto
