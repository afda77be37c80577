#include "connectors/memcon/memory_connector.h"

#include <algorithm>

#include "common/check.h"
#include "common/json.h"
#include "vector/block_builder.h"

namespace presto {

namespace {

class MemoryTableHandle final : public TableHandle {
 public:
  MemoryTableHandle(std::string name, RowSchema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}
  const std::string& name() const override { return name_; }
  const RowSchema& schema() const override { return schema_; }

 private:
  std::string name_;
  RowSchema schema_;
};

class MemorySplit final : public Split {
 public:
  MemorySplit(std::string table, size_t begin, size_t end)
      : table_(std::move(table)), begin_(begin), end_(end) {}
  const std::string& table() const { return table_; }
  size_t begin() const { return begin_; }
  size_t end() const { return end_; }
  std::string ToString() const override {
    return "memory:" + table_ + "[" + std::to_string(begin_) + "," +
           std::to_string(end_) + ")";
  }

 private:
  std::string table_;
  size_t begin_;
  size_t end_;
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

class MemoryDataSource final : public DataSource {
 public:
  MemoryDataSource(std::vector<Page> pages, std::vector<int> columns)
      : pages_(std::move(pages)), columns_(std::move(columns)) {}

  Result<std::optional<Page>> NextPage() override {
    if (pos_ >= pages_.size()) return std::optional<Page>{};
    const Page& page = pages_[pos_++];
    std::vector<BlockPtr> blocks;
    blocks.reserve(columns_.size());
    for (int c : columns_) {
      blocks.push_back(page.block(static_cast<size_t>(c)));
    }
    bytes_ += page.SizeInBytes();
    return std::optional<Page>(Page(std::move(blocks), page.num_rows()));
  }

  int64_t bytes_read() const override { return bytes_; }

 private:
  std::vector<Page> pages_;
  size_t pos_ = 0;
  std::vector<int> columns_;
  int64_t bytes_ = 0;
};

}  // namespace

class MemoryConnector::Metadata final : public ConnectorMetadata {
 public:
  explicit Metadata(MemoryConnector* parent) : parent_(parent) {}

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
      return Status::NotFound("memory table not found: " + name);
    }
    return TableHandlePtr(
        std::make_shared<MemoryTableHandle>(name, it->second->schema));
  }

  Result<TableStats> GetStats(const TableHandle& table) const override {
    std::shared_ptr<TableData> data;
    {
      std::lock_guard<std::mutex> lock(parent_->mu_);
      auto it = parent_->tables_.find(table.name());
      if (it == parent_->tables_.end()) {
        return Status::NotFound("memory table not found: " + table.name());
      }
      data = it->second;
    }
    // Merge on read: sketch only the pages appended since the last call.
    // stats_mu, not the connector lock, guards the builder, so writers
    // and scans are never blocked behind the sketch.
    std::lock_guard<std::mutex> stats_lock(data->stats_mu);
    std::vector<Page> appended;
    {
      std::lock_guard<std::mutex> lock(parent_->mu_);
      appended.assign(data->pages.begin() + static_cast<std::ptrdiff_t>(
                                               data->sketched_pages),
                      data->pages.end());
    }
    for (const auto& page : appended) data->stats.Add(page);
    data->sketched_pages += appended.size();
    return data->stats.Build();
  }

  Result<TableHandlePtr> BeginCreateTable(const std::string& name,
                                          const RowSchema& schema) override {
    {
      std::lock_guard<std::mutex> lock(parent_->mu_);
      auto data = std::make_shared<TableData>();
      data->schema = schema;
      data->stats = ColumnStatsBuilder(schema);
      data->pending = true;
      parent_->tables_[name] = data;
    }
    BumpTableVersion(name);
    return TableHandlePtr(std::make_shared<MemoryTableHandle>(name, schema));
  }

  Status FinishWrite(const TableHandle& table) override {
    {
      std::lock_guard<std::mutex> lock(parent_->mu_);
      auto it = parent_->tables_.find(table.name());
      if (it == parent_->tables_.end()) {
        return Status::NotFound("memory table not found: " + table.name());
      }
      it->second->pending = false;
    }
    // The write commit: cached plans/splits/stats for this table are stale
    // the moment this returns.
    BumpTableVersion(table.name());
    return Status::OK();
  }

  /// Connector-level mutators (fixture CreateTable) funnel through this to
  /// reach the protected version bump.
  void Bump(const std::string& table) { BumpTableVersion(table); }

 private:
  MemoryConnector* parent_;
};

namespace {

class MemoryDataSink final : public DataSink {
 public:
  MemoryDataSink(std::mutex* mu, std::vector<Page>* pages)
      : mu_(mu), pages_(pages) {}

  Status Append(const Page& page) override {
    rows_ += page.num_rows();
    std::lock_guard<std::mutex> lock(*mu_);
    pages_->push_back(page.Flatten());
    return Status::OK();
  }

  Result<int64_t> Finish() override { return rows_; }

 private:
  std::mutex* mu_;
  std::vector<Page>* pages_;
  int64_t rows_ = 0;
};

}  // namespace

MemoryConnector::MemoryConnector(std::string name)
    : name_(std::move(name)),
      metadata_(std::make_unique<Metadata>(this)) {}

MemoryConnector::~MemoryConnector() = default;

ConnectorMetadata& MemoryConnector::metadata() { return *metadata_; }

Status MemoryConnector::CreateTable(const std::string& table_name,
                                    RowSchema schema,
                                    std::vector<Page> pages) {
  for (const auto& page : pages) {
    if (page.num_columns() != schema.size()) {
      return Status::InvalidArgument("page width does not match schema");
    }
  }
  auto data = std::make_shared<TableData>();
  data->stats = ColumnStatsBuilder(schema);
  for (const auto& page : pages) data->stats.Add(page);
  data->sketched_pages = pages.size();
  data->schema = std::move(schema);
  data->pages = std::move(pages);
  {
    std::lock_guard<std::mutex> lock(mu_);
    tables_[table_name] = std::move(data);
  }
  metadata_->Bump(table_name);
  return Status::OK();
}

Result<int64_t> MemoryConnector::RowCount(const std::string& table_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table_name);
  if (it == tables_.end()) {
    return Status::NotFound("memory table not found: " + table_name);
  }
  int64_t rows = 0;
  for (const auto& page : it->second->pages) rows += page.num_rows();
  return rows;
}

Result<std::vector<Page>> MemoryConnector::GetPages(
    const std::string& table_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table_name);
  if (it == tables_.end()) {
    return Status::NotFound("memory table not found: " + table_name);
  }
  return it->second->pages;
}

Result<std::unique_ptr<SplitSource>> MemoryConnector::GetSplits(
    const ScanSpec& spec) {
  const TableHandle& table = *spec.table;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table.name());
  if (it == tables_.end()) {
    return Status::NotFound("memory table not found: " + table.name());
  }
  // One split per page keeps scheduling exercised even for small tables.
  std::vector<SplitPtr> splits;
  size_t count = it->second->pages.size();
  for (size_t i = 0; i < count; ++i) {
    splits.push_back(std::make_shared<MemorySplit>(table.name(), i, i + 1));
  }
  return std::unique_ptr<SplitSource>(
      new VectorSplitSource(std::move(splits)));
}

Result<std::unique_ptr<DataSource>> MemoryConnector::CreateDataSource(
    const Split& split, const ScanSpec& spec) {
  const TableHandle& table = *spec.table;
  const std::vector<int>& columns = spec.columns;
  const auto* mem_split = dynamic_cast<const MemorySplit*>(&split);
  if (mem_split == nullptr) {
    return Status::InvalidArgument("not a memory split");
  }
  // Copy the split's page range under the lock: INSERT appends to the same
  // vector concurrently. Pages share their blocks, so the copy is cheap.
  std::vector<Page> pages;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(table.name());
    if (it == tables_.end()) {
      return Status::NotFound("memory table not found: " + table.name());
    }
    const std::vector<Page>& all = it->second->pages;
    size_t end = std::min(mem_split->end(), all.size());
    size_t begin = std::min(mem_split->begin(), end);
    pages.assign(all.begin() + static_cast<std::ptrdiff_t>(begin),
                 all.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return std::unique_ptr<DataSource>(
      new MemoryDataSource(std::move(pages), columns));
}

Result<std::unique_ptr<DataSink>> MemoryConnector::CreateDataSink(
    const TableHandle& table, int writer_id) {
  (void)writer_id;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table.name());
  if (it == tables_.end()) {
    return Status::NotFound("memory table not found: " + table.name());
  }
  return std::unique_ptr<DataSink>(
      new MemoryDataSink(&mu_, &it->second->pages));
}

Result<std::string> MemoryConnector::SerializeSplit(const Split& split) const {
  const auto* mem_split = dynamic_cast<const MemorySplit*>(&split);
  if (mem_split == nullptr) {
    return Status::InvalidArgument("not a memory split");
  }
  Json out = Json::Object();
  out.Set("table", Json::Str(mem_split->table()))
      .Set("begin", Json::Int(static_cast<int64_t>(mem_split->begin())))
      .Set("end", Json::Int(static_cast<int64_t>(mem_split->end())));
  return out.Serialize();
}

Result<SplitPtr> MemoryConnector::DeserializeSplit(
    const std::string& data) const {
  PRESTO_ASSIGN_OR_RETURN(Json json, Json::Parse(data));
  PRESTO_ASSIGN_OR_RETURN(std::string table, json.GetString("table"));
  PRESTO_ASSIGN_OR_RETURN(int64_t begin, json.GetInt("begin"));
  PRESTO_ASSIGN_OR_RETURN(int64_t end, json.GetInt("end"));
  return SplitPtr(std::make_shared<MemorySplit>(std::move(table),
                                                static_cast<size_t>(begin),
                                                static_cast<size_t>(end)));
}

}  // namespace presto
