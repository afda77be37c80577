#ifndef PRESTOCPP_CONNECTORS_SHARDEDSTORE_SHARDED_STORE_H_
#define PRESTOCPP_CONNECTORS_SHARDEDSTORE_SHARDED_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "connector/column_stats.h"
#include "connector/connector.h"

namespace presto {

struct ShardedStoreConfig {
  int num_shards = 8;
  /// Per-split latency modeling one MySQL round trip.
  int64_t query_latency_micros = 200;
};

/// The sharded-MySQL-style connector behind the Developer/Advertiser
/// Analytics tools (§IV-C2): "the connector divides data into shards that
/// are stored in individual MySQL instances, and can push range or point
/// predicates all the way down to individual shards, ensuring that only
/// matching data is ever read". Tables are sharded on one column; indexed
/// columns support exact pushdown of point/range/IN predicates via ordered
/// per-shard indexes; a point predicate on the shard column routes the
/// query to a single shard.
class ShardedStoreConnector final : public Connector {
 public:
  explicit ShardedStoreConnector(std::string name = "mysql",
                                 ShardedStoreConfig config = {});
  ~ShardedStoreConnector() override;

  const std::string& name() const override { return name_; }
  ConnectorMetadata& metadata() override;

  /// Creates a table sharded on `shard_column` with ordered indexes on
  /// `index_columns` (the shard column is always indexed).
  Status CreateTable(const std::string& table_name, RowSchema schema,
                     const std::string& shard_column,
                     std::vector<std::string> index_columns);

  Status LoadTable(const std::string& table_name,
                   const std::vector<Page>& pages);

  /// Rows actually read from shards (to verify pushdown selectivity).
  int64_t rows_read() const { return rows_read_.load(); }

  Result<std::unique_ptr<SplitSource>> GetSplits(
      const ScanSpec& spec) override;

  Result<std::unique_ptr<DataSource>> CreateDataSource(
      const Split& split, const ScanSpec& spec) override;

  Result<std::string> SerializeSplit(const Split& split) const override;
  Result<SplitPtr> DeserializeSplit(const std::string& data) const override;

 private:
  class Metadata;
  friend class Metadata;

  struct Shard {
    std::vector<std::vector<Value>> rows;
    // Ordered index per indexed column: (value, row id) sorted by value.
    std::map<std::string, std::vector<std::pair<Value, int64_t>>> indexes;
  };

  struct TableInfo {
    RowSchema schema;
    std::string shard_column;
    std::vector<std::string> index_columns;
    std::vector<std::shared_ptr<Shard>> shards;
    ColumnStatsBuilder stats;  // every row loaded so far
  };

  std::string name_;
  ShardedStoreConfig config_;
  std::unique_ptr<Metadata> metadata_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<TableInfo>> tables_;
  mutable std::atomic<int64_t> rows_read_{0};
};

}  // namespace presto

#endif  // PRESTOCPP_CONNECTORS_SHARDEDSTORE_SHARDED_STORE_H_
