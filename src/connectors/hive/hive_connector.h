#ifndef PRESTOCPP_CONNECTORS_HIVE_HIVE_CONNECTOR_H_
#define PRESTOCPP_CONNECTORS_HIVE_HIVE_CONNECTOR_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "connector/connector.h"
#include "connectors/hive/minidfs.h"
#include "connectors/hive/storc.h"

namespace presto {

/// Hive connector configuration.
struct HiveConfig {
  DfsConfig dfs;
  /// Lazy column materialization (§V-D); disable for the eager baseline.
  bool lazy_reads = true;
  /// Artificial per-batch split-enumeration delay, modeling slow metastore
  /// partition listings (§IV-D3 "it can take minutes for the Hive connector
  /// to enumerate partitions and list files").
  int64_t split_enumeration_delay_micros = 0;
  /// Rows per storc stripe when writing.
  int64_t stripe_rows = 16384;
  /// Rows per file when loading tables.
  int64_t file_rows = 65536;
};

/// The Hive-style warehouse connector (§II-A): tables are directories of
/// storc files in a simulated remote DFS, with optional single-column
/// partitioning (directory per partition value), table/column statistics
/// available only after AnalyzeTable (the Fig. 6 stats toggle), inexact
/// predicate pushdown via stripe statistics, and exact pushdown (partition
/// pruning) on the partition column.
class HiveConnector final : public Connector {
 public:
  explicit HiveConnector(std::string name = "hive", HiveConfig config = {});
  ~HiveConnector() override;

  const std::string& name() const override { return name_; }
  ConnectorMetadata& metadata() override;

  MiniDfs& dfs() { return dfs_; }
  const HiveConfig& config() const { return config_; }

  /// Creates an empty table (optionally partitioned by one column).
  Status CreateTable(const std::string& table_name, RowSchema schema,
                     const std::string& partition_column = "");

  /// Appends pages to a table, writing storc files (and routing rows into
  /// partition directories when partitioned).
  Status LoadTable(const std::string& table_name,
                   const std::vector<Page>& pages);

  /// Publishes table/column statistics (the paper's ANALYZE; enables the
  /// cost-based optimizations of §IV-C) by merging the sketches recorded
  /// when each storc file was written. Until then statistics are unknown.
  Status AnalyzeTable(const std::string& table_name);

  /// Aggregate lazy-materialization counters (§V-D experiment).
  LazyLoadStats& lazy_stats() { return lazy_stats_; }

  Result<std::unique_ptr<SplitSource>> GetSplits(
      const ScanSpec& spec) override;

  Result<std::unique_ptr<DataSource>> CreateDataSource(
      const Split& split, const ScanSpec& spec) override;

  Result<std::unique_ptr<DataSink>> CreateDataSink(const TableHandle& table,
                                                   int writer_id) override;

  Result<std::string> SerializeSplit(const Split& split) const override;
  Result<SplitPtr> DeserializeSplit(const std::string& data) const override;

 private:
  class Metadata;
  friend class Metadata;

  struct TableInfo {
    RowSchema schema;
    std::string partition_column;  // empty = unpartitioned
    // files per partition value ("" for unpartitioned).
    std::map<std::string, std::vector<std::string>> files;
    // Column sketch of each storc file, recorded when it is written.
    std::map<std::string, ColumnStatsBuilder> file_stats;
    TableStats stats;  // valid() only after AnalyzeTable
    bool pending = false;
    int64_t next_file_id = 0;
  };

  std::string name_;
  HiveConfig config_;
  MiniDfs dfs_;
  std::unique_ptr<Metadata> metadata_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<TableInfo>> tables_;
  LazyLoadStats lazy_stats_;
};

}  // namespace presto

#endif  // PRESTOCPP_CONNECTORS_HIVE_HIVE_CONNECTOR_H_
