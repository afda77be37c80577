#ifndef PRESTOCPP_CONNECTORS_MEMCON_MEMORY_CONNECTOR_H_
#define PRESTOCPP_CONNECTORS_MEMCON_MEMORY_CONNECTOR_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "connector/column_stats.h"
#include "connector/connector.h"

namespace presto {

/// A minimal in-memory connector: tables are vectors of pages. Used by the
/// quickstart example and as the fixture connector in unit tests. Keeps a
/// ColumnStatsBuilder per table so the cost-based optimizer can be
/// exercised without the hive substrate: CreateTable sketches the table's
/// pages, and GetStats sketches only the pages appended since its previous
/// call, so statistics cost O(appended rows), not a scan of the table.
class MemoryConnector final : public Connector {
 public:
  explicit MemoryConnector(std::string name = "memory");
  ~MemoryConnector() override;

  const std::string& name() const override { return name_; }
  ConnectorMetadata& metadata() override;

  /// Registers (or replaces) a table with the given data.
  Status CreateTable(const std::string& table_name, RowSchema schema,
                     std::vector<Page> pages);

  /// Total rows in a table (testing convenience).
  Result<int64_t> RowCount(const std::string& table_name) const;

  /// All pages of a table (testing convenience).
  Result<std::vector<Page>> GetPages(const std::string& table_name) const;

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

  struct TableData {
    RowSchema schema;
    std::vector<Page> pages;
    bool pending = false;  // CTAS target not yet committed
    std::mutex stats_mu;  // taken before mu_, never after
    ColumnStatsBuilder stats;  // describes pages[0, sketched_pages)
    size_t sketched_pages = 0;
  };

  std::string name_;
  std::unique_ptr<Metadata> metadata_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<TableData>> tables_;
};

}  // namespace presto

#endif  // PRESTOCPP_CONNECTORS_MEMCON_MEMORY_CONNECTOR_H_
