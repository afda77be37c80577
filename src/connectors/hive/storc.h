#ifndef PRESTOCPP_CONNECTORS_HIVE_STORC_H_
#define PRESTOCPP_CONNECTORS_HIVE_STORC_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "connector/column_stats.h"
#include "connector/connector.h"
#include "connectors/hive/minidfs.h"
#include "types/row_schema.h"
#include "vector/encoded_block.h"
#include "vector/page.h"

namespace presto {

/// storc ("simulated ORC") — the columnar file format used by the hive and
/// raptor connectors. Files are organized as stripes of column chunks with
/// per-stripe min/max statistics in the footer, mirroring the ORC features
/// the paper's custom readers exploit (§V-C): footer statistics allow whole
/// stripes to be skipped, and dictionary/RLE-encoded chunks decode directly
/// into engine blocks the page processor can operate on (§V-E). Reads are
/// lazy (§V-D): a column chunk is fetched and decoded only when a cell of
/// it is first accessed.
enum class StorcEncoding : uint8_t { kPlain = 0, kDict = 1, kRle = 2 };

struct StorcColumnChunkInfo {
  int64_t offset = 0;
  int64_t length = 0;
  bool has_stats = false;
  Value min;
  Value max;
  int64_t null_count = 0;
};

struct StorcStripeInfo {
  int64_t rows = 0;
  std::vector<StorcColumnChunkInfo> columns;
};

struct StorcFooter {
  RowSchema schema;
  std::vector<StorcStripeInfo> stripes;
  int64_t total_rows = 0;
};

/// Buffers pages and encodes them into the storc byte format. Every page
/// appended is also sketched, so the finished file comes with its column
/// statistics.
class StorcWriter {
 public:
  explicit StorcWriter(RowSchema schema, int64_t stripe_rows = 16384);

  void Append(const Page& page);

  /// Flushes remaining rows and returns the complete file contents.
  std::string Finish();

  int64_t rows_written() const { return rows_written_; }

  /// Statistics of every row appended so far.
  const ColumnStatsBuilder& column_stats() const { return stats_; }

 private:
  void FlushStripe();

  RowSchema schema_;
  ColumnStatsBuilder stats_;
  int64_t stripe_rows_;
  std::vector<Page> buffered_;
  int64_t buffered_rows_ = 0;
  int64_t rows_written_ = 0;
  std::string data_;
  std::vector<StorcStripeInfo> stripes_;
};

/// Parses the footer of a storc file (one metadata read).
Result<StorcFooter> ReadStorcFooter(const MiniDfs& dfs,
                                    const std::string& path);

/// Streams the stripes of one storc file as pages of lazy blocks, skipping
/// stripes whose statistics exclude the pushed-down predicates.
class StorcReader {
 public:
  StorcReader(const MiniDfs* dfs, std::string path, StorcFooter footer,
              std::vector<int> columns,
              std::vector<ColumnPredicate> predicates, bool lazy,
              LazyLoadStats* lazy_stats);

  /// One page per surviving stripe; nullopt at end.
  Result<std::optional<Page>> NextPage();

  int64_t stripes_read() const { return stripes_read_; }
  int64_t stripes_skipped() const { return stripes_skipped_; }

 private:
  bool StripePruned(const StorcStripeInfo& stripe) const;

  const MiniDfs* dfs_;
  std::string path_;
  StorcFooter footer_;
  std::vector<int> columns_;
  std::vector<ColumnPredicate> predicates_;
  bool lazy_;
  LazyLoadStats* lazy_stats_;
  size_t next_stripe_ = 0;
  int64_t stripes_read_ = 0;
  int64_t stripes_skipped_ = 0;
};

/// Decodes one column chunk payload (exposed for tests).
Result<BlockPtr> DecodeStorcChunk(const std::string& bytes, int64_t rows);

}  // namespace presto

#endif  // PRESTOCPP_CONNECTORS_HIVE_STORC_H_
