#include "connectors/hive/storc.h"

#include <cstring>
#include <map>

#include "common/check.h"
#include "vector/block_builder.h"
#include "vector/page_codec.h"

namespace presto {

namespace {

constexpr char kMagic[] = "STORC1";
constexpr size_t kMagicLen = 6;

template <typename T>
void WritePod(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(const std::string& in, size_t* off, T* v) {
  if (*off + sizeof(T) > in.size()) return false;
  std::memcpy(v, in.data() + *off, sizeof(T));
  *off += sizeof(T);
  return true;
}

void WriteValue(std::string* out, TypeKind type, const Value& v) {
  WritePod<uint8_t>(out, v.is_null() ? 1 : 0);
  if (v.is_null()) return;
  switch (type) {
    case TypeKind::kBoolean:
      WritePod<uint8_t>(out, v.AsBoolean() ? 1 : 0);
      break;
    case TypeKind::kBigint:
    case TypeKind::kDate:
      WritePod<int64_t>(out, v.AsBigint());
      break;
    case TypeKind::kDouble:
      WritePod<double>(out, v.AsDouble());
      break;
    case TypeKind::kVarchar: {
      const std::string& s = v.AsVarchar();
      WritePod<uint32_t>(out, static_cast<uint32_t>(s.size()));
      out->append(s);
      break;
    }
    default:
      PRESTO_UNREACHABLE();
  }
}

bool ReadValue(const std::string& in, size_t* off, TypeKind type, Value* v) {
  uint8_t null = 0;
  if (!ReadPod(in, off, &null)) return false;
  if (null) {
    *v = Value::Null(type);
    return true;
  }
  switch (type) {
    case TypeKind::kBoolean: {
      uint8_t b = 0;
      if (!ReadPod(in, off, &b)) return false;
      *v = Value::Boolean(b != 0);
      return true;
    }
    case TypeKind::kBigint: {
      int64_t i = 0;
      if (!ReadPod(in, off, &i)) return false;
      *v = Value::Bigint(i);
      return true;
    }
    case TypeKind::kDate: {
      int64_t i = 0;
      if (!ReadPod(in, off, &i)) return false;
      *v = Value::Date(i);
      return true;
    }
    case TypeKind::kDouble: {
      double d = 0;
      if (!ReadPod(in, off, &d)) return false;
      *v = Value::Double(d);
      return true;
    }
    case TypeKind::kVarchar: {
      uint32_t len = 0;
      if (!ReadPod(in, off, &len)) return false;
      if (*off + len > in.size()) return false;
      *v = Value::Varchar(in.substr(*off, len));
      *off += len;
      return true;
    }
    default:
      return false;
  }
}

// Column chunks ride in PageCodec frames (one single-column page each):
// storc files get the same compression and checksum protection as the
// shuffle and spill paths. Frames are self-delimiting, so chunk
// compositions (dictionary blocks, RLE runs) concatenate cleanly.
const PageCodec& ChunkCodec() {
  static const PageCodec codec(PageCodecOptions{
      PageCompression::kLz4, /*preserve_encodings=*/true, /*checksum=*/true});
  return codec;
}

std::string SerializeBlock(const BlockPtr& block) {
  return ChunkCodec().Encode(Page({block})).bytes;
}

Result<BlockPtr> DeserializeBlock(const std::string& bytes, size_t* off) {
  PRESTO_ASSIGN_OR_RETURN(Page page, ChunkCodec().Decode(bytes, off));
  if (page.num_columns() != 1) {
    return Status::IOError("bad storc chunk: expected one column");
  }
  return page.block(0);
}

// Encodes one column of a stripe, choosing RLE / dictionary / plain by the
// data's shape — the write side of §V-E's "convert certain forms of
// compressed data directly into blocks".
std::string EncodeChunk(const BlockPtr& flat, StorcColumnChunkInfo* info) {
  int64_t rows = flat->size();
  // Gather stats and distinct values (capped).
  std::map<std::string, int64_t> distinct;  // encoded -> first row
  bool all_same = true;
  info->null_count = 0;
  Value min_v, max_v;
  for (int64_t i = 0; i < rows; ++i) {
    if (flat->IsNull(i)) {
      ++info->null_count;
      continue;
    }
    Value v = flat->GetValue(i);
    if (min_v.is_null() || v.Compare(min_v) < 0) min_v = v;
    if (max_v.is_null() || v.Compare(max_v) > 0) max_v = v;
    if (distinct.size() <= 64) {
      distinct.emplace(v.ToString(), i);
    }
  }
  info->has_stats = true;
  info->min = min_v;
  info->max = max_v;
  if (rows > 0) {
    for (int64_t i = 1; i < rows; ++i) {
      if (!flat->EqualsAt(0, *flat, i) &&
          !(flat->IsNull(0) && flat->IsNull(i))) {
        all_same = false;
        break;
      }
    }
  }

  std::string out;
  if (rows > 0 && all_same) {
    WritePod<uint8_t>(&out, static_cast<uint8_t>(StorcEncoding::kRle));
    int32_t zero = 0;
    BlockPtr one = flat->CopyPositions(&zero, 1);
    out += SerializeBlock(one);
    WritePod<int64_t>(&out, rows);
    return out;
  }
  if (distinct.size() <= 64 && info->null_count == 0 &&
      rows >= static_cast<int64_t>(distinct.size()) * 4) {
    // Dictionary: positions of first occurrences form the dictionary.
    std::vector<int32_t> dict_positions;
    std::map<std::string, int32_t> codes;
    for (const auto& [key, first_row] : distinct) {
      codes[key] = static_cast<int32_t>(dict_positions.size());
      dict_positions.push_back(static_cast<int32_t>(first_row));
    }
    BlockPtr dictionary = flat->CopyPositions(
        dict_positions.data(), static_cast<int64_t>(dict_positions.size()));
    std::vector<int32_t> indices(static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) {
      indices[static_cast<size_t>(i)] = codes[flat->GetValue(i).ToString()];
    }
    WritePod<uint8_t>(&out, static_cast<uint8_t>(StorcEncoding::kDict));
    out += SerializeBlock(dictionary);
    WritePod<int64_t>(&out, rows);
    out.append(reinterpret_cast<const char*>(indices.data()),
               indices.size() * sizeof(int32_t));
    return out;
  }
  WritePod<uint8_t>(&out, static_cast<uint8_t>(StorcEncoding::kPlain));
  out += SerializeBlock(flat);
  return out;
}

}  // namespace

Result<BlockPtr> DecodeStorcChunk(const std::string& bytes, int64_t rows) {
  size_t off = 0;
  uint8_t encoding = 0;
  if (!ReadPod(bytes, &off, &encoding)) {
    return Status::IOError("truncated storc chunk");
  }
  switch (static_cast<StorcEncoding>(encoding)) {
    case StorcEncoding::kPlain:
      return DeserializeBlock(bytes, &off);
    case StorcEncoding::kDict: {
      PRESTO_ASSIGN_OR_RETURN(BlockPtr dictionary,
                              DeserializeBlock(bytes, &off));
      int64_t n = 0;
      if (!ReadPod(bytes, &off, &n) || n != rows) {
        return Status::IOError("bad storc dict chunk");
      }
      std::vector<int32_t> indices(static_cast<size_t>(n));
      if (off + indices.size() * sizeof(int32_t) > bytes.size()) {
        return Status::IOError("truncated storc dict indices");
      }
      std::memcpy(indices.data(), bytes.data() + off,
                  indices.size() * sizeof(int32_t));
      return BlockPtr(std::make_shared<DictionaryBlock>(std::move(dictionary),
                                                        std::move(indices)));
    }
    case StorcEncoding::kRle: {
      PRESTO_ASSIGN_OR_RETURN(BlockPtr one, DeserializeBlock(bytes, &off));
      int64_t n = 0;
      if (!ReadPod(bytes, &off, &n) || n != rows) {
        return Status::IOError("bad storc rle chunk");
      }
      return BlockPtr(std::make_shared<RleBlock>(std::move(one), n));
    }
  }
  return Status::IOError("unknown storc encoding");
}

StorcWriter::StorcWriter(RowSchema schema, int64_t stripe_rows)
    : schema_(std::move(schema)),
      stats_(schema_),
      stripe_rows_(stripe_rows) {}

void StorcWriter::Append(const Page& page) {
  PRESTO_CHECK(page.num_columns() == schema_.size());
  stats_.Add(page);
  buffered_.push_back(page);
  buffered_rows_ += page.num_rows();
  rows_written_ += page.num_rows();
  while (buffered_rows_ >= stripe_rows_) FlushStripe();
}

void StorcWriter::FlushStripe() {
  if (buffered_rows_ == 0) return;
  int64_t take = std::min(buffered_rows_, stripe_rows_);
  // Concatenate `take` rows per column into flat blocks.
  std::vector<BlockBuilder> builders;
  for (const auto& col : schema_.columns()) builders.emplace_back(col.type);
  int64_t taken = 0;
  size_t consumed_pages = 0;
  int64_t consumed_rows_in_page = 0;
  for (const auto& page : buffered_) {
    if (taken >= take) break;
    int64_t start = 0;
    int64_t rows = std::min(page.num_rows(), take - taken);
    for (size_t c = 0; c < schema_.size(); ++c) {
      const auto& block = *page.block(c);
      for (int64_t r = start; r < rows; ++r) builders[c].AppendFrom(block, r);
    }
    taken += rows;
    if (rows == page.num_rows()) {
      ++consumed_pages;
    } else {
      consumed_rows_in_page = rows;
    }
  }
  // Remove consumed rows from the buffer.
  std::vector<Page> rest;
  if (consumed_rows_in_page > 0 && consumed_pages < buffered_.size()) {
    const Page& partial = buffered_[consumed_pages];
    std::vector<int32_t> positions;
    for (int64_t r = consumed_rows_in_page; r < partial.num_rows(); ++r) {
      positions.push_back(static_cast<int32_t>(r));
    }
    rest.push_back(partial.CopyPositions(
        positions.data(), static_cast<int64_t>(positions.size())));
  }
  for (size_t p = consumed_pages + (consumed_rows_in_page > 0 ? 1 : 0);
       p < buffered_.size(); ++p) {
    rest.push_back(buffered_[p]);
  }
  buffered_ = std::move(rest);
  buffered_rows_ -= taken;

  StorcStripeInfo stripe;
  stripe.rows = taken;
  for (size_t c = 0; c < schema_.size(); ++c) {
    StorcColumnChunkInfo info;
    BlockPtr flat = builders[c].Build();
    std::string chunk = EncodeChunk(flat, &info);
    info.offset = static_cast<int64_t>(data_.size());
    info.length = static_cast<int64_t>(chunk.size());
    data_ += chunk;
    stripe.columns.push_back(std::move(info));
  }
  stripes_.push_back(std::move(stripe));
}

std::string StorcWriter::Finish() {
  while (buffered_rows_ > 0) FlushStripe();
  // Footer.
  std::string footer;
  WritePod<uint32_t>(&footer, static_cast<uint32_t>(schema_.size()));
  for (const auto& col : schema_.columns()) {
    WritePod<uint16_t>(&footer, static_cast<uint16_t>(col.name.size()));
    footer += col.name;
    WritePod<uint8_t>(&footer, static_cast<uint8_t>(col.type));
  }
  WritePod<uint32_t>(&footer, static_cast<uint32_t>(stripes_.size()));
  int64_t total_rows = 0;
  for (const auto& stripe : stripes_) {
    total_rows += stripe.rows;
    WritePod<int64_t>(&footer, stripe.rows);
    for (size_t c = 0; c < stripe.columns.size(); ++c) {
      const auto& info = stripe.columns[c];
      WritePod<int64_t>(&footer, info.offset);
      WritePod<int64_t>(&footer, info.length);
      WritePod<uint8_t>(&footer, info.has_stats ? 1 : 0);
      if (info.has_stats) {
        TypeKind type = schema_.at(c).type;
        WriteValue(&footer, type, info.min);
        WriteValue(&footer, type, info.max);
        WritePod<int64_t>(&footer, info.null_count);
      }
    }
  }
  WritePod<int64_t>(&footer, total_rows);

  std::string out = std::move(data_);
  auto footer_offset = static_cast<int64_t>(out.size());
  out += footer;
  WritePod<int64_t>(&out, footer_offset);
  out.append(kMagic, kMagicLen);
  return out;
}

Result<StorcFooter> ReadStorcFooter(const MiniDfs& dfs,
                                    const std::string& path) {
  PRESTO_ASSIGN_OR_RETURN(int64_t size, dfs.FileSize(path));
  auto tail_len = static_cast<int64_t>(sizeof(int64_t) + kMagicLen);
  if (size < tail_len) return Status::IOError("not a storc file: " + path);
  PRESTO_ASSIGN_OR_RETURN(std::string tail,
                          dfs.ReadRange(path, size - tail_len, tail_len));
  if (tail.substr(sizeof(int64_t), kMagicLen) != kMagic) {
    return Status::IOError("bad storc magic in " + path);
  }
  int64_t footer_offset = 0;
  std::memcpy(&footer_offset, tail.data(), sizeof(int64_t));
  if (footer_offset < 0 || footer_offset > size - tail_len) {
    return Status::IOError("bad storc footer offset in " + path);
  }
  PRESTO_ASSIGN_OR_RETURN(
      std::string raw,
      dfs.ReadRange(path, footer_offset, size - tail_len - footer_offset));

  StorcFooter footer;
  size_t off = 0;
  uint32_t ncols = 0;
  if (!ReadPod(raw, &off, &ncols)) return Status::IOError("bad storc footer");
  for (uint32_t c = 0; c < ncols; ++c) {
    uint16_t name_len = 0;
    if (!ReadPod(raw, &off, &name_len) || off + name_len > raw.size()) {
      return Status::IOError("bad storc footer (column name)");
    }
    std::string name = raw.substr(off, name_len);
    off += name_len;
    uint8_t type = 0;
    if (!ReadPod(raw, &off, &type)) {
      return Status::IOError("bad storc footer (column type)");
    }
    footer.schema.Add(std::move(name), static_cast<TypeKind>(type));
  }
  uint32_t nstripes = 0;
  if (!ReadPod(raw, &off, &nstripes)) {
    return Status::IOError("bad storc footer (stripes)");
  }
  for (uint32_t s = 0; s < nstripes; ++s) {
    StorcStripeInfo stripe;
    if (!ReadPod(raw, &off, &stripe.rows)) {
      return Status::IOError("bad storc footer (stripe rows)");
    }
    for (uint32_t c = 0; c < ncols; ++c) {
      StorcColumnChunkInfo info;
      uint8_t has_stats = 0;
      if (!ReadPod(raw, &off, &info.offset) ||
          !ReadPod(raw, &off, &info.length) ||
          !ReadPod(raw, &off, &has_stats)) {
        return Status::IOError("bad storc footer (chunk)");
      }
      info.has_stats = has_stats != 0;
      if (info.has_stats) {
        TypeKind type = footer.schema.at(c).type;
        if (!ReadValue(raw, &off, type, &info.min) ||
            !ReadValue(raw, &off, type, &info.max) ||
            !ReadPod(raw, &off, &info.null_count)) {
          return Status::IOError("bad storc footer (stats)");
        }
      }
      stripe.columns.push_back(std::move(info));
    }
    footer.stripes.push_back(std::move(stripe));
  }
  if (!ReadPod(raw, &off, &footer.total_rows)) {
    return Status::IOError("bad storc footer (total rows)");
  }
  return footer;
}

StorcReader::StorcReader(const MiniDfs* dfs, std::string path,
                         StorcFooter footer, std::vector<int> columns,
                         std::vector<ColumnPredicate> predicates, bool lazy,
                         LazyLoadStats* lazy_stats)
    : dfs_(dfs),
      path_(std::move(path)),
      footer_(std::move(footer)),
      columns_(std::move(columns)),
      predicates_(std::move(predicates)),
      lazy_(lazy),
      lazy_stats_(lazy_stats) {}

bool StorcReader::StripePruned(const StorcStripeInfo& stripe) const {
  for (const auto& pred : predicates_) {
    auto idx = footer_.schema.IndexOf(pred.column);
    if (!idx.has_value()) continue;
    const auto& info = stripe.columns[*idx];
    if (!info.has_stats || info.min.is_null() || info.max.is_null()) continue;
    switch (pred.op) {
      case ColumnPredicate::Op::kEq:
        if (pred.values[0].Compare(info.min) < 0 ||
            pred.values[0].Compare(info.max) > 0) {
          return true;
        }
        break;
      case ColumnPredicate::Op::kIn: {
        bool any_inside = false;
        for (const auto& v : pred.values) {
          if (v.Compare(info.min) >= 0 && v.Compare(info.max) <= 0) {
            any_inside = true;
            break;
          }
        }
        if (!any_inside) return true;
        break;
      }
      case ColumnPredicate::Op::kLt:
        if (info.min.Compare(pred.values[0]) >= 0) return true;
        break;
      case ColumnPredicate::Op::kLte:
        if (info.min.Compare(pred.values[0]) > 0) return true;
        break;
      case ColumnPredicate::Op::kGt:
        if (info.max.Compare(pred.values[0]) <= 0) return true;
        break;
      case ColumnPredicate::Op::kGte:
        if (info.max.Compare(pred.values[0]) < 0) return true;
        break;
      case ColumnPredicate::Op::kNeq:
        break;
    }
  }
  return false;
}

Result<std::optional<Page>> StorcReader::NextPage() {
  while (next_stripe_ < footer_.stripes.size()) {
    const StorcStripeInfo& stripe = footer_.stripes[next_stripe_++];
    if (StripePruned(stripe)) {
      ++stripes_skipped_;
      if (lazy_stats_ != nullptr) {
        lazy_stats_->blocks_skipped.fetch_add(
            static_cast<int64_t>(columns_.size()));
      }
      continue;
    }
    ++stripes_read_;
    std::vector<BlockPtr> blocks;
    blocks.reserve(columns_.size());
    for (int c : columns_) {
      const auto& info = stripe.columns[static_cast<size_t>(c)];
      const MiniDfs* dfs = dfs_;
      std::string path = path_;
      int64_t offset = info.offset;
      int64_t length = info.length;
      int64_t rows = stripe.rows;
      auto loader = [dfs, path, offset, length, rows]() -> BlockPtr {
        auto bytes = dfs->ReadRange(path, offset, length);
        PRESTO_CHECK(bytes.ok());
        auto block = DecodeStorcChunk(*bytes, rows);
        PRESTO_CHECK(block.ok());
        return *block;
      };
      if (lazy_) {
        blocks.push_back(std::make_shared<LazyBlock>(
            footer_.schema.at(static_cast<size_t>(c)).type, stripe.rows,
            loader, lazy_stats_));
      } else {
        // Eager baseline for the §V-D experiment.
        BlockPtr block = loader();
        if (lazy_stats_ != nullptr) {
          lazy_stats_->blocks_loaded.fetch_add(1);
          lazy_stats_->cells_loaded.fetch_add(stripe.rows);
          lazy_stats_->bytes_loaded.fetch_add(block->SizeInBytes());
        }
        blocks.push_back(std::move(block));
      }
    }
    return std::optional<Page>(Page(std::move(blocks), stripe.rows));
  }
  return std::optional<Page>();
}

}  // namespace presto
