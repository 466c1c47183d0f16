#include "relstorage/storage_table.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace relfab::relstorage {

StorageTable::StorageTable(layout::Schema schema,
                           std::vector<uint8_t> row_data, uint64_t num_rows,
                           uint32_t page_bytes)
    : schema_(std::move(schema)),
      row_data_(std::move(row_data)),
      num_rows_(num_rows),
      page_bytes_(page_bytes),
      codecs_(schema_.num_columns()) {
  // relfab-lint: allow(data-check) Create() already rejected bad sizes with Status; the private ctor re-asserts the validated invariant
  RELFAB_CHECK(page_bytes_ > 0);
  // relfab-lint: allow(data-check) same validated-by-Create invariant as above
  RELFAB_CHECK_GE(row_data_.size(), num_rows_ * schema_.row_bytes());
}

StatusOr<StorageTable> StorageTable::Create(layout::Schema schema,
                                            std::vector<uint8_t> row_data,
                                            uint64_t num_rows,
                                            uint32_t page_bytes) {
  if (page_bytes == 0) {
    return Status::InvalidArgument("page_bytes must be positive");
  }
  if (row_data.size() < num_rows * schema.row_bytes()) {
    return Status::InvalidArgument(
        "row data holds " + std::to_string(row_data.size()) +
        " bytes, need " + std::to_string(num_rows * schema.row_bytes()) +
        " for " + std::to_string(num_rows) + " rows");
  }
  return StorageTable(std::move(schema), std::move(row_data), num_rows,
                      page_bytes);
}

double StorageTable::EffectiveRowBytes() const {
  double bytes = 0;
  for (uint32_t c = 0; c < schema_.num_columns(); ++c) {
    if (codecs_[c] != nullptr && num_rows_ > 0) {
      bytes += static_cast<double>(codecs_[c]->encoded_bytes()) /
               static_cast<double>(num_rows_);
    } else {
      bytes += schema_.width(c);
    }
  }
  return bytes;
}

uint64_t StorageTable::TotalPages() const {
  const double total_bytes =
      EffectiveRowBytes() * static_cast<double>(num_rows_);
  return static_cast<uint64_t>(std::ceil(total_bytes / page_bytes_));
}

uint64_t StorageTable::PagesFor(const std::vector<uint32_t>&) const {
  // Row-oriented flash layout: every page interleaves all columns, so an
  // in-storage scan of any column subset senses every page of the table.
  // (Saving sense traffic would require a columnar flash layout — the
  // duplication Relational Fabric is designed to avoid.)
  return TotalPages();
}

Status StorageTable::CompressColumn(
    uint32_t col, std::unique_ptr<compress::ColumnCodec> codec) {
  if (col >= schema_.num_columns()) {
    return Status::OutOfRange("column out of range");
  }
  if (!layout::IsIntegerType(schema_.type(col))) {
    return Status::InvalidArgument(
        "only integer columns support compression here");
  }
  std::vector<int64_t> values(num_rows_);
  for (uint64_t r = 0; r < num_rows_; ++r) {
    const uint8_t* p = FieldPtr(r, col);
    if (schema_.width(col) == 4) {
      int32_t v;
      std::memcpy(&v, p, 4);
      values[r] = v;
    } else {
      std::memcpy(&values[r], p, 8);
    }
  }
  RELFAB_RETURN_IF_ERROR(codec->Encode(values));
  codecs_[col] = std::move(codec);
  return Status::Ok();
}

int64_t StorageTable::GetInt(uint64_t row, uint32_t col) const {
  RELFAB_DCHECK(row < num_rows_);
  if (codecs_[col] != nullptr) return codecs_[col]->ValueAt(row);
  return layout::LoadInt(schema_.type(col), FieldPtr(row, col));
}

double StorageTable::GetDouble(uint64_t row, uint32_t col) const {
  if (codecs_[col] != nullptr) {
    RELFAB_DCHECK(layout::IsIntegerType(schema_.type(col)));
    return static_cast<double>(codecs_[col]->ValueAt(row));
  }
  return layout::LoadDouble(schema_.type(col), FieldPtr(row, col));
}

}  // namespace relfab::relstorage
