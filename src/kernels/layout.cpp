#include "kernels/layout.hpp"

#include <bit>
#include <cstring>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace smtu::kernels {
namespace {

Addr align16(Addr addr) { return round_up(addr, 16); }

}  // namespace

CrsImage crs_image_layout(Index rows, Index cols, usize nnz, Addr base) {
  CrsImage image;
  image.rows = rows;
  image.cols = cols;
  image.nnz = nnz;

  Addr cursor = align16(base);
  auto reserve = [&](u64 size) {
    const Addr at = cursor;
    cursor = align16(cursor + size);
    return at;
  };
  image.an = reserve(4 * image.nnz);
  image.ja = reserve(4 * image.nnz);
  image.ia = reserve(4 * (image.rows + 1));
  image.ant = reserve(4 * image.nnz);
  image.jat = reserve(4 * image.nnz);
  image.iat = reserve(4 * (image.cols + 1));
  image.end = cursor;
  return image;
}

void write_crs_image(const Csr& csr, const CrsImage& image, std::span<u8> memory) {
  SMTU_CHECK_MSG(csr.validate(), "refusing to stage an invalid CSR matrix");
  SMTU_CHECK(csr.rows() == image.rows && csr.cols() == image.cols && csr.nnz() == image.nnz);
  SMTU_CHECK(image.end <= memory.size());
  // The three input arrays are copied in whole (their element encodings
  // match the machine's little-endian u32/f32 stores). An empty matrix's
  // arrays may have null data, which memcpy must not get even for zero
  // bytes.
  if (image.nnz != 0) {
    std::memcpy(memory.data() + image.an, csr.values().data(), 4 * image.nnz);
    std::memcpy(memory.data() + image.ja, csr.col_idx().data(), 4 * image.nnz);
  }
  std::memcpy(memory.data() + image.ia, csr.row_ptr().data(), 4 * (image.rows + 1));
}

Coo read_back_crs_transpose(const vsim::Memory& mem, const CrsImage& image) {
  const auto word = [](const u8* array, u64 index) {
    u32 value;
    std::memcpy(&value, array + 4 * index, 4);
    return value;
  };
  const u8* const iat = mem.read_span(image.iat, 4 * (image.cols + 1));
  const u8* jat = nullptr;
  const u8* ant = nullptr;
  if (image.nnz != 0) {
    jat = mem.read_span(image.jat, 4 * image.nnz);
    ant = mem.read_span(image.ant, 4 * image.nnz);
  }

  Coo coo(image.cols, image.rows);
  coo.entries().reserve(image.nnz);
  u32 begin = word(iat, 0);
  SMTU_CHECK_MSG(begin == 0, "IAT[0] must be zero after the transpose kernel");
  for (Index row = 0; row < image.cols; ++row) {
    const u32 end = word(iat, row + 1);
    SMTU_CHECK_MSG(begin <= end && end <= image.nnz, "IAT is not monotone");
    for (u32 k = begin; k < end; ++k) {
      coo.entries().push_back({row, word(jat, k), std::bit_cast<float>(word(ant, k))});
    }
    begin = end;
  }
  SMTU_CHECK_MSG(begin == image.nnz, "IAT does not cover every non-zero");
  return coo;
}

HismMatrix read_back_hism(const vsim::Machine& machine, const HismImage& image,
                          bool swap_dims) {
  const std::span<const u8> raw = machine.memory().raw();
  SMTU_CHECK(image.end <= raw.size());
  const std::span<const u8> window = raw.subspan(image.base, image.end - image.base);
  const Index rows = swap_dims ? image.cols : image.rows;
  const Index cols = swap_dims ? image.rows : image.cols;
  return decode_hism_image(window, image.base, image.root_addr, image.root_len,
                           image.levels, image.section, rows, cols);
}

}  // namespace smtu::kernels
