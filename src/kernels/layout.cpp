#include "kernels/layout.hpp"

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

CrsImage build_crs_image(const Csr& csr, Addr base, std::vector<u8>& bytes) {
  SMTU_CHECK_MSG(csr.validate(), "refusing to stage an invalid CSR matrix");
  const CrsImage image = crs_image_layout(csr.rows(), csr.cols(), csr.nnz(), base);

  // One zeroed buffer with the three input arrays copied in whole (their
  // element encodings match the machine's little-endian u32/f32 stores).
  // An empty matrix's arrays may have null data, which memcpy must not get
  // even for zero bytes.
  bytes.assign(image.end - base, 0);
  if (image.nnz != 0) {
    std::memcpy(bytes.data() + (image.an - base), csr.values().data(), 4 * image.nnz);
    std::memcpy(bytes.data() + (image.ja - base), csr.col_idx().data(), 4 * image.nnz);
  }
  std::memcpy(bytes.data() + (image.ia - base), csr.row_ptr().data(),
              4 * (image.rows + 1));
  return image;
}

Coo read_back_crs_transpose(const vsim::Memory& mem, const CrsImage& image) {
  Coo coo(image.cols, image.rows);
  coo.entries().reserve(image.nnz);

  u32 begin = mem.read_u32(image.iat);
  SMTU_CHECK_MSG(begin == 0, "IAT[0] must be zero after the transpose kernel");
  for (Index row = 0; row < image.cols; ++row) {
    const u32 end = mem.read_u32(image.iat + 4 * (row + 1));
    SMTU_CHECK_MSG(begin <= end && end <= image.nnz, "IAT is not monotone");
    for (u32 k = begin; k < end; ++k) {
      coo.entries().push_back({row, mem.read_u32(image.jat + 4 * k),
                               mem.read_f32(image.ant + 4 * k)});
    }
    begin = end;
  }
  SMTU_CHECK_MSG(begin == image.nnz, "IAT does not cover every non-zero");
  return coo;
}

HismMatrix read_back_hism(const vsim::Machine& machine, const HismImage& image,
                          bool swap_dims) {
  const vsim::Memory& mem = machine.memory();
  const std::span<const u8> raw = mem.raw();
  SMTU_CHECK(image.base + image.bytes.size() <= raw.size());
  const std::span<const u8> window = raw.subspan(image.base, image.bytes.size());
  const Index rows = swap_dims ? image.cols : image.rows;
  const Index cols = swap_dims ? image.rows : image.cols;
  return decode_hism_image(window, image.base, image.root_addr, image.root_len,
                           image.levels, image.section, rows, cols);
}

}  // namespace smtu::kernels
