// Memory layouts of the HiSM and CRS images the kernels run on, and their
// read-back from simulated memory. kernels/staging.hpp turns an image into
// the stage a machine attaches.
#pragma once

#include "formats/csr.hpp"
#include "hism/image.hpp"
#include "vsim/machine.hpp"

namespace smtu::kernels {

// Where workload images are placed. The stack for the recursive HiSM kernel
// sits below the image region and grows downward.
inline constexpr Addr kImageBase = 0x10000;
inline constexpr Addr kStackTop = 0x10000;

// CRS image: the six arrays of the paper's Fig. 8/9, 16-byte aligned.
struct CrsImage {
  Addr an = 0;   // AN : float values, row-wise
  Addr ja = 0;   // JA : u32 column indices
  Addr ia = 0;   // IA : u32 row pointers (rows + 1)
  Addr ant = 0;  // ANT: output values
  Addr jat = 0;  // JAT: output column indices
  Addr iat = 0;  // IAT: output row pointers (cols + 1)
  Index rows = 0;
  Index cols = 0;
  usize nnz = 0;
  Addr end = 0;  // first free address past the image
};

// The array addresses of the CRS image of a rows x cols matrix with `nnz`
// non-zeros placed from `base`; image.end - base is the image's size.
CrsImage crs_image_layout(Index rows, Index cols, usize nnz, Addr base);

// Serializes AN/JA/IA of `csr` at the addresses of `image` (its
// crs_image_layout) into `memory`, the bytes of addresses
// [0, memory.size()). It must cover image.end and read zero up to it, as a
// fresh buffer or a fresh machine's memory does: the output arrays are
// left as they are. build_crs_stage writes straight into its snapshot.
void write_crs_image(const Csr& csr, const CrsImage& image, std::span<u8> memory);

// Reads the transposed matrix (ANT/JAT/IAT) back as COO, each array with
// one bounds check.
Coo read_back_crs_transpose(const vsim::Memory& memory, const CrsImage& image);

// Decodes the (possibly transposed, in-place) HiSM image from machine
// memory. Pass swap_dims = true after running the transpose kernel.
HismMatrix read_back_hism(const vsim::Machine& machine, const HismImage& image,
                          bool swap_dims);

}  // namespace smtu::kernels
