// Shared helpers for the smtu test suite.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "formats/coo.hpp"
#include "kernels/staging.hpp"
#include "support/rng.hpp"

namespace smtu::testing {

// Builds a COO matrix from an initializer list of (row, col, value).
inline Coo make_coo(Index rows, Index cols,
                    std::initializer_list<std::tuple<Index, Index, float>> entries) {
  Coo coo(rows, cols);
  for (const auto& [r, c, v] : entries) coo.add(r, c, v);
  coo.canonicalize();
  return coo;
}

// Random matrix with `nnz` distinct positions (deterministic in the rng).
inline Coo random_coo(Index rows, Index cols, usize nnz, Rng& rng) {
  Coo coo(rows, cols);
  for (const u64 cell : rng.sample_without_replacement(rows * cols, nnz)) {
    coo.add(cell / cols, cell % cols, static_cast<float>(rng.uniform(0.5, 2.0)));
  }
  coo.canonicalize();
  return coo;
}

// The stages the HiSM and CRS kernel runners take (kernels/staging.hpp).
inline kernels::HismStage hism_stage(const Coo& coo, u32 section) {
  return kernels::build_hism_stage(HismMatrix::from_coo(coo, section));
}
inline kernels::CrsStage crs_stage(const Coo& coo) {
  return kernels::build_crs_stage(Csr::from_coo(coo));
}

// The image of `hism` at `base` (hism/image.hpp) in a zeroed memory of its
// own: memory[a] is the byte at address a, for every a below image.end.
struct WrittenHismImage {
  HismImage image;
  std::vector<u8> memory;
};
inline WrittenHismImage written_hism_image(const HismMatrix& hism, Addr base) {
  WrittenHismImage written{hism_image_layout(hism, base), {}};
  written.memory.assign(written.image.end, 0);
  write_hism_image(hism, written.image, written.memory);
  return written;
}

// gtest matcher-style assertion: two matrices are structurally identical.
inline ::testing::AssertionResult coo_equal(const Coo& lhs, const Coo& rhs) {
  if (structurally_equal(lhs, rhs)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "matrices differ: lhs " << lhs.rows() << "x" << lhs.cols() << "/" << lhs.nnz()
         << " vs rhs " << rhs.rows() << "x" << rhs.cols() << "/" << rhs.nnz();
}

// A fresh directory under the system temp dir, named by `tag` and the
// process id, removed with everything in it when the object goes away.
class TempDir {
 public:
  explicit TempDir(const char* tag)
      : path_(std::filesystem::temp_directory_path() /
              (std::string("smtu_test_") + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

// One line of every mnemonic in opcode order, each alias after its opcode,
// with distinct register numbers in every operand slot
// (tests/test_isa_table.cpp pins how it assembles and decodes).
inline constexpr const char* kEveryMnemonic =
    "target:\n"
    "  li r3, -7\n"
    "  mv r5, r17\n"
    "  add r6, r18, r29\n"
    "  sub r7, r19, r28\n"
    "  mul r8, r20, r27\n"
    "  and r9, r21, r26\n"
    "  or r10, r22, r25\n"
    "  xor r11, r23, r24\n"
    "  sll r12, r24, r23\n"
    "  srl r13, r25, r22\n"
    "  min r14, r26, r21\n"
    "  max r15, r27, r20\n"
    "  addi r16, r28, 12\n"
    "  muli r17, r29, -3\n"
    "  andi r18, r30, 0xff\n"
    "  slli r19, r31, 5\n"
    "  srli r20, r1, 7\n"
    "  fadd r21, r2, r3\n"
    "  fmul r22, r4, r5\n"
    "  lw r23, 8(r6)\n"
    "  sw r24, -4(r7)\n"
    "  lhu r25, 2(r8)\n"
    "  sh r26, 6(r9)\n"
    "  lbu r27, 1(r10)\n"
    "  sb r28, 3(r11)\n"
    "  beq r29, r12, target\n"
    "  bne r30, r13, target\n"
    "  blt r31, r14, target\n"
    "  bge r1, r15, target\n"
    "  jal target\n"
    "  call target\n"
    "  jr r16\n"
    "  ret\n"
    "  halt\n"
    "  nop\n"
    "  ssvl r19\n"
    "  setvl r20, r21\n"
    "  v_ld vr1, 4(r22)\n"
    "  v_st vr2, (r23)\n"
    "  v_ldx vr3, 8(r24), vr4\n"
    "  v_ld_idx vr5, (r25), vr6\n"
    "  v_stx vr7, 12(r26), vr8\n"
    "  v_st_idx vr9, (r27), vr10\n"
    "  v_lds vr11, 16(r28), r29\n"
    "  v_sts vr12, (r30), r31\n"
    "  v_add vr13, vr14, vr15\n"
    "  v_sub vr1, vr2, vr3\n"
    "  v_mul vr4, vr5, vr6\n"
    "  v_and vr7, vr8, vr9\n"
    "  v_or vr10, vr11, vr12\n"
    "  v_xor vr13, vr14, vr15\n"
    "  v_min vr15, vr1, vr2\n"
    "  v_max vr3, vr4, vr5\n"
    "  v_addi vr6, vr7, 9\n"
    "  v_add_imm vr8, vr9, -2\n"
    "  v_adds vr10, vr11, r17\n"
    "  v_bcast vr12, r18\n"
    "  v_bcasti vr13, 0x40\n"
    "  v_setimm vr14, 3\n"
    "  v_iota vr15\n"
    "  v_slideup vr1, vr2, 4\n"
    "  v_slidedown vr3, vr4, 8\n"
    "  v_redsum r19, vr5\n"
    "  v_extract r20, vr6, r21\n"
    "  v_seq vr7, vr8, vr9\n"
    "  v_seqs vr10, vr11, r22\n"
    "  v_fadd vr12, vr13, vr14\n"
    "  v_fmul vr15, vr1, vr2\n"
    "  v_fredsum r23, vr3\n"
    "  icm\n"
    "  v_ldb vr4, vr5, r24, r25\n"
    "  v_stcr vr6, vr7\n"
    "  v_ldcc vr8, vr9\n"
    "  v_stb vr10, vr11, r26, r27\n"
    "  v_stbv vr12, r28\n"
    "  v_gthc vr13, 20(r29), vr14\n"
    "  v_scar vr15, (r30), vr1\n"
    "  v_gthr vr2, 24(r31), vr3\n"
    "  v_scac vr4, (r1), vr5\n"
    "  v_scax vr6, 28(r2), vr7\n"
    "  barrier\n"
    "  amo_add r2, r17, 16(r18)\n";

}  // namespace smtu::testing
