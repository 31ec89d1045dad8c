#include "kernels/crs_parallel.hpp"

#include "kernels/layout.hpp"
#include "kernels/shard.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "vsim/program_cache.hpp"

namespace smtu::kernels {

std::string parallel_crs_transpose_source() {
  // Per-core descriptor, r20 (host-staged u32 fields):
  //   +0  AN   +4  JA   +8  IA   +12 ANT   +16 JAT   +20 IAT
  //   +24 COUNT (u32 per column, scratch)
  //   +28 SLOT  (u32 per non-zero: within-column slot from phase 1)
  //   +32 row_lo    +36 row_hi     (phase 3 row range, nnz-balanced)
  //   +40 nnz_lo    +44 nnz_hi     (phase 1 non-zero slice)
  //   +48 col_lo    +52 col_hi     (phase 0/2 column slice)
  //   +56 PARTIAL (u32 per core)   +60 core id   +64 cols
  return R"asm(
main:
;; profile: p0_zero
    lw    r1, 24(r20)            # COUNT
    lw    r2, 48(r20)            # col_lo
    lw    r3, 52(r20)            # col_hi
    sub   r4, r3, r2             # columns in this slice
    slli  r5, r2, 2
    add   r5, r1, r5             # &COUNT[col_lo]
p0_loop:
    beq   r4, r0, p0_done
    setvl r6, r4
    v_bcasti vr1, 0
    v_st  vr1, (r5)
    sub   r4, r4, r6
    slli  r7, r6, 2
    add   r5, r5, r7
    beq   r0, r0, p0_loop
p0_done:
    barrier
;; profile: p1_histogram
    lw    r1, 4(r20)             # JA
    lw    r2, 24(r20)            # COUNT
    lw    r3, 28(r20)            # SLOT
    lw    r4, 40(r20)            # k = nnz_lo
    lw    r5, 44(r20)            # nnz_hi
    li    r9, 1
p1_loop:
    bge   r4, r5, p1_done
    slli  r6, r4, 2
    add   r7, r1, r6
    lw    r7, (r7)               # j = JA[k]
    slli  r7, r7, 2
    add   r7, r2, r7
    amo_add r8, r9, (r7)         # old count of column j
    add   r10, r3, r6
    sw    r8, (r10)              # SLOT[k]: this element's slot in column j
    addi  r4, r4, 1
    beq   r0, r0, p1_loop
p1_done:
    barrier
;; profile: p2_scan
    lw    r1, 24(r20)            # COUNT
    lw    r2, 48(r20)
    lw    r3, 52(r20)
    sub   r4, r3, r2
    slli  r5, r2, 2
    add   r5, r1, r5
    li    r8, 0                  # slice total
p2a_loop:
    beq   r4, r0, p2a_done
    setvl r6, r4
    v_ld  vr1, (r5)
    v_redsum r7, vr1
    add   r8, r8, r7
    sub   r4, r4, r6
    slli  r9, r6, 2
    add   r5, r5, r9
    beq   r0, r0, p2a_loop
p2a_done:
    lw    r9, 56(r20)            # PARTIAL
    lw    r10, 60(r20)           # core id
    slli  r11, r10, 2
    add   r11, r9, r11
    sw    r8, (r11)              # PARTIAL[core] = slice total
    barrier
    li    r8, 0                  # offset = total of earlier slices
    li    r11, 0
p2b_sum:
    bge   r11, r10, p2b_scan
    slli  r12, r11, 2
    add   r12, r9, r12
    lw    r12, (r12)
    add   r8, r8, r12
    addi  r11, r11, 1
    beq   r0, r0, p2b_sum
p2b_scan:
    lw    r6, 20(r20)            # IAT
    lw    r2, 48(r20)            # j = col_lo
    lw    r3, 52(r20)            # col_hi
p2b_loop:
    bge   r2, r3, p2b_tail
    slli  r12, r2, 2
    add   r13, r6, r12
    sw    r8, (r13)              # IAT[j] = running exclusive prefix
    add   r14, r1, r12
    lw    r14, (r14)             # COUNT[j]
    add   r8, r8, r14
    addi  r2, r2, 1
    beq   r0, r0, p2b_loop
p2b_tail:
    lw    r15, 64(r20)           # cols
    bne   r3, r15, p2b_done
    slli  r12, r3, 2
    add   r13, r6, r12
    sw    r8, (r13)              # the last slice closes IAT[cols] = nnz
p2b_done:
    barrier
;; profile: p3_scatter
    lw    r1, 0(r20)             # AN
    lw    r2, 4(r20)             # JA
    lw    r3, 8(r20)             # IA
    lw    r4, 12(r20)            # ANT
    lw    r5, 16(r20)            # JAT
    lw    r6, 20(r20)            # IAT
    lw    r7, 28(r20)            # SLOT
    lw    r8, 32(r20)            # i = row_lo
    lw    r9, 36(r20)            # row_hi
p3_row:
    bge   r8, r9, p3_done
    slli  r10, r8, 2
    add   r11, r3, r10
    lw    r12, (r11)             # k = IA[i]
    lw    r13, 4(r11)            # IA[i+1]
p3_elem:
    bge   r12, r13, p3_next_row
    slli  r14, r12, 2
    add   r15, r2, r14
    lw    r15, (r15)             # j = JA[k]
    slli  r15, r15, 2
    add   r15, r6, r15
    lw    r15, (r15)             # IAT[j]
    add   r16, r7, r14
    lw    r16, (r16)             # SLOT[k]
    add   r15, r15, r16          # dst = IAT[j] + SLOT[k]
    slli  r15, r15, 2
    add   r16, r1, r14
    lw    r16, (r16)             # AN[k]
    add   r17, r4, r15
    sw    r16, (r17)             # ANT[dst]
    add   r17, r5, r15
    sw    r8, (r17)              # JAT[dst] = i
    addi  r12, r12, 1
    beq   r0, r0, p3_elem
p3_next_row:
    addi  r8, r8, 1
    beq   r0, r0, p3_row
p3_done:
    barrier
    halt
)asm";
}

namespace {

CrsImage stage_parallel_crs(vsim::MultiCoreSystem& system, const Csr& csr) {
  const u32 cores = system.num_cores();
  vsim::Memory& mem = system.memory();

  std::vector<u8> bytes;
  const CrsImage image = build_crs_image(csr, kImageBase, bytes);
  mem.write_block(kImageBase, bytes);

  // Scratch arrays past the image: COUNT, SLOT, PARTIAL, descriptors.
  const u64 cols = image.cols;
  const u64 nnz = image.nnz;
  const Addr count = round_up(image.end, 16);
  const Addr slot = round_up(count + 4 * cols, 16);
  const Addr partial = round_up(slot + 4 * nnz, 16);
  const Addr desc_base = round_up(partial + 4ull * cores, 16);
  mem.write_block(count, std::vector<u8>(desc_base - count, 0));

  // Phase-3 row ranges cut where the running non-zero count passes each
  // core's share, so scatter work balances even with skewed rows.
  const std::vector<u64> row_cut = balanced_cuts(csr.row_ptr(), cores);

  for (u32 c = 0; c < cores; ++c) {
    const Addr desc = desc_base + 96ull * c;
    mem.write_u32(desc + 0, static_cast<u32>(image.an));
    mem.write_u32(desc + 4, static_cast<u32>(image.ja));
    mem.write_u32(desc + 8, static_cast<u32>(image.ia));
    mem.write_u32(desc + 12, static_cast<u32>(image.ant));
    mem.write_u32(desc + 16, static_cast<u32>(image.jat));
    mem.write_u32(desc + 20, static_cast<u32>(image.iat));
    mem.write_u32(desc + 24, static_cast<u32>(count));
    mem.write_u32(desc + 28, static_cast<u32>(slot));
    mem.write_u32(desc + 32, static_cast<u32>(row_cut[c]));
    mem.write_u32(desc + 36, static_cast<u32>(row_cut[c + 1]));
    mem.write_u32(desc + 40, static_cast<u32>(nnz * c / cores));
    mem.write_u32(desc + 44, static_cast<u32>(nnz * (c + 1) / cores));
    mem.write_u32(desc + 48, static_cast<u32>(cols * c / cores));
    mem.write_u32(desc + 52, static_cast<u32>(cols * (c + 1) / cores));
    mem.write_u32(desc + 56, static_cast<u32>(partial));
    mem.write_u32(desc + 60, c);
    mem.write_u32(desc + 64, static_cast<u32>(cols));
    system.core(c).set_sreg(20, desc);
  }
  return image;
}

}  // namespace

ParallelCrsTransposeResult run_parallel_crs_transpose(
    const Csr& csr, const vsim::SystemConfig& config,
    std::vector<vsim::PerfCounters>* profilers) {
  const auto program = vsim::ProgramCache::instance().get(parallel_crs_transpose_source());
  vsim::MultiCoreSystem system(config);
  const CrsImage image = stage_parallel_crs(system, csr);
  system.attach_profilers(profilers);

  ParallelCrsTransposeResult result;
  result.stats = system.run(*program);
  result.transposed = read_back_crs_transpose(system.memory(), image);
  result.transposed.canonicalize();
  return result;
}

}  // namespace smtu::kernels
