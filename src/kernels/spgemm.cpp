#include "kernels/spgemm.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

#include "formats/dense.hpp"
#include "hism/hism.hpp"
#include "hism/image.hpp"
#include "kernels/layout.hpp"
#include "kernels/shard.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "vsim/program_cache.hpp"

namespace smtu::kernels {

std::string hism_spgemm_source(u32 section) {
  SMTU_CHECK_MSG(std::has_single_bit(section), "section must be a power of two");
  // Per-core descriptor, r20 (host-staged u32 fields):
  //   +0  A root address   +4  A root length (0 = empty A)
  //   +8  levels - 1       +12 root coverage (s^levels, rows/cols per digit)
  //   +16 B_IA   +20 B_JA   +24 B_AN
  //   +28 C base (dense n x p, zeroed)   +32 p (= cols of B)
  //   +36 i_lo   +40 i_hi   (this core's output-row stripe, s-aligned)
  //   +44 scratch positions   +48 scratch values (per core, s*s entries)
  //
  // gust_block(r1 = BSA, r2 = BSL, r3 = LVL, r4 = coverage,
  //            r5 = k_base, r6 = i_base) walks A's hierarchy. Position
  //   byte 0 is the row digit (k direction), byte 1 the column digit
  //   (i direction); a child spans coverage/s elements per digit step.
  std::ostringstream out;
  out << R"asm(
main:
;; profile: spgemm_setup
    lw    r1, 0(r20)             # A root address
    lw    r2, 4(r20)             # A root length
    lw    r3, 8(r20)             # levels - 1
    lw    r4, 12(r20)            # root coverage
    li    r5, 0                  # k_base
    li    r6, 0                  # i_base
    jal   gust_block
    halt

;; profile: spgemm_walk
gust_block:
    beq   r2, r0, gb_ret         # empty block array
    lw    r7, 36(r20)            # i_lo
    lw    r8, 40(r20)            # i_hi
    bge   r6, r8, gb_ret         # block's columns start past the stripe
    add   r9, r6, r4
    bge   r7, r9, gb_ret         # block's columns end before the stripe

    # Slot array geometry: positions at BSA, slots at BSA + align4(2n),
    # lengths (levels >= 1) 4n further.
    add   r9, r2, r2
    addi  r9, r9, 3
    andi  r9, r9, -4
    add   r9, r1, r9             # slot array (values at level 0)
    beq   r3, r0, gb_leaf

    slli  r10, r2, 2
    add   r10, r9, r10           # lengths array
    srli  r11, r4, )asm"
      << log2_floor(section) << R"asm(      # child coverage
    li    r12, 0                 # child index
gb_loop:
    bge   r12, r2, gb_ret
    addi  sp, sp, -48            # save caller frame
    sw    ra, 0(sp)
    sw    r1, 4(sp)
    sw    r2, 8(sp)
    sw    r3, 12(sp)
    sw    r4, 16(sp)
    sw    r5, 20(sp)
    sw    r6, 24(sp)
    sw    r9, 28(sp)
    sw    r10, 32(sp)
    sw    r11, 36(sp)
    sw    r12, 40(sp)
    add   r13, r12, r12
    add   r13, r1, r13
    lbu   r14, (r13)             # row digit
    lbu   r15, 1(r13)            # column digit
    mul   r14, r14, r11
    add   r5, r5, r14            # k_base += row digit * child coverage
    mul   r15, r15, r11
    add   r6, r6, r15            # i_base += column digit * child coverage
    slli  r16, r12, 2
    add   r17, r9, r16
    lw    r1, (r17)              # child address
    add   r17, r10, r16
    lw    r2, (r17)              # child length
    addi  r3, r3, -1
    mv    r4, r11
    jal   gust_block
    lw    ra, 0(sp)              # restore caller frame
    lw    r1, 4(sp)
    lw    r2, 8(sp)
    lw    r3, 12(sp)
    lw    r4, 16(sp)
    lw    r5, 20(sp)
    lw    r6, 24(sp)
    lw    r9, 28(sp)
    lw    r10, 32(sp)
    lw    r11, 36(sp)
    lw    r12, 40(sp)
    addi  sp, sp, 48
    addi  r12, r12, 1
    beq   r0, r0, gb_loop

    # ---- leaf: transpose the block through the STM, then one Gustavson
    # merge per drained (i, k, a) entry -------------------------------------
;; profile: spgemm_transpose
gb_leaf:
    icm
    mv    r10, r1                # position cursor
    mv    r11, r9                # value cursor
    mv    r12, r2                # entries remaining
gl_fill:
    ssvl  r12
    v_ldb vr1, vr2, r10, r11     # block entries (values + positions)
    v_stcr vr1, vr2              # scatter row-wise into the s x s memory
    bne   r12, r0, gl_fill
    lw    r10, 44(r20)           # scratch positions
    lw    r11, 48(r20)           # scratch values
    mv    r12, r2
gl_drain:
    ssvl  r12
    v_ldcc vr3, vr4              # drain column-wise: (i, k)-sorted, swapped
    v_stb vr3, vr4, r10, r11     # park the transposed entries in scratch
    bne   r12, r0, gl_drain
;; profile: spgemm_gustavson
    lw    r13, 44(r20)           # scratch positions
    lw    r14, 48(r20)           # scratch values
    lw    r15, 16(r20)           # B_IA
    lw    r16, 20(r20)           # B_JA
    lw    r17, 24(r20)           # B_AN
    lw    r18, 28(r20)           # C
    lw    r19, 32(r20)           # p
    li    r9, )asm"
      << section << R"asm(                 # full section, for the broadcasts
    li    r12, 0                 # entry index
gl_entry:
    bge   r12, r2, gb_ret
    add   r21, r12, r12
    add   r21, r13, r21
    lbu   r22, (r21)             # byte 0 after the swap: i offset
    lbu   r23, 1(r21)            # byte 1 after the swap: k offset
    add   r22, r22, r6           # i = i_base + offset
    add   r23, r23, r5           # k = k_base + offset
    blt   r22, r7, gl_next       # outside this core's stripe
    bge   r22, r8, gl_next
    slli  r24, r23, 2
    add   r24, r15, r24
    lw    r25, (r24)             # B_IA[k]
    lw    r24, 4(r24)            # B_IA[k + 1]
    sub   r26, r24, r25          # B row length
    beq   r26, r0, gl_next       # empty row of B
    slli  r27, r12, 2
    add   r27, r14, r27
    lw    r27, (r27)             # a = A^T[i, k] value bits
    mv    r28, r9
    ssvl  r28                    # vl = s: the broadcast must cover every
    v_bcast vr5, r27             # lane the axpy strips below may touch
    mul   r27, r22, r19
    slli  r27, r27, 2
    add   r27, r18, r27          # &C[i, 0]
    slli  r24, r25, 2
    add   r25, r16, r24          # &B_JA[row start]
    add   r24, r17, r24          # &B_AN[row start]
gl_axpy:
    setvl r28, r26
    sub   r26, r26, r28
    v_ld  vr6, (r25)             # column indices of B[k,:]
    v_ld  vr7, (r24)             # values of B[k,:]
    v_fmul vr8, vr5, vr7         # a * B[k, j]
    v_scax vr8, (r27), vr6       # C[i, j] += a * B[k, j]
    slli  r29, r28, 2
    add   r25, r25, r29
    add   r24, r24, r29
    bne   r26, r0, gl_axpy
gl_next:
    addi  r12, r12, 1
    beq   r0, r0, gl_entry
gb_ret:
    ret
)asm";
  return out.str();
}

std::vector<float> spgemm_at_b_reference_dense(const Coo& a, const Csr& b) {
  SMTU_CHECK_MSG(a.rows() == b.rows(), "A^T * B needs matching inner dimensions");
  const usize n = a.cols();
  const usize p = b.cols();

  // The kernel's term order per output row i: ascending k (row-major block
  // visitation + the (i, k)-sorted drain), then B's stored row order.
  Coo at = a;
  at.canonicalize();
  std::vector<CooEntry> entries = at.entries();
  std::stable_sort(entries.begin(), entries.end(), [](const CooEntry& x, const CooEntry& y) {
    return x.col != y.col ? x.col < y.col : x.row < y.row;
  });

  std::vector<float> dense(n * p, 0.0f);
  const std::vector<u32>& ia = b.row_ptr();
  const std::vector<u32>& ja = b.col_idx();
  const std::vector<float>& an = b.values();
  for (const CooEntry& e : entries) {
    const usize i = e.col;
    const u32 k = static_cast<u32>(e.row);
    for (u32 idx = ia[k]; idx < ia[k + 1]; ++idx) {
      dense[i * p + ja[idx]] += e.value * an[idx];
    }
  }
  return dense;
}

namespace {

struct SpgemmLayout {
  Addr c_base = 0;
  Index n = 0;  // rows of C
  Index p = 0;  // cols of C
};

SpgemmLayout stage_spgemm(vsim::MultiCoreSystem& system, const Coo& a, const Csr& b) {
  SMTU_CHECK_MSG(a.rows() == b.rows(), "A^T * B needs matching inner dimensions");
  const u32 section = system.config().core.section;
  SMTU_CHECK_MSG(std::has_single_bit(section), "section must be a power of two");
  const u32 cores = system.num_cores();
  vsim::Memory& mem = system.memory();

  // A as a HiSM image. Row-major high-level order is load-bearing: it makes
  // blocks with the same column range arrive in ascending row (k) order.
  Addr cursor = kImageBase;
  Addr root_addr = 0;
  u32 root_len = 0;
  u32 levels = 1;
  if (a.nnz() > 0) {
    const HismMatrix hism = HismMatrix::from_coo(a, section, HighLevelOrder::kRowMajor);
    const HismImage image = hism_image_layout(hism, kImageBase);
    write_hism_image(hism, image, {mem.write_span(0, image.end), image.end});
    cursor = image.end;
    root_addr = image.root_addr;
    root_len = image.root_len;
    levels = image.levels;
  }
  const u64 coverage = ipow(section, levels);

  // B as plain CRS arrays (no transpose scratch needed).
  const usize bnnz = b.nnz();
  const Addr b_ia = round_up(cursor, 16);
  const Addr b_ja = round_up(b_ia + 4ull * (b.rows() + 1), 16);
  const Addr b_an = round_up(b_ja + 4ull * bnnz, 16);
  const Addr c_base = round_up(b_an + 4ull * bnnz, 16);
  for (usize i = 0; i <= b.rows(); ++i) mem.write_u32(b_ia + 4 * i, b.row_ptr()[i]);
  for (usize i = 0; i < bnnz; ++i) {
    mem.write_u32(b_ja + 4 * i, b.col_idx()[i]);
    mem.write_f32(b_an + 4 * i, b.values()[i]);
  }

  // Dense accumulator C (n x p), zero-initialized by ensure().
  const usize n = a.cols();
  const usize p = b.cols();
  mem.ensure(c_base, 4ull * n * p);

  // Per-core transposed-block scratch (s*s entries: 2-byte positions +
  // 4-byte values) and descriptors.
  const u64 block_cap = static_cast<u64>(section) * section;
  const Addr scratch_base = round_up(c_base + 4ull * n * p, 16);
  const u64 scratch_span = round_up(2 * block_cap, 16) + round_up(4 * block_cap, 16);
  const Addr desc_base = round_up(scratch_base + scratch_span * cores, 16);

  // Output stripes: s-aligned cuts over the columns of A (= rows of C),
  // balanced by the non-zeros of A that land in each stripe.
  const u64 num_stripes = ceil_div(std::max<u64>(1, a.cols()), static_cast<u64>(section));
  std::vector<u32> nnz_before(num_stripes + 1, 0);
  for (const CooEntry& e : a.entries()) ++nnz_before[e.col / section + 1];
  for (u64 stripe = 0; stripe < num_stripes; ++stripe) {
    nnz_before[stripe + 1] += nnz_before[stripe];
  }
  const std::vector<u64> cut = balanced_cuts(nnz_before, cores);

  const Addr stack_span = (kStackTop / cores) & ~static_cast<Addr>(15);
  for (u32 c = 0; c < cores; ++c) {
    const Addr scratch = scratch_base + scratch_span * c;
    const Addr desc = desc_base + 64ull * c;
    mem.write_u32(desc + 0, static_cast<u32>(root_addr));
    mem.write_u32(desc + 4, root_len);
    mem.write_u32(desc + 8, levels - 1);
    mem.write_u32(desc + 12, static_cast<u32>(coverage));
    mem.write_u32(desc + 16, static_cast<u32>(b_ia));
    mem.write_u32(desc + 20, static_cast<u32>(b_ja));
    mem.write_u32(desc + 24, static_cast<u32>(b_an));
    mem.write_u32(desc + 28, static_cast<u32>(c_base));
    mem.write_u32(desc + 32, static_cast<u32>(p));
    mem.write_u32(desc + 36, static_cast<u32>(cut[c] * section));
    mem.write_u32(desc + 40, static_cast<u32>(cut[c + 1] * section));
    mem.write_u32(desc + 44, static_cast<u32>(scratch));
    mem.write_u32(desc + 48, static_cast<u32>(scratch + round_up(2 * block_cap, 16)));
    system.core(c).set_sreg(20, desc);
    system.core(c).set_sreg(vsim::kRegSp, kStackTop - stack_span * c);
  }
  return SpgemmLayout{c_base, static_cast<Index>(n), static_cast<Index>(p)};
}

}  // namespace

Coo spgemm_at_b_reference(const Coo& a, const Csr& b) {
  return Dense(a.cols(), b.cols(), spgemm_at_b_reference_dense(a, b)).to_coo();
}

SpgemmResult run_hism_spgemm(const Coo& a, const Csr& b, const vsim::SystemConfig& config,
                             std::vector<vsim::PerfCounters>* profilers) {
  const auto program =
      vsim::ProgramCache::instance().get(hism_spgemm_source(config.core.section));
  vsim::MultiCoreSystem system(config);
  const SpgemmLayout layout = stage_spgemm(system, a, b);
  system.attach_profilers(profilers);

  SpgemmResult result;
  result.stats = system.run(*program);
  result.rows = layout.n;
  result.cols = layout.p;
  result.dense.resize(static_cast<usize>(layout.n) * layout.p);
  if (const u64 bytes = 4ull * result.dense.size(); bytes != 0) {
    std::memcpy(result.dense.data(), system.memory().read_span(layout.c_base, bytes), bytes);
  }
  return result;
}

}  // namespace smtu::kernels
