#include "kernels/spmv.hpp"

#include <bit>
#include <sstream>

#include "kernels/layout.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "vsim/program_cache.hpp"

namespace smtu::kernels {

namespace {

// Shared generator for the direct (y = A x) and transposed (y = A^T x)
// products. The two differ only in which position byte keys the x gather /
// y scatter-accumulate and which block digit scales which base pointer.
std::string hism_spmv_source_impl(u32 section, bool transposed) {
  SMTU_CHECK_MSG(is_pow2(section), "HiSM SpMV span arithmetic requires a power-of-two section");
  const u32 log2s = log2_ceil(section);
  const char* gather = transposed ? "v_gthr" : "v_gthc";
  const char* scatter = transposed ? "v_scac" : "v_scar";
  // Which digit drives x (the multiplier side) and y (the result side).
  const char* x_digit = transposed ? "r11" : "r12";  // row : col
  const char* y_digit = transposed ? "r12" : "r11";  // col : row

  // Register use inside spmv_block:
  //   r1 BSA  r2 BSL  r3 LVL  r4 x base  r5 y base  r6 span (elements)
  //   r7 value/pointer array  r8 lengths array  r9 child index
  //   r10..r18 temporaries
  std::ostringstream out;
  out << R"asm(
main:
    jal   spmv_block
    halt

# ---- spmv_block(r1=BSA, r2=BSL, r3=LVL, r4=&x[x_off], r5=&y[y_off], r6=span)
spmv_block:
    beq   r2, r0, sb_done
    add   r7, r2, r2
    addi  r7, r7, 3
    andi  r7, r7, -4
    add   r7, r1, r7             # value/pointer array
    beq   r3, r0, sb_leaf
    slli  r8, r2, 2
    add   r8, r7, r8             # lengths array

    li    r9, 0
sb_loop:
    bge   r9, r2, sb_done
    addi  sp, sp, -40            # save caller frame
    sw    ra, 0(sp)
    sw    r1, 4(sp)
    sw    r2, 8(sp)
    sw    r3, 12(sp)
    sw    r4, 16(sp)
    sw    r5, 20(sp)
    sw    r6, 24(sp)
    sw    r7, 28(sp)
    sw    r8, 32(sp)
    sw    r9, 36(sp)
    add   r10, r9, r9
    add   r10, r1, r10
    lbu   r11, (r10)             # block row position
    lbu   r12, 1(r10)            # block column position
    slli  r13, r9, 2
    add   r14, r7, r13
    lw    r15, (r14)             # child pointer
    add   r14, r8, r13
    lw    r16, (r14)             # child length
    # A position digit at this block's level k contributes digit * s^k to
    # the global row/column index (the coordinate decomposition of §III), so
    # offsets scale by this block's span before descending with span / s.
    slli  r17, r6, 2             # 4 * span
)asm";
  out << "    mul   r18, " << x_digit << ", r17\n";
  out << "    add   r4, r4, r18            # x base += 4 * digit * span\n";
  out << "    mul   r18, " << y_digit << ", r17\n";
  out << "    add   r5, r5, r18            # y base += 4 * digit * span\n";
  out << R"asm(
)asm";
  out << "    srli  r6, r6, " << log2s << "         # child span = span / s\n";
  out << R"asm(
    mv    r1, r15
    mv    r2, r16
    addi  r3, r3, -1
    jal   spmv_block
    lw    ra, 0(sp)              # restore caller frame
    lw    r1, 4(sp)
    lw    r2, 8(sp)
    lw    r3, 12(sp)
    lw    r4, 16(sp)
    lw    r5, 20(sp)
    lw    r6, 24(sp)
    lw    r7, 28(sp)
    lw    r8, 32(sp)
    lw    r9, 36(sp)
    addi  sp, sp, 40
    addi  r9, r9, 1
    beq   r0, r0, sb_loop

sb_leaf:
    # Stream the block: y[row] += value * x[col], positions straight from
    # the block-array (the positional multiply-accumulate).
    mv    r10, r1                # position cursor
    mv    r11, r7                # value cursor
    mv    r12, r2
sb_stream:
    ssvl  r12
    v_ldb vr1, vr2, r10, r11
)asm";
  out << "    " << gather << " vr3, (r4), vr2        # x gathered by position\n";
  out << "    v_fmul vr4, vr1, vr3\n";
  out << "    " << scatter << " vr4, (r5), vr2        # y accumulated by position\n";
  out << R"asm(
    bne   r12, r0, sb_stream
sb_done:
    ret
)asm";
  return out.str();
}

}  // namespace

std::string hism_spmv_source(u32 section) {
  return hism_spmv_source_impl(section, /*transposed=*/false);
}

std::string hism_spmv_transposed_source(u32 section) {
  return hism_spmv_source_impl(section, /*transposed=*/true);
}

std::string crs_spmv_source() {
  // r1=&AN r2=&JA r3=&IA r4=&x r5=&y r7=rows
  return R"asm(
main:
    li    r10, 0                 # row i
row_loop:
    bge   r10, r7, done
    slli  r11, r10, 2
    add   r11, r11, r3
    lw    r12, (r11)             # iaa
    lw    r13, 4(r11)            # iab
    sub   r14, r13, r12
    li    r15, 0                 # accumulator (0.0f)
    beq   r14, r0, store
    slli  r16, r12, 2
    add   r17, r2, r16           # &JA[iaa]
    add   r18, r1, r16           # &AN[iaa]
seg:
    setvl r19, r14
    sub   r14, r14, r19
    v_ld  vr0, (r17)             # column indices
    v_ldx vr1, (r4), vr0         # gather x[JA]
    v_ld  vr2, (r18)             # values
    v_fmul vr3, vr1, vr2
    v_fredsum r20, vr3
    fadd  r15, r15, r20
    slli  r21, r19, 2
    add   r17, r17, r21
    add   r18, r18, r21
    bne   r14, r0, seg
store:
    slli  r11, r10, 2
    add   r11, r11, r5
    sw    r15, (r11)             # y[i]
    addi  r10, r10, 1
    beq   r0, r0, row_loop
done:
    halt
)asm";
}

std::string jd_spmv_source() {
  // r1=&values r2=&col_idx r3=&diag_ptr r4=&x r5=&yperm r6=&perm
  // r7=rows r8=ndiags r9=&y
  return R"asm(
main:
    # zero the permuted accumulator
    v_bcasti vr0, 0
    mv    r10, r7
    mv    r11, r5
zero_loop:
    beq   r10, r0, diagonals
    setvl r12, r10
    sub   r10, r10, r12
    v_st  vr0, (r11)
    slli  r13, r12, 2
    add   r11, r11, r13
    beq   r0, r0, zero_loop

diagonals:
    li    r10, 0                 # diagonal d
diag_loop:
    bge   r10, r8, unpermute
    slli  r11, r10, 2
    add   r11, r11, r3
    lw    r12, (r11)             # begin
    lw    r13, 4(r11)            # end
    sub   r14, r13, r12
    beq   r14, r0, diag_next
    slli  r15, r12, 2
    add   r16, r1, r15           # &values[begin]
    add   r17, r2, r15           # &cols[begin]
    mv    r18, r5                # yperm restarts at row 0 each diagonal
seg:
    setvl r19, r14
    sub   r14, r14, r19
    v_ld  vr1, (r16)
    v_ld  vr2, (r17)
    v_ldx vr3, (r4), vr2         # gather x
    v_fmul vr4, vr1, vr3
    v_ld  vr5, (r18)             # contiguous partial sums
    v_fadd vr6, vr5, vr4
    v_st  vr6, (r18)
    slli  r20, r19, 2
    add   r16, r16, r20
    add   r17, r17, r20
    add   r18, r18, r20
    bne   r14, r0, seg
diag_next:
    addi  r10, r10, 1
    beq   r0, r0, diag_loop

unpermute:
    mv    r10, r7
    mv    r11, r6                # &perm
    mv    r12, r5                # &yperm
unperm_loop:
    beq   r10, r0, done
    setvl r13, r10
    sub   r10, r10, r13
    v_ld  vr0, (r11)             # original row ids
    v_ld  vr1, (r12)             # permuted results
    v_stx vr1, (r9), vr0         # y[perm[i]] = yperm[i]
    slli  r14, r13, 2
    add   r11, r11, r14
    add   r12, r12, r14
    beq   r0, r0, unperm_loop
done:
    halt
)asm";
}

namespace {

Addr stage_floats(vsim::Machine& machine, Addr addr, const std::vector<float>& values) {
  for (usize i = 0; i < values.size(); ++i) {
    machine.memory().write_f32(addr + 4 * i, values[i]);
  }
  return round_up(addr + 4 * values.size(), 16);
}

Addr stage_u32s(vsim::Machine& machine, Addr addr, const std::vector<u32>& values) {
  for (usize i = 0; i < values.size(); ++i) {
    machine.memory().write_u32(addr + 4 * i, values[i]);
  }
  return round_up(addr + 4 * values.size(), 16);
}

std::vector<float> read_floats(const vsim::Machine& machine, Addr addr, usize count) {
  std::vector<float> values(count);
  for (usize i = 0; i < count; ++i) values[i] = machine.memory().read_f32(addr + 4 * i);
  return values;
}

// Both HiSM products: x right after the image, then a zeroed y of
// `y_count` elements.
SpmvResult run_hism_spmv_program(const std::string& source, const HismStage& stage,
                                 const std::vector<float>& x, Index y_count,
                                 const vsim::MachineConfig& config) {
  const auto program = vsim::ProgramCache::instance().get(source);
  vsim::Machine machine = staged_machine(stage, config);
  const HismImage& image = stage.image;
  const Addr x_addr = round_up(image.end, 16);
  const Addr y_addr = stage_floats(machine, x_addr, x);
  machine.memory().ensure(y_addr, 4 * std::max<u64>(1, y_count));  // zeroed y

  machine.set_sreg(1, image.root_addr);
  machine.set_sreg(2, image.root_len);
  machine.set_sreg(3, image.levels - 1);
  machine.set_sreg(4, x_addr);
  machine.set_sreg(5, y_addr);
  machine.set_sreg(6, ipow(config.section, image.levels - 1));
  machine.set_sreg(vsim::kRegSp, kStackTop);

  SpmvResult result;
  result.stats = machine.run(*program);
  result.y = read_floats(machine, y_addr, y_count);
  return result;
}

}  // namespace

SpmvResult run_hism_spmv(const HismStage& stage, const std::vector<float>& x,
                         const vsim::MachineConfig& config) {
  SMTU_CHECK_MSG(x.size() == stage.hism.cols(), "x dimension mismatch");
  return run_hism_spmv_program(hism_spmv_source(config.section), stage, x, stage.hism.rows(),
                               config);
}

SpmvResult run_hism_spmv_transposed(const HismStage& stage, const std::vector<float>& x,
                                    const vsim::MachineConfig& config) {
  SMTU_CHECK_MSG(x.size() == stage.hism.rows(), "x dimension mismatch (y = A^T x)");
  return run_hism_spmv_program(hism_spmv_transposed_source(config.section), stage, x,
                               stage.hism.cols(), config);
}

SpmvResult run_crs_spmv(const CrsStage& stage, const std::vector<float>& x,
                        const vsim::MachineConfig& config) {
  SMTU_CHECK_MSG(x.size() == stage.csr.cols(), "x dimension mismatch");
  const auto program = vsim::ProgramCache::instance().get(crs_spmv_source());

  vsim::Machine machine = staged_machine(stage, config);
  const CrsImage& image = stage.image;
  const Addr x_addr = round_up(image.end, 16);
  const Addr y_addr = stage_floats(machine, x_addr, x);
  machine.memory().ensure(y_addr, 4 * std::max<u64>(1, image.rows));

  machine.set_sreg(1, image.an);
  machine.set_sreg(2, image.ja);
  machine.set_sreg(3, image.ia);
  machine.set_sreg(4, x_addr);
  machine.set_sreg(5, y_addr);
  machine.set_sreg(7, image.rows);

  SpmvResult result;
  result.stats = machine.run(*program);
  result.y = read_floats(machine, y_addr, image.rows);
  return result;
}

SpmvResult run_jd_spmv(const Jagged& jd, const std::vector<float>& x,
                       const vsim::MachineConfig& config) {
  SMTU_CHECK_MSG(x.size() == jd.cols(), "x dimension mismatch");
  const auto program = vsim::ProgramCache::instance().get(jd_spmv_source());

  vsim::Machine machine(config);
  Addr cursor = kImageBase;
  const Addr values_addr = cursor;
  std::vector<u32> value_bits(jd.values().size());
  for (usize i = 0; i < jd.values().size(); ++i) {
    value_bits[i] = std::bit_cast<u32>(jd.values()[i]);
  }
  cursor = stage_u32s(machine, cursor, value_bits);
  const Addr cols_addr = cursor;
  cursor = stage_u32s(machine, cursor, jd.col_idx());
  const Addr diag_ptr_addr = cursor;
  cursor = stage_u32s(machine, cursor, jd.diag_ptr());
  const Addr perm_addr = cursor;
  cursor = stage_u32s(machine, cursor, jd.perm());
  const Addr x_addr = cursor;
  cursor = stage_floats(machine, x_addr, x);
  const Addr yperm_addr = cursor;
  cursor = round_up(yperm_addr + 4 * std::max<u64>(1, jd.rows()), 16);
  const Addr y_addr = cursor;
  machine.memory().ensure(y_addr, 4 * std::max<u64>(1, jd.rows()));

  machine.set_sreg(1, values_addr);
  machine.set_sreg(2, cols_addr);
  machine.set_sreg(3, diag_ptr_addr);
  machine.set_sreg(4, x_addr);
  machine.set_sreg(5, yperm_addr);
  machine.set_sreg(6, perm_addr);
  machine.set_sreg(7, jd.rows());
  machine.set_sreg(8, jd.diagonals());
  machine.set_sreg(9, y_addr);

  SpmvResult result;
  result.stats = machine.run(*program);
  result.y = read_floats(machine, y_addr, jd.rows());
  return result;
}

}  // namespace smtu::kernels
