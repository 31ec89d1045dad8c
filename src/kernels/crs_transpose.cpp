#include "kernels/crs_transpose.hpp"

#include <sstream>

#include "kernels/layout.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "vsim/program_cache.hpp"

namespace smtu::kernels {

std::string crs_transpose_source(u32 section, const CrsKernelOptions& options) {
  SMTU_CHECK_MSG(is_pow2(section), "CRS kernel strip-mining requires a power-of-two section");
  const u32 short_row_threshold = options.short_row_threshold;

  std::ostringstream out;
  // Host register convention:
  //   r1 &AN  r2 &JA  r3 &IA  r4 &ANT  r5 &JAT  r6 &IAT  r7 rows  r8 cols  r9 nnz
  out << R"asm(
main:
    # ---- phase 0: initialize IAT[0..cols] to zero ----------------------
;; profile: phase0_zero
    v_bcasti vr0, 0
    addi  r10, r8, 1
    mv    r11, r6
z_loop:
    setvl r12, r10
    sub   r10, r10, r12
    v_st  vr0, (r11)
    slli  r13, r12, 2
    add   r11, r11, r13
    bne   r10, r0, z_loop
)asm";
  if (options.masked_phase1) {
    out << R"asm(
    # ---- phase 1, mask-vector variant (§IV-A, rejected by the authors):
    # for every column i, compare all of JA against i and sum the mask.
;; profile: phase1_histogram
    li    r10, 0                 # column i
m1_col:
    bge   r10, r8, h_done
    li    r13, 0                 # count
    mv    r11, r2                # &JA
    mv    r12, r9                # nnz remaining
m1_scan:
    beq   r12, r0, m1_store
    setvl r14, r12
    sub   r12, r12, r14
    v_ld  vr0, (r11)
    v_seqs vr1, vr0, r10         # M_i[j] = (JA[j] == i)
    v_redsum r15, vr1
    add   r13, r13, r15
    slli  r16, r14, 2
    add   r11, r11, r16
    beq   r0, r0, m1_scan
m1_store:
    addi  r16, r10, 1
    slli  r16, r16, 2
    add   r16, r16, r6
    sw    r13, (r16)             # IAT[i + 1] = count
    addi  r10, r10, 1
    beq   r0, r0, m1_col
h_done:
)asm";
  } else {
    out << R"asm(
    # ---- phase 1 (Fig. 9 lines 1-2): per-column counts, scalar code ----
    # IAT[col + 1]++ for every non-zero; runs on the 4-way scalar core as
    # in the paper (the mask-vector scheme is inefficient on sparse data).
;; profile: phase1_histogram
    mv    r10, r2
    mv    r11, r9
    beq   r11, r0, h_done
h_loop:
    lw    r12, (r10)
    slli  r12, r12, 2
    add   r12, r12, r6
    lw    r13, 4(r12)
    addi  r13, r13, 1
    sw    r13, 4(r12)
    addi  r10, r10, 4
    addi  r11, r11, -1
    bne   r11, r0, h_loop
h_done:
)asm";
  }
  out << R"asm(

    # ---- phase 2 (Fig. 9 line 3): vectorized inclusive scan-add --------
    # Log-step slide-and-add within each strip (Wang et al.), carry in r14.
;; profile: phase2_scan
    li    r14, 0
    addi  r10, r8, 1
    mv    r11, r6
s_loop:
    setvl r12, r10
    sub   r10, r10, r12
    v_ld  vr1, (r11)
)asm";
  for (u32 shift = 1; shift < section; shift *= 2) {
    out << "    v_slideup vr2, vr1, " << shift << "\n";
    out << "    v_add vr1, vr1, vr2\n";
  }
  out << R"asm(
    v_adds vr1, vr1, r14
    v_st  vr1, (r11)
    addi  r13, r12, -1
    v_extract r14, vr1, r13
    slli  r13, r12, 2
    add   r11, r11, r13
    bne   r10, r0, s_loop

    # ---- phase 3 (Fig. 9 lines 4-13): vectorized permutation loop ------
;; profile: phase3_permute
    li    r10, 0
p3_row:
    bge   r10, r7, p3_done
    slli  r15, r10, 2
    add   r15, r15, r3
    lw    r16, (r15)             # iaa = IA(i)        (line 5)
    lw    r17, 4(r15)            # iab = IA(i+1)      (line 5)
    sub   r18, r17, r16
    beq   r18, r0, p3_next
    slli  r19, r16, 2
    add   r20, r2, r19           # &JA[iaa]
    add   r21, r1, r19           # &AN[iaa]
)asm";
  if (short_row_threshold > 0) {
    out << "    li    r24, " << short_row_threshold << "\n";
    out << "    blt   r18, r24, p3_scalar\n";
  }
  out << R"asm(
p3_seg:
    setvl r22, r18
    sub   r18, r18, r22
    v_ld  vr0, (r20)             # j  = JA slice      (line 7)
    v_ld_idx vr1, (r6), vr0      # k  = IAT(j)        (line 8)
    v_bcast vr2, r10             # i
    v_st_idx vr2, (r5), vr1      # JAT(k) = i         (line 9)
    v_ld  vr3, (r21)             # AN slice
    v_st_idx vr3, (r4), vr1      # ANT(k) = AN(jp)    (line 10)
    v_add_imm vr1, vr1, 1
    v_st_idx vr1, (r6), vr0      # IAT(j) = k + 1     (line 11)
    slli  r23, r22, 2
    add   r20, r20, r23
    add   r21, r21, r23
    bne   r18, r0, p3_seg
    beq   r0, r0, p3_next
)asm";
  if (short_row_threshold > 0) {
    out << R"asm(
;; profile: phase3_short_rows
p3_scalar:
    # Short rows element by element on the scalar core: a 1-3 element
    # gather/scatter sequence would pay four 20-cycle vector startups.
p3s_loop:
    lw    r22, (r20)             # j = JA[jp]
    slli  r23, r22, 2
    add   r23, r23, r6           # &IAT[j]
    lw    r25, (r23)             # k
    slli  r26, r25, 2
    add   r27, r26, r5
    sw    r10, (r27)             # JAT[k] = i
    add   r27, r26, r4
    lw    r28, (r21)
    sw    r28, (r27)             # ANT[k] = AN[jp]
    addi  r25, r25, 1
    sw    r25, (r23)             # IAT[j] = k + 1
    addi  r20, r20, 4
    addi  r21, r21, 4
    addi  r18, r18, -1
    bne   r18, r0, p3s_loop
)asm";
  }
  out << R"asm(
;; profile: phase3_permute
p3_next:
    addi  r10, r10, 1
    beq   r0, r0, p3_row
p3_done:

    # ---- restore IAT from row ends to row starts ------------------------
    # The in-place cursor update leaves IAT[j] = start of row j+1; shift
    # right by one strip-by-strip from the top, then IAT[0] = 0.
;; profile: restore_iat
    mv    r10, r8
r_loop:
    beq   r10, r0, r_done
    addi  r11, r10, -1
)asm";
  out << "    andi  r12, r11, " << (section - 1) << "\n";
  out << R"asm(
    addi  r12, r12, 1            # tail chunk size
    sub   r10, r10, r12
    setvl r13, r12
    slli  r14, r10, 2
    add   r14, r14, r6
    v_ld  vr1, (r14)
    v_st  vr1, 4(r14)
    beq   r0, r0, r_loop
r_done:
    sw    r0, (r6)
    halt
)asm";
  return out.str();
}

const std::string& scalar_crs_transpose_source() {
  // Same register convention as the vector kernel:
  //   r1 &AN  r2 &JA  r3 &IA  r4 &ANT  r5 &JAT  r6 &IAT  r7 rows  r8 cols  r9 nnz
  static const std::string source = R"asm(
main:
    # ---- zero IAT[0..cols] ---------------------------------------------
;; profile: zero_iat
    mv    r10, r6
    addi  r11, r8, 1
sz_loop:
    beq   r11, r0, sz_done
    sw    r0, (r10)
    addi  r10, r10, 4
    addi  r11, r11, -1
    beq   r0, r0, sz_loop
sz_done:

    # ---- per-column counts: IAT[col + 1]++ ------------------------------
;; profile: histogram
    mv    r10, r2
    mv    r11, r9
sh_loop:
    beq   r11, r0, sh_done
    lw    r12, (r10)
    slli  r12, r12, 2
    add   r12, r12, r6
    lw    r13, 4(r12)
    addi  r13, r13, 1
    sw    r13, 4(r12)
    addi  r10, r10, 4
    addi  r11, r11, -1
    beq   r0, r0, sh_loop
sh_done:

    # ---- inclusive scan over IAT[0..cols] -------------------------------
;; profile: scan
    addi  r12, r8, 1             # index bound
    li    r10, 1
    lw    r11, (r6)              # running sum = IAT[0]
ss_body:
    bge   r10, r12, ss_done
    slli  r13, r10, 2
    add   r13, r13, r6
    lw    r14, (r13)
    add   r11, r11, r14
    sw    r11, (r13)
    addi  r10, r10, 1
    beq   r0, r0, ss_body
ss_done:

    # ---- permutation pass (Fig. 9 lines 4-13), element by element -------
;; profile: permute
    li    r10, 0                 # i
sp_row:
    bge   r10, r7, sp_done
    slli  r15, r10, 2
    add   r15, r15, r3
    lw    r16, (r15)             # iaa
    lw    r17, 4(r15)            # iab
    sub   r18, r17, r16
    beq   r18, r0, sp_next
    slli  r19, r16, 2
    add   r20, r2, r19           # &JA[iaa]
    add   r21, r1, r19           # &AN[iaa]
sp_elem:
    lw    r22, (r20)             # j
    slli  r23, r22, 2
    add   r23, r23, r6
    lw    r25, (r23)             # k = IAT[j]
    slli  r26, r25, 2
    add   r27, r26, r5
    sw    r10, (r27)             # JAT[k] = i
    add   r27, r26, r4
    lw    r28, (r21)
    sw    r28, (r27)             # ANT[k] = AN[jp]
    addi  r25, r25, 1
    sw    r25, (r23)             # IAT[j] = k + 1
    addi  r20, r20, 4
    addi  r21, r21, 4
    addi  r18, r18, -1
    bne   r18, r0, sp_elem
sp_next:
    addi  r10, r10, 1
    beq   r0, r0, sp_row
sp_done:

    # ---- restore IAT to row starts: shift right, descending -------------
;; profile: restore_iat
    mv    r10, r8                # j = cols .. 1
sr_loop:
    beq   r10, r0, sr_done
    slli  r11, r10, 2
    add   r11, r11, r6           # &IAT[j]
    lw    r12, -4(r11)           # IAT[j-1]
    sw    r12, (r11)
    addi  r10, r10, -1
    beq   r0, r0, sr_loop
sr_done:
    sw    r0, (r6)
    halt
)asm";
  return source;
}

CrsTransposeResult run_crs_transpose(const CrsStage& stage, const vsim::MachineConfig& config,
                                     std::string_view source, vsim::PerfCounters* profiler) {
  const auto program =
      source.empty() ? vsim::ProgramCache::instance().get(crs_transpose_source(config.section))
                     : vsim::ProgramCache::instance().get(source);
  vsim::Machine machine = transpose_machine(stage, config);
  machine.attach_profiler(profiler);
  CrsTransposeResult result;
  result.stats = machine.run(*program);
  result.transposed = read_back_crs_transpose(machine.memory(), stage.image);
  return result;
}

}  // namespace smtu::kernels
