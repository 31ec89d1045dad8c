#include "kernels/hism_transpose.hpp"

#include "kernels/layout.hpp"
#include "vsim/program_cache.hpp"

namespace smtu::kernels {

std::string hism_transpose_source(bool split_drain_registers) {
  // Register use inside transpose_block:
  //   r1 BSA (block start address)   r2 BSL (block length)   r3 LVL (level)
  //   r4 value/pointer array address r5 lengths array address
  //   r6 position cursor             r7 value cursor          r8 remaining
  //   r9 child loop index            r10/r11 temporaries
  const std::string source = R"asm(
main:
    jal   transpose_block
    halt

# ---- transpose_block(r1 = BSA, r2 = BSL, r3 = LVL) --------------------
;; profile: block_setup
transpose_block:
    beq   r2, r0, tb_done        # empty block array: nothing to transpose

    # Array geometry within the block image:
    #   positions at BSA, values at BSA + align4(2n), lengths 4n further.
    add   r4, r2, r2             # 2n
    addi  r4, r4, 3
    andi  r4, r4, -4             # align4(2n)
    add   r4, r1, r4             # value/pointer array
    slli  r5, r2, 2              # 4n
    add   r5, r4, r5             # lengths array (levels >= 1)

    beq   r3, r0, tb_elems       # level 0 has no lengths vector

    # ---- lengths pass (Fig. 6 lines 11-18): permute the lengths vector
    # through the s x s memory using the *original* positions; store only
    # the values (v_stbv) so the element pass still sees those positions.
;; profile: len_fill
    icm
    mv    r6, r1                 # position cursor
    mv    r7, r5                 # lengths cursor
    mv    r8, r2                 # elements remaining
tb_len_fill:
    ssvl  r8
    v_ldb vr1, vr2, r6, r7       # lengths as values + positions
    v_stcr vr1, vr2              # scatter row-wise into the s x s memory
    bne   r8, r0, tb_len_fill
;; profile: len_drain
    mv    r7, r5
    mv    r8, r2
tb_len_drain:
    ssvl  r8
    v_ldcc vrD1, vrD2            # drain column-wise (transposed order)
    v_stbv vrD1, r7              # write back lengths only
    bne   r8, r0, tb_len_drain

tb_elems:
    # ---- element pass (Fig. 6 lines 2-9 / the code of Fig. 7) ----------
;; profile: elem_fill
    icm
    mv    r6, r1
    mv    r7, r4
    mv    r8, r2
tb_elem_fill:
    ssvl  r8
    v_ldb vr1, vr2, r6, r7       # values/pointers + positions
    v_stcr vr1, vr2
    bne   r8, r0, tb_elem_fill
;; profile: elem_drain
    mv    r6, r1
    mv    r7, r4
    mv    r8, r2
tb_elem_drain:
    ssvl  r8
    v_ldcc vrD1, vrD2
    v_stb vrD1, vrD2, r6, r7     # write back transposed block in place
    bne   r8, r0, tb_elem_drain

    beq   r3, r0, tb_done        # level 0: no children to recurse into

    # ---- recursion (Fig. 6 lines 19-23) --------------------------------
;; profile: recurse
    li    r9, 0
tb_child_loop:
    bge   r9, r2, tb_done
    addi  sp, sp, -24            # save caller frame
    sw    ra, 0(sp)
    sw    r2, 4(sp)
    sw    r3, 8(sp)
    sw    r4, 12(sp)
    sw    r5, 16(sp)
    sw    r9, 20(sp)
    slli  r10, r9, 2
    add   r11, r4, r10
    lw    r1, (r11)              # child pointer (Fig. 6 line 20)
    add   r11, r5, r10
    lw    r2, (r11)              # child length  (Fig. 6 line 21)
    addi  r3, r3, -1
    jal   transpose_block        # (Fig. 6 line 22)
    lw    ra, 0(sp)              # restore caller frame
    lw    r2, 4(sp)
    lw    r3, 8(sp)
    lw    r4, 12(sp)
    lw    r5, 16(sp)
    lw    r9, 20(sp)
    addi  sp, sp, 24
    addi  r9, r9, 1
    beq   r0, r0, tb_child_loop

tb_done:
    ret
)asm";
  std::string resolved = source;
  const char* d1 = split_drain_registers ? "vr3" : "vr1";
  const char* d2 = split_drain_registers ? "vr4" : "vr2";
  for (std::string::size_type at = 0; (at = resolved.find("vrD1", at)) != std::string::npos;) {
    resolved.replace(at, 4, d1);
  }
  for (std::string::size_type at = 0; (at = resolved.find("vrD2", at)) != std::string::npos;) {
    resolved.replace(at, 4, d2);
  }
  return resolved;
}

HismTransposeResult run_hism_transpose(const HismStage& stage,
                                       const vsim::MachineConfig& config,
                                       std::string_view source, vsim::ExecutionTrace* trace,
                                       vsim::PerfCounters* profiler) {
  const auto program = source.empty()
                           ? vsim::ProgramCache::instance().get(hism_transpose_source())
                           : vsim::ProgramCache::instance().get(source);
  vsim::Machine machine = transpose_machine(stage, config);
  machine.attach_trace(trace);
  machine.attach_profiler(profiler);
  HismTransposeResult result;
  result.stats = machine.run(*program);
  result.transposed = read_back_hism(machine, stage.image, /*swap_dims=*/true);
  return result;
}

}  // namespace smtu::kernels
