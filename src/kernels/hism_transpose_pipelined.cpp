// Software-pipelined HiSM transposition for the double-buffered STM
// (extension E4): while level-0 child k drains from one s x s memory bank,
// child k+1 fills the other. Level >= 1 blocks (a few percent of the work,
// §IV-A) keep the sequential structure; the leaf-children loop of every
// level-1 parent is pipelined.
//
// Requires StmConfig::double_buffer — with a single bank, the second icm
// would clear a block that is still draining (the functional model checks
// exactly that). It runs through run_hism_transpose like every program on
// a HiSM image.
#include <string_view>

#include "kernels/hism_transpose.hpp"
#include "support/assert.hpp"

namespace smtu::kernels {
namespace {

// Inserts `text` before the one occurrence of `anchor` in `source`.
void insert_before(std::string& source, std::string_view anchor, std::string_view text) {
  const auto at = source.find(anchor);
  SMTU_CHECK_MSG(at != std::string::npos && source.find(anchor, at + 1) == std::string::npos,
                 "pipelined kernel: anchor not found once in the base kernel");
  source.insert(at, text);
}

}  // namespace

std::string hism_transpose_pipelined_source() {
  // The base kernel with its drains on vr3/vr4 (no hazards between the
  // overlapped phases), plus a branch that sends a level-1 block's leaf
  // children to the pipelined loop instead of the recursion. Register use
  // in that loop, beside the base kernel's r1..r11 —
  //   r9 k (child being filled)   r13/r14/r15 fill pos/val/remaining
  //   r16/r17/r18 drain pos/val/remaining   r19..r21 temporaries
  // Fill moves through vr1/vr2, drain through vr3/vr4.
  static const std::string source = [] {
    std::string text = hism_transpose_source(/*split_drain_registers=*/true);
    insert_before(text, "    # ---- recursion", R"asm(    addi  r10, r3, -1
    beq   r10, r0, tb_pipe       # children are leaves: pipeline them

)asm");
    insert_before(text, "\ntb_done:\n", R"asm(
    # ---- software-pipelined leaf children (LVL == 1) --------------------
;; profile: pipelined_leaves
tb_pipe:
    # prime: set child 0 as the fill target; nothing drains yet
    li    r9, 0
    lw    r19, (r4)              # child-0 pointer
    lw    r20, (r5)              # child-0 length
    icm                          # switch to a fresh bank for child 0
    mv    r13, r19               # fill position cursor
    add   r21, r20, r20
    addi  r21, r21, 3
    andi  r21, r21, -4
    add   r14, r19, r21          # fill value cursor
    mv    r15, r20               # fill remaining
    li    r18, 0                 # drain remaining (none yet)
tb_pipe_loop:
    # one step: a drain section of the previous child (other bank), then a
    # fill section of the current child (fill bank)
    beq   r18, r0, tb_pipe_fill
    ssvl  r18
    v_ldcc vr3, vr4
    v_stb vr3, vr4, r16, r17
tb_pipe_fill:
    beq   r15, r0, tb_pipe_check
    ssvl  r15
    v_ldb vr1, vr2, r13, r14
    v_stcr vr1, vr2
tb_pipe_check:
    or    r21, r15, r18
    bne   r21, r0, tb_pipe_loop

    # fill of child k and drain of child k-1 both finished: child k becomes
    # the drain target, child k+1 (if any) the new fill target
    slli  r21, r9, 2
    add   r19, r4, r21
    lw    r19, (r19)             # pointer of child k
    add   r20, r5, r21
    lw    r20, (r20)             # length of child k
    mv    r16, r19               # drain position cursor
    add   r21, r20, r20
    addi  r21, r21, 3
    andi  r21, r21, -4
    add   r17, r19, r21          # drain value cursor
    mv    r18, r20               # drain remaining
    addi  r9, r9, 1
    bge   r9, r2, tb_pipe_tail
    slli  r21, r9, 2
    add   r19, r4, r21
    lw    r19, (r19)             # pointer of child k+1
    add   r20, r5, r21
    lw    r20, (r20)             # length of child k+1
    icm                          # ping-pong to the drained bank
    mv    r13, r19
    add   r21, r20, r20
    addi  r21, r21, 3
    andi  r21, r21, -4
    add   r14, r19, r21
    mv    r15, r20
    beq   r0, r0, tb_pipe_loop

tb_pipe_tail:
    # last child drains with no fill to overlap
    beq   r18, r0, tb_done
tb_pipe_tail_loop:
    ssvl  r18
    v_ldcc vr3, vr4
    v_stb vr3, vr4, r16, r17
    bne   r18, r0, tb_pipe_tail_loop
)asm");
    return text;
  }();
  return source;
}

}  // namespace smtu::kernels
