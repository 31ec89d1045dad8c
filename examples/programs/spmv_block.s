# One s^2-block of the HiSM sparse matrix-vector product: stream the
# block-array, gather x by each element's 8-bit column position, multiply,
# and scatter-accumulate into y by the row position — the positional
# multiply-accumulate of the HiSM ISA extension.
#
# Inputs:  r1 = position base, r2 = element count n, r3 = value base,
#          r4 = &x window, r5 = &y window
#          r7 = if non-zero, first synthesize a demo block of n <= s entries
#               (entry i at row i/2, column n-1-i, value i+1) and the x
#               window (x[j] = j+1), so the program is runnable without
#               externally staged memory; y[i/2] then sums (i+1)(n-i)
#
# Run with: ./vsim_run programs/spmv_block.s --r1=4096 --r2=0 --r3=4096 --r4=8192 --r5=12288
# Demo:     ./vsim_run programs/spmv_block.s --r1=4096 --r2=16 --r3=8192 \
#               --r4=12288 --r5=16384 --r7=1 --timeline
main:
    beq   r2, r0, done
    beq   r7, r0, loop
    li    r8, 0              # ---- stage the demo block: i = 0..n-1 --------
    li    r11, 0x3f800000    # 1.0f
    li    r12, 0             # float(i + 1) after the fadd below
;; profile: stage_demo
init:
    bge   r8, r2, loop
    slli  r9, r8, 1
    add   r9, r9, r1         # &positions[i]
    srli  r10, r8, 1
    sb    r10, 0(r9)         # row = i / 2
    sub   r10, r2, r8
    addi  r10, r10, -1
    sb    r10, 1(r9)         # col = n-1-i
    fadd  r12, r12, r11
    slli  r10, r8, 2
    add   r9, r10, r3
    sw    r12, (r9)          # value = i + 1
    add   r9, r10, r4
    sw    r12, (r9)          # x[i] = i + 1
    addi  r8, r8, 1
    beq   r0, r0, init
;; profile: end
loop:
    ssvl  r2
    v_ldb vr1, vr2, r1, r3   # values + packed positions
    v_gthc vr3, (r4), vr2    # x[col(pos)]
    v_fmul vr4, vr1, vr3
    v_scar vr4, (r5), vr2    # y[row(pos)] += product
    bne   r2, r0, loop
done:
    halt
