#include "kernels/dense_transpose.hpp"

#include "kernels/layout.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "vsim/program_cache.hpp"

namespace smtu::kernels {

const std::string& dense_transpose_source() {
  // r1 = &A (rows x cols, row-major), r2 = &AT, r7 = rows, r8 = cols.
  // Column j of A streams in with stride 4*cols and lands contiguously as
  // row j of AT.
  static const std::string source = R"asm(
main:
    slli  r15, r8, 2             # stride = 4 * cols
    li    r10, 0                 # j (source column)
col_loop:
    bge   r10, r8, done
    slli  r11, r10, 2
    add   r12, r1, r11           # &A[0][j]
    mul   r13, r10, r7
    slli  r13, r13, 2
    add   r13, r2, r13           # &AT[j][0]
    mv    r14, r7                # rows remaining
seg:
    setvl r16, r14
    sub   r14, r14, r16
    v_lds vr1, (r12), r15        # strided column load
    v_st  vr1, (r13)             # contiguous row store
    mul   r17, r16, r15
    add   r12, r12, r17
    slli  r17, r16, 2
    add   r13, r13, r17
    bne   r14, r0, seg
    addi  r10, r10, 1
    beq   r0, r0, col_loop
done:
    halt
)asm";
  return source;
}

DenseTransposeResult run_dense_transpose(const Dense& matrix,
                                         const vsim::MachineConfig& config) {
  const auto program = vsim::ProgramCache::instance().get(dense_transpose_source());
  vsim::Machine machine(config);
  const Addr a_addr = kImageBase;
  for (Index r = 0; r < matrix.rows(); ++r) {
    for (Index c = 0; c < matrix.cols(); ++c) {
      machine.memory().write_f32(a_addr + 4 * (r * matrix.cols() + c), matrix.at(r, c));
    }
  }
  const Addr at_addr = round_up(a_addr + 4 * matrix.rows() * matrix.cols(), 16);
  machine.memory().ensure(at_addr, 4 * std::max<u64>(1, matrix.rows() * matrix.cols()));
  machine.set_sreg(1, a_addr);
  machine.set_sreg(2, at_addr);
  machine.set_sreg(7, matrix.rows());
  machine.set_sreg(8, matrix.cols());

  DenseTransposeResult result;
  result.stats = machine.run(*program);
  result.transposed = Dense(matrix.cols(), matrix.rows());
  for (Index r = 0; r < matrix.cols(); ++r) {
    for (Index c = 0; c < matrix.rows(); ++c) {
      result.transposed.at(r, c) =
          machine.memory().read_f32(at_addr + 4 * (r * matrix.rows() + c));
    }
  }
  return result;
}

}  // namespace smtu::kernels
