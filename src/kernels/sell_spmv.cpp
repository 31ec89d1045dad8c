#include "kernels/sell_spmv.hpp"

#include <bit>

#include "kernels/layout.hpp"
#include "kernels/shard.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "vsim/program_cache.hpp"

namespace smtu::kernels {

std::string sell_spmv_source() {
  // Per-core descriptor, r20 (host-staged u32 fields):
  //   +0  VALS   +4  COLS   +8  WIDTHS   +12 CPTR   +16 PERM
  //   +20 X      +24 Y
  //   +28 chunk_lo   +32 chunk_hi   +36 rows   +40 C (chunk height)
  //
  // Per chunk the active lane count is min(C, rows - c*C): the format pads
  // the permutation tail with kPadRow, and clipping vl keeps those lanes
  // out of the final scatter. Padding *slots* inside the chunk need no
  // masking at all — they multiply x[0] by +0.0f, which never changes the
  // accumulator bits.
  return R"asm(
main:
;; profile: sell_setup
    lw    r1, 0(r20)             # VALS
    lw    r2, 4(r20)             # COLS
    lw    r3, 8(r20)             # WIDTHS
    lw    r4, 12(r20)            # CPTR
    lw    r5, 16(r20)            # PERM
    lw    r6, 20(r20)            # X
    lw    r7, 24(r20)            # Y
    lw    r8, 28(r20)            # c = chunk_lo
    lw    r9, 32(r20)            # chunk_hi
    lw    r10, 36(r20)           # rows
    lw    r11, 40(r20)           # C
    slli  r21, r11, 2            # slice stride: 4 * C bytes
;; profile: sell_stream
chunk_loop:
    bge   r8, r9, done
    slli  r12, r8, 2
    add   r13, r3, r12
    lw    r13, (r13)             # width of this chunk
    add   r14, r4, r12
    lw    r14, (r14)             # first slot of this chunk
    mul   r15, r8, r11           # first (sorted) row of this chunk
    sub   r16, r10, r15          # rows from here to the matrix end
    min   r16, r16, r11
    setvl r17, r16               # vl = min(C, rows left): clip pad lanes
    slli  r18, r14, 2
    add   r19, r2, r18
    add   r18, r1, r18           # &VALS[slot] / &COLS[slot]
    v_bcasti vr1, 0              # one accumulator per lane (= per row)
    li    r22, 0                 # k = slice index
width_loop:
    bge   r22, r13, scatter
    v_ld  vr2, (r19)             # column slice k
    v_ldx vr3, (r6), vr2         # gather x[col]
    v_ld  vr4, (r18)             # value slice k
    v_fmul vr5, vr4, vr3
    v_fadd vr1, vr1, vr5         # acc += value * x[col]
    add   r18, r18, r21
    add   r19, r19, r21
    addi  r22, r22, 1
    beq   r0, r0, width_loop
scatter:
    slli  r23, r15, 2
    add   r23, r5, r23           # &PERM[c * C]
    v_ld  vr6, (r23)             # original row per lane
    v_stx vr1, (r7), vr6         # y[perm[p]] = acc
    addi  r8, r8, 1
    beq   r0, r0, chunk_loop
done:
    halt
)asm";
}

namespace {

struct SellLayout {
  Addr y = 0;
};

SellLayout stage_sell_spmv(vsim::MultiCoreSystem& system, const SellCSigma& sell,
                           const std::vector<float>& x) {
  SMTU_CHECK_MSG(sell.chunk() <= system.config().core.section,
                 "SELL chunk height exceeds the machine section");
  SMTU_CHECK(x.size() == static_cast<usize>(sell.cols()));
  const u32 cores = system.num_cores();
  vsim::Memory& mem = system.memory();

  const u64 slots = sell.values().size();
  const u64 nchunks = sell.num_chunks();
  const u64 padded_rows = sell.perm().size();

  const Addr vals = kImageBase;
  const Addr cols = round_up(vals + 4 * slots, 16);
  const Addr widths = round_up(cols + 4 * slots, 16);
  const Addr cptr = round_up(widths + 4 * nchunks, 16);
  const Addr perm = round_up(cptr + 4 * (nchunks + 1), 16);
  const Addr xb = round_up(perm + 4 * padded_rows, 16);
  const Addr yb = round_up(xb + 4 * x.size(), 16);
  const Addr desc_base = round_up(yb + 4 * sell.rows(), 16);

  std::vector<u8> bytes(desc_base - kImageBase, 0);
  const auto put_u32 = [&](Addr addr, u32 value) {
    const u64 off = addr - kImageBase;
    bytes[off] = static_cast<u8>(value);
    bytes[off + 1] = static_cast<u8>(value >> 8);
    bytes[off + 2] = static_cast<u8>(value >> 16);
    bytes[off + 3] = static_cast<u8>(value >> 24);
  };
  for (u64 i = 0; i < slots; ++i) {
    put_u32(vals + 4 * i, std::bit_cast<u32>(sell.values()[i]));
    put_u32(cols + 4 * i, sell.col_idx()[i]);
  }
  for (u64 c = 0; c < nchunks; ++c) put_u32(widths + 4 * c, sell.chunk_width()[c]);
  for (u64 c = 0; c <= nchunks; ++c) put_u32(cptr + 4 * c, sell.chunk_ptr()[c]);
  for (u64 i = 0; i < padded_rows; ++i) put_u32(perm + 4 * i, sell.perm()[i]);
  for (u64 i = 0; i < x.size(); ++i) put_u32(xb + 4 * i, std::bit_cast<u32>(x[i]));
  mem.write_block(kImageBase, bytes);

  // Chunk ranges cut where the running slot count passes each core's share,
  // so wide (long-row) chunks don't pile onto one core.
  const std::vector<u64> cut = balanced_cuts(sell.chunk_ptr(), cores);

  for (u32 c = 0; c < cores; ++c) {
    const Addr desc = desc_base + 64ull * c;
    mem.write_u32(desc + 0, static_cast<u32>(vals));
    mem.write_u32(desc + 4, static_cast<u32>(cols));
    mem.write_u32(desc + 8, static_cast<u32>(widths));
    mem.write_u32(desc + 12, static_cast<u32>(cptr));
    mem.write_u32(desc + 16, static_cast<u32>(perm));
    mem.write_u32(desc + 20, static_cast<u32>(xb));
    mem.write_u32(desc + 24, static_cast<u32>(yb));
    mem.write_u32(desc + 28, static_cast<u32>(cut[c]));
    mem.write_u32(desc + 32, static_cast<u32>(cut[c + 1]));
    mem.write_u32(desc + 36, static_cast<u32>(sell.rows()));
    mem.write_u32(desc + 40, sell.chunk());
    system.core(c).set_sreg(20, desc);
  }
  return SellLayout{yb};
}

}  // namespace

SellSpmvResult run_sell_spmv(const SellCSigma& sell, const std::vector<float>& x,
                             const vsim::SystemConfig& config,
                             std::vector<vsim::PerfCounters>* profilers) {
  const auto program = vsim::ProgramCache::instance().get(sell_spmv_source());
  vsim::MultiCoreSystem system(config);
  const SellLayout layout = stage_sell_spmv(system, sell, x);
  system.attach_profilers(profilers);

  SellSpmvResult result;
  result.stats = system.run(*program);
  result.y.resize(sell.rows());
  for (Index i = 0; i < sell.rows(); ++i) {
    result.y[i] = system.memory().read_f32(layout.y + 4ull * i);
  }
  return result;
}

}  // namespace smtu::kernels
