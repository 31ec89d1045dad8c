#include "kernels/shard.hpp"

#include <algorithm>
#include <map>

#include "hism/image.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/layout.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "vsim/program_cache.hpp"

namespace smtu::kernels {
namespace {

// Level count covering the declared dimensions (q of §II: smallest q with
// s^q >= max(M, N), at least 1) and the row span of one top-level block.
void hierarchy_geometry(Index rows, Index cols, u32 section, u32* levels, u64* block_span) {
  const u64 max_dim = std::max<u64>({1, rows, cols});
  u32 q = 1;
  u64 span = section;
  while (span < max_dim) {
    span *= section;
    ++q;
  }
  *levels = q;
  *block_span = span / section;  // s^(q-1)
}

}  // namespace

std::vector<u64> balanced_cuts(std::span<const u32> prefix, u32 parts) {
  SMTU_CHECK(!prefix.empty() && parts >= 1);
  const u64 total = prefix.back();
  std::vector<u64> cuts(parts + 1, 0);
  cuts[parts] = prefix.size() - 1;
  for (u32 c = 1; c < parts; ++c) {
    cuts[c] = static_cast<u64>(
        std::lower_bound(prefix.begin(), prefix.end(), total * c / parts) - prefix.begin());
  }
  return cuts;
}

HismShardPlan shard_hism(const Coo& coo, u32 section, u32 cores) {
  SMTU_CHECK(cores >= 1);
  u32 levels = 0;
  u64 block_span = 0;
  hierarchy_geometry(coo.rows(), coo.cols(), section, &levels, &block_span);

  const u64 num_top_rows = ceil_div(std::max<u64>(1, coo.rows()), block_span);
  // Non-zeros before each top-level block row. Trailing empty block rows
  // fold into the last panel.
  std::vector<u32> nnz_before(num_top_rows + 1, 0);
  for (const CooEntry& entry : coo.entries()) ++nnz_before[entry.row / block_span + 1];
  for (u64 row = 0; row < num_top_rows; ++row) nnz_before[row + 1] += nnz_before[row];
  const std::vector<u64> cuts = balanced_cuts(nnz_before, cores);

  HismShardPlan plan;
  plan.levels = levels;
  plan.panels.resize(cores);
  for (u32 p = 0; p < cores; ++p) {
    plan.panels[p].top_row_begin = static_cast<u32>(cuts[p]);
    plan.panels[p].top_row_end = static_cast<u32>(cuts[p + 1]);
  }

  // Panel COO keeps global coordinates and the full declared dimensions, so
  // every panel builds the same level count and root-level coordinates stay
  // directly mergeable.
  std::vector<Coo> panel_coo(cores, Coo(coo.rows(), coo.cols()));
  std::vector<u32> panel_of_top_row(num_top_rows, cores - 1);
  for (u32 p = 0; p < cores; ++p) {
    for (u64 r = plan.panels[p].top_row_begin; r < plan.panels[p].top_row_end; ++r) {
      panel_of_top_row[r] = p;
    }
  }
  for (const CooEntry& entry : coo.entries()) {
    panel_coo[panel_of_top_row[entry.row / block_span]].entries().push_back(entry);
  }
  for (u32 p = 0; p < cores; ++p) {
    plan.panels[p].nnz = panel_coo[p].nnz();
    if (plan.panels[p].nnz == 0) continue;
    plan.panels[p].hism = HismMatrix::from_coo(panel_coo[p], section);
    SMTU_CHECK_MSG(plan.panels[p].hism.num_levels() == levels,
                   "panel level count diverged from the full matrix");
  }
  return plan;
}

std::string sharded_hism_transpose_source() {
  // Per-core panel descriptor, r20 (host-staged, 9 u32 fields):
  //   +0  panel root address        +4  panel root length (0 = empty panel)
  //   +8  levels - 1                +12 panel root slot array
  //   +16 panel root lengths array (0 at level 0)
  //   +20 rank table (u32 global rank per transposed root entry)
  //   +24 merged position base      +28 merged slot base
  //   +32 merged lengths base (unused at level 0)
  std::string source = R"asm(
main:
;; profile: shard_setup
    lw    r1, 0(r20)             # panel root address
    lw    r2, 4(r20)             # panel root length
    lw    r3, 8(r20)             # levels - 1
    beq   r2, r0, merge_rdv      # empty panel: straight to the rendezvous
    jal   transpose_block
merge_rdv:
;; profile: merge
    barrier                      # every panel transposed before roots are read
    lw    r1, 0(r20)             # panel positions (= root address)
    lw    r2, 4(r20)             # n
    lw    r4, 12(r20)            # panel slots
    lw    r5, 16(r20)            # panel lengths (0 at level 0)
    lw    r6, 20(r20)            # rank table
    lw    r7, 24(r20)            # merged positions
    lw    r8, 28(r20)            # merged slots
    lw    r9, 32(r20)            # merged lengths
    li    r10, 0                 # i
merge_loop:
    bge   r10, r2, merge_done
    slli  r11, r10, 2
    add   r12, r6, r11
    lw    r12, (r12)             # global rank of entry i
    add   r13, r1, r10
    add   r13, r13, r10
    lhu   r14, (r13)             # position pair (row, col bytes) as one u16
    slli  r15, r12, 1
    add   r15, r7, r15
    sh    r14, (r15)             # merged position at 2*rank
    add   r13, r4, r11
    lw    r14, (r13)             # slot: value bits / absolute child pointer
    slli  r15, r12, 2
    add   r16, r8, r15
    sw    r14, (r16)             # merged slot at 4*rank
    beq   r5, r0, merge_next     # level 0: no lengths vector
    add   r13, r5, r11
    lw    r14, (r13)             # child length
    add   r16, r9, r15
    sw    r14, (r16)             # merged length at 4*rank
merge_next:
    addi  r10, r10, 1
    beq   r0, r0, merge_loop
merge_done:
    barrier                      # merged root complete on every core
    halt
)asm";
  const std::string transpose = hism_transpose_source();
  const auto at = transpose.find("# ---- transpose_block");
  SMTU_CHECK_MSG(at != std::string::npos, "transpose_block marker not found");
  source += transpose.substr(at);
  return source;
}

namespace {

// Everything the host stages for one run: panel images, the zeroed merged
// root region, rank tables, and per-core descriptors.
struct StagedShard {
  HismShardPlan plan;
  Addr merged_root = 0;
  u32 merged_len = 0;
  Addr image_end = 0;  // first free address past all staged regions
};

StagedShard stage_sharded(vsim::MultiCoreSystem& system, const Coo& coo) {
  const u32 cores = system.num_cores();
  const u32 section = system.config().core.section;
  vsim::Memory& mem = system.memory();

  StagedShard staged;
  staged.plan = shard_hism(coo, section, cores);
  const HismShardPlan& plan = staged.plan;

  // Panel images, back to back from the usual image base.
  Addr cursor = kImageBase;
  std::vector<HismImage> images(cores);
  for (u32 c = 0; c < cores; ++c) {
    if (plan.panels[c].nnz == 0) continue;
    images[c] = build_hism_image(plan.panels[c].hism, round_up(cursor, 16));
    mem.write_block(images[c].base, images[c].bytes);
    cursor = images[c].base + images[c].bytes.size();
  }

  // Merged root region (block-array layout of hism/image.hpp), zeroed.
  u64 total_len = 0;
  for (u32 c = 0; c < cores; ++c) total_len += plan.panels[c].nnz == 0 ? 0 : images[c].root_len;
  staged.merged_len = static_cast<u32>(total_len);
  staged.merged_root = round_up(cursor, 16);
  const bool has_lengths = plan.levels >= 2;
  const Addr merged_slots = round_up(staged.merged_root + 2 * total_len, 4);
  const Addr merged_lens = merged_slots + 4 * total_len;
  const Addr merged_end = merged_lens + (has_lengths ? 4 * total_len : 0);
  mem.write_block(staged.merged_root,
                  std::vector<u8>(merged_end - staged.merged_root, 0));
  cursor = merged_end;

  // Global ranks: after the transpose each panel root is sorted by
  // (col, row) — the drain order of the s x s memory — and panels own
  // disjoint row ranges, so the merged (col, row)-sorted root interleaves
  // the panels' sorted sequences. Keys are unique; rank = sort position.
  std::vector<std::vector<u32>> panel_keys(cores);
  std::vector<u32> all_keys;
  for (u32 c = 0; c < cores; ++c) {
    if (plan.panels[c].nnz == 0) continue;
    for (const BlockPos& pos : plan.panels[c].hism.root().pos) {
      panel_keys[c].push_back(static_cast<u32>(pos.col) << 8 | pos.row);
    }
    std::sort(panel_keys[c].begin(), panel_keys[c].end());
    all_keys.insert(all_keys.end(), panel_keys[c].begin(), panel_keys[c].end());
  }
  std::sort(all_keys.begin(), all_keys.end());
  std::map<u32, u32> rank_of;
  for (u32 r = 0; r < all_keys.size(); ++r) rank_of.emplace(all_keys[r], r);

  std::vector<Addr> rank_table(cores, 0);
  for (u32 c = 0; c < cores; ++c) {
    if (panel_keys[c].empty()) continue;
    rank_table[c] = round_up(cursor, 16);
    std::vector<u8> bytes(4 * panel_keys[c].size());
    for (usize i = 0; i < panel_keys[c].size(); ++i) {
      const u32 rank = rank_of.at(panel_keys[c][i]);
      bytes[4 * i + 0] = static_cast<u8>(rank);
      bytes[4 * i + 1] = static_cast<u8>(rank >> 8);
      bytes[4 * i + 2] = static_cast<u8>(rank >> 16);
      bytes[4 * i + 3] = static_cast<u8>(rank >> 24);
    }
    mem.write_block(rank_table[c], bytes);
    cursor = rank_table[c] + bytes.size();
  }

  // Per-core descriptors plus entry registers: descriptor base in r20, a
  // private stack slice below the image region in sp.
  const Addr desc_base = round_up(cursor, 16);
  const Addr stack_span = (kStackTop / cores) & ~static_cast<Addr>(15);
  for (u32 c = 0; c < cores; ++c) {
    const Addr desc = desc_base + 64ull * c;
    const bool empty = plan.panels[c].nnz == 0;
    const u32 n = empty ? 0 : images[c].root_len;
    const Addr root = empty ? 0 : images[c].root_addr;
    const Addr slots = empty ? 0 : round_up(root + 2ull * n, 4);
    mem.write_u32(desc + 0, static_cast<u32>(root));
    mem.write_u32(desc + 4, n);
    mem.write_u32(desc + 8, plan.levels - 1);
    mem.write_u32(desc + 12, static_cast<u32>(slots));
    mem.write_u32(desc + 16, has_lengths && !empty ? static_cast<u32>(slots + 4ull * n) : 0);
    mem.write_u32(desc + 20, static_cast<u32>(rank_table[c]));
    mem.write_u32(desc + 24, static_cast<u32>(staged.merged_root));
    mem.write_u32(desc + 28, static_cast<u32>(merged_slots));
    mem.write_u32(desc + 32, has_lengths ? static_cast<u32>(merged_lens) : 0);
    system.core(c).set_sreg(20, desc);
    system.core(c).set_sreg(vsim::kRegSp, kStackTop - stack_span * c);
  }
  staged.image_end = desc_base + 64ull * cores;
  return staged;
}

}  // namespace

ShardedHismTransposeResult run_sharded_hism_transpose(
    const Coo& coo, const vsim::SystemConfig& config,
    std::vector<vsim::PerfCounters>* profilers) {
  const auto program = vsim::ProgramCache::instance().get(sharded_hism_transpose_source());
  vsim::MultiCoreSystem system(config);
  const StagedShard staged = stage_sharded(system, coo);
  system.attach_profilers(profilers);

  ShardedHismTransposeResult result;
  result.stats = system.run(*program);
  if (staged.merged_len == 0) {
    result.transposed = Coo(coo.cols(), coo.rows());
    return result;
  }
  const std::span<const u8> raw = system.memory().raw();
  SMTU_CHECK(staged.image_end <= raw.size());
  const std::span<const u8> window =
      raw.subspan(kImageBase, staged.image_end - kImageBase);
  HismMatrix merged = decode_hism_image(window, kImageBase, staged.merged_root,
                                        staged.merged_len, staged.plan.levels,
                                        config.core.section, coo.cols(), coo.rows());
  result.transposed = merged.to_coo();
  result.transposed.canonicalize();
  return result;
}

}  // namespace smtu::kernels
