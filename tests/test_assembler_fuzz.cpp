// Seeded mutation fuzzing of the assembler over the programs it really
// assembles: every kernel source, examples/programs/*.s and one line of
// every mnemonic. vsim_run feeds the assembler user files, so a mutated
// program must come back as a Program or as an AssemblyError naming a line
// inside the source, never as an abort. The edits are the mistakes a person
// makes: another mnemonic from the opcode table, a register number past 15
// or 31 (or of the other kind), an operand too few or too many, a broken
// immediate or label, a duplicated or cut-off line.
//
// The parser and the predecoder both follow each opcode's operand form
// (vsim/isa.hpp). Were they to disagree on which operand is a scalar and
// which a vector register, a register number the parser accepts would
// abort in the predecoder's range check; the last test sets every register
// slot of every mnemonic past its range, so that disagreement cannot hide
// in an opcode no kernel uses. SMTU_EXAMPLES_DIR is injected by
// tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "kernels/crs_parallel.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/dense_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/sell_spmv.hpp"
#include "kernels/shard.hpp"
#include "kernels/spgemm.hpp"
#include "kernels/spmv.hpp"
#include "support/rng.hpp"
#include "testing.hpp"
#include "vsim/assembler.hpp"

namespace smtu::vsim {
namespace {

constexpr int kCasesPerProgram = 200;
constexpr u64 kFuzzSeed = 0xA55E3B1E;

using Sources = std::vector<std::pair<std::string, std::string>>;  // name, text

const Sources& sources() {
  static const Sources all = [] {
    Sources list = {
        {"hism_transpose", kernels::hism_transpose_source()},
        {"hism_transpose split", kernels::hism_transpose_source(true)},
        {"hism_transpose pipelined", kernels::hism_transpose_pipelined_source()},
        {"crs_transpose", kernels::crs_transpose_source(64)},
        {"crs_transpose masked", kernels::crs_transpose_source(64, {.masked_phase1 = true})},
        {"crs_transpose scalar", kernels::scalar_crs_transpose_source()},
        {"crs_transpose parallel", kernels::parallel_crs_transpose_source()},
        {"dense_transpose", kernels::dense_transpose_source()},
        {"hism_transpose sharded", kernels::sharded_hism_transpose_source()},
        {"hism_spmv", kernels::hism_spmv_source(64)},
        {"hism_spmv transposed", kernels::hism_spmv_transposed_source(64)},
        {"crs_spmv", kernels::crs_spmv_source()},
        {"jd_spmv", kernels::jd_spmv_source()},
        {"sell_spmv", kernels::sell_spmv_source()},
        {"hism_spgemm", kernels::hism_spgemm_source(64)},
        {"every mnemonic", testing::kEveryMnemonic},
    };
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(SMTU_EXAMPLES_DIR)) {
      if (entry.path().extension() == ".s") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
      std::ifstream in(path);
      std::ostringstream text;
      text << in.rdbuf();
      list.emplace_back(path.filename().string(), text.str());
    }
    return list;
  }();
  return all;
}

// Every mnemonic the assembler accepts.
const std::vector<std::string>& all_mnemonics() {
  static const std::vector<std::string> all = [] {
    std::vector<std::string> list = {"call", "v_ld_idx", "v_st_idx", "v_add_imm", "v_setimm",
                                     "ret"};
    for (usize i = 0; i < kOpCount; ++i) list.emplace_back(op_name(static_cast<Op>(i)));
    return list;
  }();
  return all;
}

bool is_mnemonic(const std::string& word) {
  return std::find(all_mnemonics().begin(), all_mnemonics().end(), word) != all_mnemonics().end();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  return text;
}

bool word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' || c == '+';
}

// [begin, end) of each word before the line's comment.
std::vector<std::pair<usize, usize>> words(const std::string& line) {
  std::vector<std::pair<usize, usize>> found;
  const usize stop = std::min(line.find_first_of("#%"), line.size());
  for (usize i = 0; i < stop;) {
    if (!word_char(line[i])) {
      ++i;
      continue;
    }
    usize j = i;
    while (j < stop && word_char(line[j])) ++j;
    found.emplace_back(i, j);
    i = j;
  }
  return found;
}

bool is_register(const std::string& word) {
  const usize prefix = word.rfind("vr", 0) == 0 ? 2 : word.rfind('r', 0) == 0 ? 1 : 0;
  return prefix > 0 && word.size() > prefix &&
         std::all_of(word.begin() + static_cast<std::ptrdiff_t>(prefix), word.end(),
                     [](char c) { return std::isdigit(static_cast<unsigned char>(c)); });
}

bool is_number(const std::string& word) {
  const usize start = word[0] == '-' || word[0] == '+' ? 1 : 0;
  return word.size() > start && std::isdigit(static_cast<unsigned char>(word[start]));
}

template <typename Pick>
void replace_a_word(std::string& line, Rng& rng, Pick&& pick) {
  std::vector<std::pair<usize, usize>> candidates;
  for (const auto& [begin, end] : words(line)) {
    if (pick(line.substr(begin, end - begin), nullptr)) candidates.emplace_back(begin, end);
  }
  if (candidates.empty()) return;
  const auto [begin, end] = candidates[rng.below(candidates.size())];
  std::string replacement;
  pick(line.substr(begin, end - begin), &replacement);
  line.replace(begin, end - begin, replacement);
}

// One edit to one line of the program.
void mutate(std::vector<std::string>& lines, Rng& rng) {
  static const char* const kBadValues[] = {
      "",   "0x", "0xZZ", "12abc", "--1", "1e3", "99999999999999999999", "0xFFFFFFFFFFFFFFFFF",
      "(",  ")",  ":",    "a b",   "nowhere", "vr", "r",  "-0x8000000000000000"};
  if (lines.empty()) lines.emplace_back();
  const usize index = rng.below(lines.size());
  std::string& line = lines[index];
  switch (rng.below(6)) {
    case 0:  // another mnemonic from the table
      replace_a_word(line, rng, [&](const std::string& word, std::string* out) {
        if (!is_mnemonic(word)) return false;
        if (out != nullptr) *out = all_mnemonics()[rng.below(all_mnemonics().size())];
        return true;
      });
      break;
    case 1:  // a register number past 15 or 31, sometimes of the other kind
      replace_a_word(line, rng, [&](const std::string& word, std::string* out) {
        if (!is_register(word)) return false;
        if (out != nullptr) {
          const bool vector = (word[0] == 'v') != rng.chance(0.25);
          *out = (vector ? "vr" : "r") + std::to_string(16 + rng.below(24));
        }
        return true;
      });
      break;
    case 2: {  // an operand dropped or added
      const auto found = words(line);
      if (found.empty()) break;
      const usize operands = found[0].second;
      if (rng.chance(0.5)) {
        const usize comma = line.find(',', operands);
        if (comma != std::string::npos) line.erase(comma, line.find(',', comma + 1) - comma);
      } else {
        static const char* const kExtra[] = {", r7", ", vr3", ", 4", ", 8(r2)", ", nowhere"};
        line.insert(std::min(line.find_first_of("#%"), line.size()), kExtra[rng.below(5)]);
      }
      break;
    }
    case 3:  // a broken immediate or label
      replace_a_word(line, rng, [&](const std::string& word, std::string* out) {
        if (is_register(word) || is_mnemonic(word)) return false;
        if (out != nullptr) {
          *out = is_number(word) && rng.chance(0.5)
                     ? std::to_string(rng.next_u64())
                     : kBadValues[rng.below(std::size(kBadValues))];
        }
        return true;
      });
      break;
    case 4:  // a duplicated line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(index), line);
      break;
    default:  // a cut-off line
      line.resize(rng.below(line.size() + 1));
      break;
  }
}

// The mutated text of one program: one to three edits of the original.
std::string mutated(const std::string& original, Rng& rng) {
  std::vector<std::string> lines = split_lines(original);
  const u64 edits = 1 + rng.below(3);
  for (u64 e = 0; e < edits; ++e) mutate(lines, rng);
  return join_lines(lines);
}

TEST(AssemblerFuzz, EveryProgramAssembles) {
  ASSERT_EQ(sources().size(), 21u);
  for (const auto& [name, text] : sources()) {
    const Program program = assemble(text);
    EXPECT_GT(program.size(), 0u) << name;
    EXPECT_EQ(program.decoded.size(), program.size()) << name;
  }
}

TEST(AssemblerFuzz, MutatedProgramsAssembleOrNameALineInside) {
  Rng rng(kFuzzSeed);
  usize assembled = 0;
  usize rejected = 0;
  for (const auto& [name, original] : sources()) {
    for (int i = 0; i < kCasesPerProgram; ++i) {
      const std::string text = mutated(original, rng);
      const usize line_count = split_lines(text).size();
      try {
        const Program program = assemble(text);
        EXPECT_EQ(program.decoded.size(), program.size()) << name << " case " << i;
        ++assembled;
      } catch (const AssemblyError& error) {
        EXPECT_GE(error.line(), 1u) << name << " case " << i << ": " << error.what();
        EXPECT_LE(error.line(), line_count) << name << " case " << i << ": " << error.what();
        ++rejected;
      }
    }
  }
  // Both outcomes occur: most edits break the program, and some (a bigger
  // register in a scalar slot, a duplicated plain instruction) do not.
  EXPECT_GT(assembled, 0u);
  EXPECT_GT(rejected, assembled);
}

// Every register operand of every mnemonic, set to each number past 15 and
// past 31, of both kinds: the parser rejects the line or the predecoder
// takes it. A slot the parser reads as a scalar register but the predecoder
// lists as a vector one would abort here on r16..r31.
TEST(AssemblerFuzz, EveryRegisterSlotPastItsRangeIsRejectedOrDecoded) {
  usize assembled = 0;
  usize rejected = 0;
  for (const std::string& line : split_lines(testing::kEveryMnemonic)) {
    for (const auto& [begin, end] : words(line)) {
      if (!is_register(line.substr(begin, end - begin))) continue;
      for (const char* kind : {"r", "vr"}) {
        for (u32 number = 16; number < 40; ++number) {
          std::string text = line;
          text.replace(begin, end - begin, kind + std::to_string(number));
          try {
            const Program program = assemble("target:\n" + text + "\n");
            EXPECT_EQ(program.decoded.size(), 1u) << text;
            ++assembled;
          } catch (const AssemblyError& error) {
            EXPECT_EQ(error.line(), 2u) << text << ": " << error.what();
            ++rejected;
          }
        }
      }
    }
  }
  // r16..r31 in a scalar slot assembles; everything else is rejected.
  EXPECT_GT(assembled, 0u);
  EXPECT_GT(rejected, assembled);
}

}  // namespace
}  // namespace smtu::vsim
