#include "vsim/assembler.hpp"

#include <charconv>
#include <map>
#include <utility>

#include "support/strings.hpp"

namespace smtu::vsim {
namespace {

// Mnemonics beyond each opcode's own: `call` for jal, and the paper's
// names for four opcodes.
constexpr std::pair<const char*, Op> kAliases[] = {
    {"call", Op::kJal},        {"v_ld_idx", Op::kVLdx},    {"v_st_idx", Op::kVStx},
    {"v_add_imm", Op::kVAddi}, {"v_setimm", Op::kVBcasti},
};

const std::map<std::string, Op>& mnemonics() {
  static const std::map<std::string, Op> table = [] {
    std::map<std::string, Op> map;
    for (const OpInfo& row : kOpTable) map.emplace(row.mnemonic, row.op);
    for (const auto& [alias, op] : kAliases) map.emplace(alias, op);
    return map;
  }();
  return table;
}

struct PendingLabelRef {
  usize instruction_index;
  std::string label;
  usize line;
};

class Parser {
 public:
  explicit Parser(usize line) : line_(line) {}

  [[noreturn]] void fail(const std::string& message) const {
    throw AssemblyError(line_, message);
  }

  u8 scalar_reg(std::string_view token) const {
    const std::string name = to_lower(trim(token));
    if (name == "zero") return 0;
    if (name == "ra") return kRegRa;
    if (name == "sp") return kRegSp;
    if (name.size() >= 2 && name[0] == 'r') {
      if (const auto index = parse_uint(name.substr(1)); index && *index < kNumScalarRegs) {
        return static_cast<u8>(*index);
      }
    }
    fail("expected scalar register, got '" + std::string(token) + "'");
  }

  u8 vector_reg(std::string_view token) const {
    const std::string name = to_lower(trim(token));
    if (name.size() >= 3 && name[0] == 'v' && name[1] == 'r') {
      if (const auto index = parse_uint(name.substr(2)); index && *index < kNumVectorRegs) {
        return static_cast<u8>(*index);
      }
    }
    fail("expected vector register, got '" + std::string(token) + "'");
  }

  i64 immediate(std::string_view token) const {
    const std::string_view text = trim(token);
    // Hex (with optional sign).
    bool negative = false;
    std::string_view body = text;
    if (!body.empty() && (body[0] == '-' || body[0] == '+')) {
      negative = body[0] == '-';
      body = body.substr(1);
    }
    if (starts_with(body, "0x") || starts_with(body, "0X")) {
      u64 value = 0;
      const auto* begin = body.data() + 2;
      const auto* end = body.data() + body.size();
      const auto [ptr, ec] = std::from_chars(begin, end, value, 16);
      if (ec != std::errc{} || ptr != end) fail("bad hex immediate '" + std::string(text) + "'");
      // 64-bit two's complement: negated as unsigned, so -0x8000000000000000
      // reads as the most negative immediate instead of overflowing.
      return static_cast<i64>(negative ? 0 - value : value);
    }
    if (const auto value = parse_int(text)) return *value;
    fail("expected immediate, got '" + std::string(token) + "'");
  }

  // off(rN) with optional offset.
  std::pair<i64, u8> mem_operand(std::string_view token) const {
    const std::string_view text = trim(token);
    const auto open = text.find('(');
    const auto close = text.rfind(')');
    if (open == std::string_view::npos || close == std::string_view::npos || close < open) {
      fail("expected memory operand 'off(rN)', got '" + std::string(token) + "'");
    }
    const std::string_view offset_text = trim(text.substr(0, open));
    const std::string_view reg_text = text.substr(open + 1, close - open - 1);
    const i64 offset = offset_text.empty() ? 0 : immediate(offset_text);
    return {offset, scalar_reg(reg_text)};
  }

 private:
  usize line_;
};

std::vector<std::string_view> split_operands(std::string_view text) {
  std::vector<std::string_view> operands;
  usize depth = 0;
  usize start = 0;
  for (usize i = 0; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    else if (text[i] == ')' && depth > 0) --depth;
    else if (text[i] == ',' && depth == 0) {
      operands.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  if (start < text.size() || !operands.empty()) operands.push_back(text.substr(start));
  std::vector<std::string_view> cleaned;
  for (const auto op : operands) {
    const auto trimmed = trim(op);
    if (!trimmed.empty()) cleaned.push_back(trimmed);
  }
  return cleaned;
}

}  // namespace

AssemblyError::AssemblyError(usize line, const std::string& message)
    : std::runtime_error(format("line %zu: %s", line, message.c_str())), line_(line) {}

Program assemble(std::string_view source) {
  Program program;
  std::vector<PendingLabelRef> pending;
  program.source_lines.emplace_back();  // [0] unused; source lines are 1-based

  // The `;; profile: <name>` region currently open, if any.
  bool region_open = false;
  std::string region_name;
  usize region_begin = 0;
  auto close_region = [&]() {
    if (!region_open) return;
    region_open = false;
    const usize end = program.instructions.size();
    if (end > region_begin) program.regions.push_back({region_name, region_begin, end});
  };

  usize line_number = 0;
  for (std::string_view rest = source; !rest.empty() || line_number == 0;) {
    // Carve out one line.
    const auto newline = rest.find('\n');
    std::string_view line =
        newline == std::string_view::npos ? rest : rest.substr(0, newline);
    rest = newline == std::string_view::npos ? std::string_view{} : rest.substr(newline + 1);
    ++line_number;
    program.source_lines.emplace_back(trim(line));

    Parser parser(line_number);

    // Assembler directives start with ';;' and are recognised before comment
    // stripping (the rest of the line may still carry a '#'/'%' comment).
    if (std::string_view trimmed = trim(line); starts_with(trimmed, ";;")) {
      std::string_view body = trimmed.substr(2);
      if (const auto comment = body.find_first_of("#%"); comment != std::string_view::npos) {
        body = body.substr(0, comment);
      }
      body = trim(body);
      if (starts_with(body, "profile:")) {
        const std::string name(trim(body.substr(8)));
        if (name.empty()) parser.fail(";; profile: directive needs a region name");
        close_region();
        if (name != "end") {  // "end" closes the open region without opening one
          region_open = true;
          region_name = name;
          region_begin = program.instructions.size();
        }
        continue;
      }
      parser.fail("unknown ';;' directive '" + std::string(body) + "'");
    }

    // Strip comments ('#' or '%').
    const auto comment = line.find_first_of("#%");
    if (comment != std::string_view::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;

    // Leading labels (possibly several on one line).
    while (true) {
      const auto colon = line.find(':');
      if (colon == std::string_view::npos) break;
      // A ':' may only belong to a label prefix (no spaces before it).
      const std::string_view head = trim(line.substr(0, colon));
      if (head.empty() || head.find_first_of(" \t,()") != std::string_view::npos) {
        parser.fail("malformed label");
      }
      if (program.labels.count(std::string(head)) > 0) {
        parser.fail("duplicate label '" + std::string(head) + "'");
      }
      program.labels.emplace(std::string(head), program.instructions.size());
      line = trim(line.substr(colon + 1));
      if (line.empty()) break;
    }
    if (line.empty()) continue;

    // Mnemonic and operands.
    usize mnemonic_end = 0;
    while (mnemonic_end < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[mnemonic_end]))) {
      ++mnemonic_end;
    }
    const std::string mnemonic = to_lower(line.substr(0, mnemonic_end));
    const auto operands = split_operands(trim(line.substr(mnemonic_end)));

    Instruction inst;
    inst.source_line = static_cast<u32>(line_number);

    // ret is jr ra.
    if (mnemonic == "ret") {
      if (!operands.empty()) parser.fail("ret takes no operands");
      inst.op = Op::kJr;
      inst.a = kRegRa;
      program.instructions.push_back(inst);
      continue;
    }

    const auto it = mnemonics().find(mnemonic);
    if (it == mnemonics().end()) parser.fail("unknown mnemonic '" + mnemonic + "'");
    inst.op = it->second;

    auto need = [&](usize count) {
      if (operands.size() != count) {
        parser.fail(format("%s expects %zu operands, got %zu", mnemonic.c_str(), count,
                           operands.size()));
      }
    };

    switch (op_info(inst.op).form) {
      case Form::kNone:
        need(0);
        break;
      case Form::kR:
        need(1);
        inst.a = parser.scalar_reg(operands[0]);
        break;
      case Form::kRR:
        need(2);
        inst.a = parser.scalar_reg(operands[0]);
        inst.b = parser.scalar_reg(operands[1]);
        break;
      case Form::kRRR:
        need(3);
        inst.a = parser.scalar_reg(operands[0]);
        inst.b = parser.scalar_reg(operands[1]);
        inst.c = parser.scalar_reg(operands[2]);
        break;
      case Form::kRRI:
        need(3);
        inst.a = parser.scalar_reg(operands[0]);
        inst.b = parser.scalar_reg(operands[1]);
        inst.imm = parser.immediate(operands[2]);
        break;
      case Form::kRI:
        need(2);
        inst.a = parser.scalar_reg(operands[0]);
        inst.imm = parser.immediate(operands[1]);
        break;
      case Form::kRMem: {
        need(2);
        inst.a = parser.scalar_reg(operands[0]);
        const auto [offset, base] = parser.mem_operand(operands[1]);
        inst.b = base;
        inst.imm = offset;
        break;
      }
      case Form::kRRMem: {
        need(3);
        inst.a = parser.scalar_reg(operands[0]);
        inst.c = parser.scalar_reg(operands[1]);
        const auto [offset, base] = parser.mem_operand(operands[2]);
        inst.b = base;
        inst.imm = offset;
        break;
      }
      case Form::kBranch:
        need(3);
        inst.a = parser.scalar_reg(operands[0]);
        inst.b = parser.scalar_reg(operands[1]);
        pending.push_back({program.instructions.size(), std::string(trim(operands[2])),
                           line_number});
        break;
      case Form::kLabel:
        need(1);
        inst.a = kRegRa;
        pending.push_back({program.instructions.size(), std::string(trim(operands[0])),
                           line_number});
        break;
      case Form::kVMem: {
        need(2);
        inst.a = parser.vector_reg(operands[0]);
        const auto [offset, base] = parser.mem_operand(operands[1]);
        inst.b = base;
        inst.imm = offset;
        break;
      }
      case Form::kVMemIdx: {
        need(3);
        inst.a = parser.vector_reg(operands[0]);
        const auto [offset, base] = parser.mem_operand(operands[1]);
        inst.b = base;
        inst.imm = offset;
        inst.c = parser.vector_reg(operands[2]);
        break;
      }
      case Form::kVMemStride: {
        need(3);
        inst.a = parser.vector_reg(operands[0]);
        const auto [offset, base] = parser.mem_operand(operands[1]);
        inst.b = base;
        inst.imm = offset;
        inst.c = parser.scalar_reg(operands[2]);
        break;
      }
      case Form::kVVV:
        need(3);
        inst.a = parser.vector_reg(operands[0]);
        inst.b = parser.vector_reg(operands[1]);
        inst.c = parser.vector_reg(operands[2]);
        break;
      case Form::kVVI:
        need(3);
        inst.a = parser.vector_reg(operands[0]);
        inst.b = parser.vector_reg(operands[1]);
        inst.imm = parser.immediate(operands[2]);
        break;
      case Form::kVVR:
        need(3);
        inst.a = parser.vector_reg(operands[0]);
        inst.b = parser.vector_reg(operands[1]);
        inst.c = parser.scalar_reg(operands[2]);
        break;
      case Form::kVR:
        need(2);
        inst.a = parser.vector_reg(operands[0]);
        inst.b = parser.scalar_reg(operands[1]);
        break;
      case Form::kVI:
        need(2);
        inst.a = parser.vector_reg(operands[0]);
        inst.imm = parser.immediate(operands[1]);
        break;
      case Form::kV:
        need(1);
        inst.a = parser.vector_reg(operands[0]);
        break;
      case Form::kRV:
        need(2);
        inst.a = parser.scalar_reg(operands[0]);
        inst.b = parser.vector_reg(operands[1]);
        break;
      case Form::kRVR:
        need(3);
        inst.a = parser.scalar_reg(operands[0]);
        inst.b = parser.vector_reg(operands[1]);
        inst.c = parser.scalar_reg(operands[2]);
        break;
      case Form::kVV:
        need(2);
        inst.a = parser.vector_reg(operands[0]);
        inst.b = parser.vector_reg(operands[1]);
        break;
      case Form::kVVRR:
        need(4);
        inst.a = parser.vector_reg(operands[0]);
        inst.b = parser.vector_reg(operands[1]);
        inst.c = parser.scalar_reg(operands[2]);
        inst.d = parser.scalar_reg(operands[3]);
        break;
    }
    program.instructions.push_back(inst);
  }

  close_region();

  // Pass 2: resolve label references.
  for (const PendingLabelRef& ref : pending) {
    const auto it = program.labels.find(ref.label);
    if (it == program.labels.end()) {
      throw AssemblyError(ref.line, "undefined label '" + ref.label + "'");
    }
    program.instructions[ref.instruction_index].imm = static_cast<i64>(it->second);
  }
  program.predecode();
  return program;
}

}  // namespace smtu::vsim
