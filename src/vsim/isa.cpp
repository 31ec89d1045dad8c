#include "vsim/isa.hpp"

#include "support/strings.hpp"

namespace smtu::vsim {

std::string to_string(const Instruction& inst) {
  return format("%-10s a=%u b=%u c=%u d=%u imm=%lld", op_name(inst.op), inst.a, inst.b,
                inst.c, inst.d, static_cast<long long>(inst.imm));
}

}  // namespace smtu::vsim
