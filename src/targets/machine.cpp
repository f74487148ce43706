#include "targets/machine.h"

#include <sstream>

#include "support/diagnostics.h"

namespace svc {

RegClass reg_class_for(Type t) {
  switch (t) {
    case Type::I32:
    case Type::I64:
      return RegClass::Int;
    case Type::F32:
    case Type::F64:
      return RegClass::Flt;
    case Type::V128:
      return RegClass::Vec;
    case Type::Void:
      break;
  }
  fatal("reg_class_for: void has no register class");
}

const char* reg_class_prefix(RegClass cls) {
  switch (cls) {
    case RegClass::Int: return "r";
    case RegClass::Flt: return "f";
    case RegClass::Vec: return "v";
  }
  return "?";
}

std::string mop_name(MOp op) {
  if (!is_machine_only(op)) return std::string(op_mnemonic(base_opcode(op)));
  switch (op) {
    case MOp::MovRR: return "mov";
    case MOp::MovImm: return "mov.imm";
    case MOp::FMovImm32: return "fmov.imm32";
    case MOp::FMovImm64: return "fmov.imm64";
    case MOp::SpillLoad: return "spill.load";
    case MOp::SpillStore: return "spill.store";
    case MOp::FMA32: return "fma.f32";
    case MOp::LoadAddr: return "lea";
    case MOp::MNop: return "mnop";
  }
  return "?";
}

namespace {

std::string reg_str(const Reg& r) {
  if (!r.valid) return "_";
  std::string s = reg_class_prefix(r.cls);
  s += std::to_string(r.idx);
  return s;
}

}  // namespace

std::string MInst::str() const {
  std::ostringstream os;
  os << mop_name(op);
  if (dst.valid) os << ' ' << reg_str(dst);
  bool first = !dst.valid;
  for (const Reg* r : {&s0, &s1, &s2}) {
    if (!r->valid) continue;
    os << (first ? " " : ", ") << reg_str(*r);
    first = false;
  }
  if (!is_machine_only(op)) {
    const OpInfo& info = op_info(base_opcode(op));
    switch (info.imm) {
      case ImmKind::I64: os << ", #" << imm; break;
      case ImmKind::F32:
      case ImmKind::F64: os << ", #bits:" << imm; break;
      case ImmKind::MemOff:
        if (imm != 0) os << ", +" << imm;
        break;
      case ImmKind::Lane: os << ", [" << a << ']'; break;
      case ImmKind::Block: os << " ->bb" << a; break;
      case ImmKind::Block2: os << " ->bb" << a << "/bb" << b; break;
      case ImmKind::FuncIdx: os << ", @" << a; break;
      default: break;
    }
  } else if (op == MOp::MovImm || op == MOp::FMovImm32 ||
             op == MOp::FMovImm64 || op == MOp::SpillLoad ||
             op == MOp::SpillStore || op == MOp::LoadAddr) {
    os << ", #" << imm;
  }
  return os.str();
}

std::string MFunction::str() const {
  std::ostringstream os;
  os << "mfn " << name << " (vregs i:" << num_vregs[0] << " f:" << num_vregs[1]
     << " v:" << num_vregs[2] << ", slots i:" << num_slots[0]
     << " f:" << num_slots[1] << " v:" << num_slots[2] << ")\n";
  for (size_t b = 0; b < blocks.size(); ++b) {
    os << "bb" << b << ":\n";
    for (const auto& inst : blocks[b].insts) {
      os << "  " << inst.str() << '\n';
    }
  }
  return os.str();
}

uint32_t default_mop_cost(MOp op) {
  if (is_machine_only(op)) {
    switch (op) {
      case MOp::MovRR:
      case MOp::MovImm:
      case MOp::FMovImm32:
      case MOp::FMovImm64:
      case MOp::LoadAddr:
        return 1;
      case MOp::SpillLoad: return 2;
      case MOp::SpillStore: return 1;
      case MOp::FMA32: return 4;
      case MOp::MNop: return 0;
      default: return 1;
    }
  }
  const Opcode bc = base_opcode(op);
  const OpInfo& info = op_info(bc);
  switch (info.category) {
    case OpCategory::Const:
    case OpCategory::Local:
      return 1;
    case OpCategory::IntArith:
      switch (bc) {
        case Opcode::MulI32:
        case Opcode::MulI64:
          return 3;
        case Opcode::DivSI32:
        case Opcode::DivUI32:
        case Opcode::RemSI32:
        case Opcode::RemUI32:
        case Opcode::DivSI64:
          return 20;
        default:
          return 1;
      }
    case OpCategory::FloatArith:
      switch (bc) {
        case Opcode::DivF32:
        case Opcode::DivF64:
          return 16;
        case Opcode::SqrtF32:
        case Opcode::SqrtF64:
          return 20;
        case Opcode::NegF32:
        case Opcode::NegF64:
        case Opcode::AbsF32:
          return 1;
        default:
          return 3;  // add/sub/mul/min/max latency
      }
    case OpCategory::Cmp:
      return 1;
    case OpCategory::Select:
      return 1;
    case OpCategory::Conv:
      return 3;
    case OpCategory::Load:
      return 2;
    case OpCategory::Store:
      return 1;
    case OpCategory::VectorConst:
      return 1;
    case OpCategory::VectorArith:
      switch (bc) {
        case Opcode::VMulF32: return 4;
        case Opcode::VDivF32: return 20;
        case Opcode::VAddF32:
        case Opcode::VSubF32:
        case Opcode::VMinF32:
        case Opcode::VMaxF32:
          return 3;
        case Opcode::VMulI32: return 4;
        default:
          return 1;  // integer lane ops
      }
    case OpCategory::VectorReduce:
      switch (bc) {
        case Opcode::VRSumU8: return 3;   // psadbw-style
        case Opcode::VRSumU16: return 4;
        case Opcode::VRSumI32: return 4;
        case Opcode::VRSumF32: return 6;  // two shuffle+add steps
        case Opcode::VRMaxU8:
        case Opcode::VRMinU8:
        case Opcode::VRMaxU16:
          return 4;
        case Opcode::VRMaxSI32: return 4;
        case Opcode::VRMaxF32:
        case Opcode::VRMinF32:
          return 6;
        default: return 4;
      }
    case OpCategory::VectorLane:
      return 2;  // extract/insert cross the vector/scalar domain
    case OpCategory::Control:
      return 1;
    case OpCategory::Call:
      return 4;
    case OpCategory::Misc:
      return 0;
  }
  return 1;
}

std::array<uint32_t, kNumMOps> default_cost_table() {
  std::array<uint32_t, kNumMOps> table{};
  for (size_t i = 0; i < kNumMOps; ++i) table[i] = default_mop_cost(mop_at(i));
  return table;
}

}  // namespace svc
