#include "targets/simulator.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "support/diagnostics.h"

namespace svc {

// --- decoded form ------------------------------------------------------------

/// Decoded op space: every Opcode, numerically identical (the semantics
/// shared with the interpreter), then the machine-only ops, split by the
/// register class that picks their frame array. MNop, Drop and Nop all
/// decode to Nop.
enum class SimOp : uint8_t {
#define SVC_OP(Name, mnemonic, pops, pushes, imm, category, lanes, membytes) \
  Name,
#include "bytecode/opcodes.def"
#undef SVC_OP
  MovI, MovF, MovV,                       // dst <- s0
  MovImm,                                 // int dst <- imm
  FMovImm,                                // flt dst <- double bits in imm
  SpillLoadI, SpillLoadF, SpillLoadV,     // dst <- slot location s0
  SpillStoreI, SpillStoreF, SpillStoreV,  // slot location dst <- s0
  FMA32,                                  // dst <- s0 * s1 + s2 (f32)
  LoadAddr,                               // dst <- s0 + imm (i32)
  // An i32 compare fused with the BranchIf right after it that tests its
  // result: one dispatch runs both, and both are counted.
  EqzI32Br, EqI32Br, NeI32Br, LtSI32Br, LtUI32Br, LeSI32Br, LeUI32Br,
  GtSI32Br, GtUI32Br, GeSI32Br, GeUI32Br,
  OutOfSteps,                             // budget spent: ends a run early
  Count_,
};
static_assert(static_cast<size_t>(SimOp::Count_) <= 256,
              "SimOp must fit its uint8_t");
static_assert(static_cast<int>(SimOp::GeUI32) -
                      static_cast<int>(SimOp::EqzI32) ==
                  static_cast<int>(SimOp::GeUI32Br) -
                      static_cast<int>(SimOp::EqzI32Br),
              "the i32 compares and their fused forms pair up in order");

constexpr bool is_i32_compare(SimOp op) {
  return op >= SimOp::EqzI32 && op <= SimOp::GeUI32;
}

/// The compare-and-branch form of an i32 compare.
constexpr SimOp fused_branch(SimOp compare) {
  return static_cast<SimOp>(static_cast<int>(compare) -
                            static_cast<int>(SimOp::EqzI32) +
                            static_cast<int>(SimOp::EqzI32Br));
}

/// A fused compare's plain compare; any other op unchanged.
constexpr SimOp unfused(SimOp op) {
  if (op < SimOp::EqzI32Br || op > SimOp::GeUI32Br) return op;
  return static_cast<SimOp>(static_cast<int>(op) -
                            static_cast<int>(SimOp::EqzI32Br) +
                            static_cast<int>(SimOp::EqzI32));
}

/// One decoded instruction. Operand fields are frame locations: indexes
/// into the frame array of the class the op reads them as (registers,
/// then the spill rewriter's scratch registers, then spill slots).
///   ALU, conversion, vector ops  dst, s0..s2 by the op's signature
///   Load* / Store*               s0 = address, dst / s1 = value,
///                                imm = byte offset
///   VExtract* / VInsert*         s2 = lane
///   MovImm, FMovImm, LoadAddr    imm = constant, double bits, addend
///   Jump                         s0 = target index in the stream
///   BranchIf                     s0 = condition, dst = branch site,
///                                s1 / s2 = taken / not-taken target,
///                                imm = extra cycles of the taken (low
///                                32 bits) / not-taken (high) edge
///   Call                         s0 = SimFunction::calls index
///   Ret                          s0 = returned value
/// `cost` folds every static cycle of the instruction: the op cost, the
/// load-use stall and a Jump's taken-branch penalty. `taken` marks the
/// edges that are taken branches rather than fall-throughs: bit 0 for a
/// Jump or a BranchIf's taken edge, bit 1 for the not-taken edge.
struct SimInst {
  SimOp op = SimOp::Nop;
  uint8_t taken = 0;
  uint32_t cost = 0;
  uint32_t dst = 0;
  uint32_t s0 = 0;
  uint32_t s1 = 0;
  uint32_t s2 = 0;
  int64_t imm = 0;
};
static_assert(sizeof(SimInst) == 32);

/// Marks a location that is out of range for a register class.
constexpr uint32_t kNoLoc = ~0u;

/// A call instruction: where its arguments are in the caller's frame and
/// where the result goes. The result's class is the callee's return
/// class, known only when the call runs, so its location is resolved for
/// every class.
struct SimCall {
  uint32_t callee = 0;
  uint32_t first_arg = 0;  // into SimFunction::args
  uint32_t num_args = 0;
  bool has_result = false;
  std::array<uint32_t, kNumRegClasses> result{};
};

struct SimArg {
  RegClass cls = RegClass::Int;
  uint32_t loc = 0;
};

/// A run: a straight stretch of the stream that ends at a block
/// terminator or a call, and is entered only at its first instruction.
/// The run loop charges a run's instructions and their `cost` once, on
/// entry, instead of one by one.
struct SimRun {
  uint64_t cost = 0;
  uint32_t length = 0;
};

struct SimFunction {
  std::vector<SimInst> code;
  // By stream index: the run that starts there (length 0 elsewhere).
  std::vector<SimRun> runs;
  std::vector<SimCall> calls;
  std::vector<SimArg> args;
  // Parameter i's location for an incoming value of each class.
  std::vector<std::array<uint32_t, kNumRegClasses>> params;
  // Frame array length per class: registers, scratch, spill slots.
  std::array<uint32_t, kNumRegClasses> frame{};
  uint32_t num_sites = 0;  // BranchIf instructions
  uint32_t mispredict_penalty = 0;
  Type ret_type = Type::Void;
};

namespace {

// Frames hold the allocatable registers, the spill rewriter's scratch
// registers (allocatable + 0..2) and one spare, then the spill slots.
constexpr uint32_t kReservedRegs = 4;

constexpr size_t cls_index(RegClass cls) { return static_cast<size_t>(cls); }

/// What decoding needs to know about a bytecode opcode, derived once
/// from its OpInfo: operands are read in the classes of its stack
/// signature (s0, s1, s2 in push order).
struct OpShape {
  bool executable = false;  // has machine semantics (not const/local)
  bool load = false;
  bool terminator = false;
  bool has_dst = false;
  bool mem_off = false;     // imm is a byte offset
  uint8_t lanes = 0;        // lane count when `a` is a lane, else 0
  uint8_t num_srcs = 0;
  RegClass dst = RegClass::Int;
  std::array<RegClass, 3> srcs{};
};

const std::array<OpShape, kNumOpcodes>& op_shapes() {
  static const auto shapes = [] {
    const auto cls = [](char code) {
      return reg_class_for(type_from_code(code));
    };
    std::array<OpShape, kNumOpcodes> table{};
    for (size_t i = 0; i < kNumOpcodes; ++i) {
      const auto op = static_cast<Opcode>(i);
      const OpInfo& info = op_info(op);
      OpShape& shape = table[i];
      shape.executable = info.category != OpCategory::Const &&
                         info.category != OpCategory::Local &&
                         info.pops.size() <= shape.srcs.size();
      shape.load = info.category == OpCategory::Load;
      shape.terminator = is_terminator(op);
      shape.has_dst = !info.pushes.empty();
      if (shape.has_dst) shape.dst = cls(info.pushes[0]);
      shape.mem_off = info.imm == ImmKind::MemOff;
      if (info.imm == ImmKind::Lane) {
        shape.lanes = static_cast<uint8_t>(lane_count(info.lanes));
      }
      if (!shape.executable) continue;
      shape.num_srcs = static_cast<uint8_t>(info.pops.size());
      for (size_t k = 0; k < info.pops.size(); ++k) {
        shape.srcs[k] = cls(info.pops[k]);
      }
    }
    return table;
  }();
  return shapes;
}

SimOp by_class(RegClass cls, SimOp int_op, SimOp flt_op, SimOp vec_op) {
  switch (cls) {
    case RegClass::Int: return int_op;
    case RegClass::Flt: return flt_op;
    case RegClass::Vec: return vec_op;
  }
  return int_op;
}

class Decoder {
 public:
  Decoder(const MachineDesc& desc, const MFunction& fn, size_t num_functions,
          SimFunction& out)
      : desc_(desc), fn_(fn), num_functions_(num_functions), out_(out) {}

  void run() {
    out_.ret_type = fn_.ret_type;
    out_.mispredict_penalty = desc_.mispredict_penalty;
    for (size_t c = 0; c < kNumRegClasses; ++c) {
      out_.frame[c] = desc_.regs[c] + kReservedRegs + fn_.num_slots[c];
    }
    if (fn_.blocks.empty()) fail("no blocks");
    out_.params.reserve(fn_.param_regs.size());
    for (const Reg& p : fn_.param_regs) {
      if (find(p, p.cls) == kNoLoc) fail("parameter register out of range");
      out_.params.push_back(locations(p));
    }
    // Lay the blocks out back to back. Instructions after a block's first
    // terminator can never run and are dropped.
    const auto terminates = [this](const MInst& i) { return ends_block(i); };
    starts_.reserve(fn_.blocks.size() + 1);
    starts_.push_back(0);
    for (block_ = 0; block_ < fn_.blocks.size(); ++block_) {
      const auto& insts = fn_.blocks[block_].insts;
      const auto end = std::find_if(insts.begin(), insts.end(), terminates);
      index_ = static_cast<uint32_t>(insts.size());
      if (end == insts.end()) fail("block falls through");
      starts_.push_back(starts_.back() +
                        static_cast<uint32_t>(end - insts.begin()) + 1);
    }
    out_.code.resize(starts_.back());
    for (block_ = 0; block_ < fn_.blocks.size(); ++block_) {
      const auto& insts = fn_.blocks[block_].insts;
      const uint32_t length = starts_[block_ + 1] - starts_[block_];
      for (index_ = 0; index_ < length; ++index_) {
        // The previous instruction executed is the one before in the
        // block: a block is entered only after a terminator, and a call
        // returns to the next instruction. Neither is a load, so the
        // load-use stall is a property of adjacent pairs in a block.
        const MInst* prev = index_ > 0 ? &insts[index_ - 1] : nullptr;
        decode(insts[index_], prev, out_.code[starts_[block_] + index_]);
      }
    }
    // A compare whose result the block's BranchIf tests runs fused with
    // it. A block's runs each end at a call or at the block's
    // terminator, so a call returns to the start of the next one.
    out_.runs.resize(out_.code.size());
    for (size_t b = 0; b < fn_.blocks.size(); ++b) {
      const uint32_t last = starts_[b + 1] - 1;
      if (last > starts_[b]) {
        SimInst& compare = out_.code[last - 1];
        const SimInst& branch = out_.code[last];
        if (branch.op == SimOp::BranchIf && is_i32_compare(compare.op) &&
            compare.dst == branch.s0) {
          compare.op = fused_branch(compare.op);
        }
      }
      uint32_t start = starts_[b];
      for (uint32_t i = start; i < starts_[b + 1]; ++i) {
        const SimInst& inst = out_.code[i];
        if (inst.op != SimOp::Call && i + 1 < starts_[b + 1]) continue;
        SimRun& run = out_.runs[start];
        run.length = i + 1 - start;
        for (uint32_t k = start; k <= i; ++k) run.cost += out_.code[k].cost;
        start = i + 1;
      }
    }
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::string where =
        "simulator: malformed machine code in '" + fn_.name + "'";
    if (block_ < fn_.blocks.size()) {
      where += " bb" + std::to_string(block_) + "[" +
               std::to_string(index_) + "]";
      const auto& insts = fn_.blocks[block_].insts;
      if (index_ < insts.size()) {
        const MOp op = insts[index_].op;
        where += is_valid_mop(op)
                     ? " " + mop_name(op)
                     : " op " + std::to_string(static_cast<uint16_t>(op));
      }
    }
    fatal(where + ": " + what);
  }

  [[nodiscard]] bool is_load(const MInst& inst) const {
    if (inst.op == MOp::SpillLoad) return true;
    return is_valid_mop(inst.op) && !is_machine_only(inst.op) &&
           shapes_[mop_index(inst.op)].load;
  }
  [[nodiscard]] bool ends_block(const MInst& inst) const {
    return is_valid_mop(inst.op) && !is_machine_only(inst.op) &&
           shapes_[mop_index(inst.op)].terminator;
  }

  /// `r`'s frame location when read as class `cls`, or kNoLoc.
  [[nodiscard]] uint32_t find(const Reg& r, RegClass cls) const {
    const size_t c = cls_index(cls);
    const uint32_t regs = desc_.regs[c] + kReservedRegs;
    if (r.is_slot()) {
      return r.slot_index() < fn_.num_slots[c] ? regs + r.slot_index() : kNoLoc;
    }
    return r.idx < regs ? r.idx : kNoLoc;
  }
  [[nodiscard]] uint32_t loc(const Reg& r, RegClass cls) const {
    const uint32_t l = find(r, cls);
    if (l == kNoLoc) fail("register out of range");
    return l;
  }
  [[nodiscard]] std::array<uint32_t, kNumRegClasses> locations(
      const Reg& r) const {
    return {find(r, RegClass::Int), find(r, RegClass::Flt),
            find(r, RegClass::Vec)};
  }
  [[nodiscard]] uint32_t slot(RegClass cls, int64_t index) const {
    const size_t c = cls_index(cls);
    if (index < 0 || static_cast<uint64_t>(index) >= fn_.num_slots[c]) {
      fail("spill slot out of range");
    }
    return desc_.regs[c] + kReservedRegs + static_cast<uint32_t>(index);
  }
  [[nodiscard]] uint32_t target(uint32_t block) const {
    if (block >= fn_.blocks.size()) fail("branch target out of range");
    return starts_[block];
  }
  /// Extra cycles and the taken flag of an edge to `block`.
  [[nodiscard]] uint32_t edge_penalty(uint32_t block) const {
    return block == block_ + 1 ? 0 : desc_.taken_branch_penalty;
  }

  void decode(const MInst& inst, const MInst* prev, SimInst& out) {
    if (!is_valid_mop(inst.op)) fail("unknown machine op");
    out.cost = desc_.cost(inst.op);
    if (prev != nullptr && is_load(*prev)) {
      const Reg& loaded = prev->dst;
      for (const Reg* r : {&inst.s0, &inst.s1, &inst.s2}) {
        if (r->valid && *r == loaded) {
          out.cost += desc_.load_use_penalty;
          break;
        }
      }
    }
    if (is_machine_only(inst.op)) {
      decode_machine_only(inst, out);
    } else {
      decode_shared(inst, out);
    }
  }

  void decode_machine_only(const MInst& inst, SimInst& out) {
    switch (inst.op) {
      case MOp::MovRR: {
        const RegClass cls = inst.dst.cls;
        out.op = by_class(cls, SimOp::MovI, SimOp::MovF, SimOp::MovV);
        out.dst = loc(inst.dst, cls);
        out.s0 = loc(inst.s0, cls);
        return;
      }
      case MOp::MovImm:
        out.op = SimOp::MovImm;
        out.dst = loc(inst.dst, RegClass::Int);
        out.imm = inst.imm;
        return;
      case MOp::FMovImm32:
        // f32 registers hold the value widened; widen the constant once.
        out.op = SimOp::FMovImm;
        out.dst = loc(inst.dst, RegClass::Flt);
        out.imm = std::bit_cast<int64_t>(static_cast<double>(
            std::bit_cast<float>(static_cast<uint32_t>(inst.imm))));
        return;
      case MOp::FMovImm64:
        out.op = SimOp::FMovImm;
        out.dst = loc(inst.dst, RegClass::Flt);
        out.imm = inst.imm;
        return;
      case MOp::SpillLoad: {
        const RegClass cls = inst.dst.cls;
        out.op = by_class(cls, SimOp::SpillLoadI, SimOp::SpillLoadF,
                          SimOp::SpillLoadV);
        out.dst = loc(inst.dst, cls);
        out.s0 = slot(cls, inst.imm);
        return;
      }
      case MOp::SpillStore: {
        const RegClass cls = inst.s0.cls;
        out.op = by_class(cls, SimOp::SpillStoreI, SimOp::SpillStoreF,
                          SimOp::SpillStoreV);
        out.dst = slot(cls, inst.imm);
        out.s0 = loc(inst.s0, cls);
        return;
      }
      case MOp::FMA32:
        out.op = SimOp::FMA32;
        out.dst = loc(inst.dst, RegClass::Flt);
        out.s0 = loc(inst.s0, RegClass::Flt);
        out.s1 = loc(inst.s1, RegClass::Flt);
        out.s2 = loc(inst.s2, RegClass::Flt);
        return;
      case MOp::LoadAddr:
        out.op = SimOp::LoadAddr;
        out.dst = loc(inst.dst, RegClass::Int);
        out.s0 = loc(inst.s0, RegClass::Int);
        out.imm = inst.imm;
        return;
      case MOp::MNop:
        out.op = SimOp::Nop;
        return;
    }
    fail("unknown machine op");
  }

  void decode_shared(const MInst& inst, SimInst& out) {
    const Opcode bc = base_opcode(inst.op);
    out.op = static_cast<SimOp>(bc);
    switch (bc) {
      case Opcode::Jump:
        out.s0 = target(inst.a);
        out.cost += edge_penalty(inst.a);
        out.taken = inst.a == block_ + 1 ? 0 : 1;
        return;
      case Opcode::BranchIf: {
        out.s0 = loc(inst.s0, RegClass::Int);
        out.dst = out_.num_sites++;
        out.s1 = target(inst.a);
        out.s2 = target(inst.b);
        out.imm = static_cast<int64_t>(
            edge_penalty(inst.a) |
            static_cast<uint64_t>(edge_penalty(inst.b)) << 32);
        out.taken = (inst.a == block_ + 1 ? 0 : 1) |
                    (inst.b == block_ + 1 ? 0 : 2);
        return;
      }
      case Opcode::Ret:
        if (fn_.ret_type != Type::Void) {
          out.s0 = loc(inst.s0, reg_class_for(fn_.ret_type));
        }
        return;
      case Opcode::Call: {
        if (inst.a >= num_functions_) fail("callee out of range");
        if (inst.imm < 0 ||
            static_cast<uint64_t>(inst.imm) >= fn_.call_sites.size()) {
          fail("call site out of range");
        }
        SimCall call;
        call.callee = inst.a;
        call.first_arg = static_cast<uint32_t>(out_.args.size());
        for (const Reg& r : fn_.call_sites[static_cast<size_t>(inst.imm)]) {
          out_.args.push_back({r.cls, loc(r, r.cls)});
        }
        call.num_args =
            static_cast<uint32_t>(out_.args.size()) - call.first_arg;
        call.has_result = inst.dst.valid;
        if (call.has_result) {
          (void)loc(inst.dst, inst.dst.cls);
          call.result = locations(inst.dst);
        }
        out.s0 = static_cast<uint32_t>(out_.calls.size());
        out_.calls.push_back(call);
        return;
      }
      case Opcode::Trap:
        return;
      case Opcode::Drop:
      case Opcode::Nop:
        out.op = SimOp::Nop;
        return;
      default:
        break;
    }
    const OpShape& shape = shapes_[static_cast<size_t>(bc)];
    if (!shape.executable) fail("not an executable machine op");
    if (shape.has_dst) out.dst = loc(inst.dst, shape.dst);
    const Reg* const regs[] = {&inst.s0, &inst.s1, &inst.s2};
    uint32_t* const srcs[] = {&out.s0, &out.s1, &out.s2};
    for (size_t k = 0; k < shape.num_srcs; ++k) {
      *srcs[k] = loc(*regs[k], shape.srcs[k]);
    }
    if (shape.mem_off) out.imm = inst.imm;
    if (shape.lanes != 0) {
      if (inst.a >= shape.lanes) fail("lane out of range");
      out.s2 = inst.a;
    }
  }

  const MachineDesc& desc_;
  const MFunction& fn_;
  size_t num_functions_;
  SimFunction& out_;
  const std::array<OpShape, kNumOpcodes>& shapes_ = op_shapes();
  // Stream index of each block's first instruction, then the stream's
  // length.
  std::vector<uint32_t> starts_;
  uint32_t block_ = ~0u;  // where fail() reports, once blocks are walked
  uint32_t index_ = 0;
};

Value read_value(const int64_t* ints, const double* flts, const V128* vecs,
                 uint32_t loc, Type type) {
  switch (type) {
    case Type::I32: return Value::make_i32(static_cast<int32_t>(ints[loc]));
    case Type::I64: return Value::make_i64(ints[loc]);
    case Type::F32: return Value::make_f32(static_cast<float>(flts[loc]));
    case Type::F64: return Value::make_f64(flts[loc]);
    case Type::V128: return Value::make_v128(vecs[loc]);
    case Type::Void: break;
  }
  return Value{};
}

void write_value(int64_t* ints, double* flts, V128* vecs, uint32_t loc,
                 const Value& v) {
  switch (v.type) {
    case Type::I32: ints[loc] = v.i32; break;
    case Type::I64: ints[loc] = v.i64; break;
    case Type::F32: flts[loc] = v.f32; break;
    case Type::F64: flts[loc] = v.f64; break;
    case Type::V128: vecs[loc] = v.v128; break;
    case Type::Void: break;
  }
}

template <typename T>
T load_as(const uint8_t* mem, uint32_t addr) {
  T v;
  std::memcpy(&v, mem + addr, sizeof(T));
  return v;
}

template <typename T>
void store_as(uint8_t* mem, uint32_t addr, const T& v) {
  std::memcpy(mem + addr, &v, sizeof(T));
}

/// Zeroes [base, base + len) of a register stack, growing it as needed.
template <typename T>
void carve(std::vector<T>& stack, uint32_t base, uint32_t len) {
  if (stack.size() < base + len) stack.resize(base + len);
  std::fill_n(stack.begin() + base, len, T{});
}

constexpr uint32_t kUnentered = ~0u;
constexpr uint32_t kMaxCallDepth = 128;

// 2-bit saturating counter update, indexed [taken][counter].
constexpr uint8_t kNextCounter[2][4] = {{0, 0, 1, 2}, {1, 2, 3, 3}};

/// A run's working memory: the register frames of all active calls, one
/// stack per register class, and the predictor counters, one slice per
/// function entered, laid out on first entry. A run never re-enters the
/// simulator, so one instance per thread serves every run on it and a
/// warm request allocates nothing.
struct RunState {
  std::vector<int64_t> ints;
  std::vector<double> flts;
  std::vector<V128> vecs;
  std::vector<uint8_t> predictor;
  std::vector<uint32_t> predictor_base;  // per function, or kUnentered
};

thread_local RunState t_run_state;

/// One activation: its function, its frame's offsets on the three
/// register stacks and its predictor slice.
struct Frame {
  const SimFunction* fn;
  std::array<uint32_t, kNumRegClasses> base;
  uint32_t pred_base;
};

/// Lays out `fn`'s frame at `frame.base` (zeroed registers and slots, as a
/// fresh core frame) and its predictor slice on first entry this run.
void open_frame(RunState& state, const SimFunction& fn, uint32_t func_idx,
                Frame& frame) {
  frame.fn = &fn;
  carve(state.ints, frame.base[0], fn.frame[0]);
  carve(state.flts, frame.base[1], fn.frame[1]);
  carve(state.vecs, frame.base[2], fn.frame[2]);
  uint32_t& pred_base = state.predictor_base[func_idx];
  if (pred_base == kUnentered) {
    pred_base = static_cast<uint32_t>(state.predictor.size());
    state.predictor.resize(state.predictor.size() + fn.num_sites, 0);
  }
  frame.pred_base = pred_base;
}

}  // namespace

SimFunctionPtr decode_function(const MachineDesc& desc, const MFunction& fn,
                               size_t num_functions) {
  auto out = std::make_shared<SimFunction>();
  Decoder(desc, fn, num_functions, *out).run();
  return out;
}

// --- execution ---------------------------------------------------------------

Simulator::Simulator(const MachineDesc& desc,
                     std::span<const MFunction> functions, Memory& memory)
    : desc_(&desc),
      source_(functions),
      decoded_(functions.size()),
      memory_(memory) {}

Simulator::Simulator(std::span<const SimFunctionPtr> image, Memory& memory)
    : image_(image), memory_(memory) {}

size_t Simulator::num_functions() const {
  return desc_ != nullptr ? source_.size() : image_.size();
}

const SimFunction& Simulator::function(uint32_t func_idx) {
  if (func_idx >= num_functions()) {
    fatal("simulator: function " + std::to_string(func_idx) + " out of range");
  }
  if (desc_ != nullptr) {
    SimFunctionPtr& slot = decoded_[func_idx];
    if (!slot) {
      slot = decode_function(*desc_, source_[func_idx], source_.size());
    }
    return *slot;
  }
  const SimFunctionPtr& fn = image_[func_idx];
  if (!fn) {
    fatal("simulator: function " + std::to_string(func_idx) + " has no code");
  }
  return *fn;
}

SimResult Simulator::run(uint32_t func_idx, std::span<const Value> args) {
  SimResult result;
  result.trap = execute(func_idx, args, result.value, result.stats);
  return result;
}

TrapKind Simulator::execute(uint32_t func_idx, std::span<const Value> args,
                            Value& ret_out, SimStats& stats_out) {
  // Counters live in a local so that stores into simulated memory (char
  // typed, so they may alias anything reachable) never force them out of
  // registers; they are published once, at exit.
  SimStats st;
  TrapKind trap = TrapKind::None;
  RunState& state = t_run_state;
  state.predictor.clear();
  state.predictor_base.assign(num_functions(), kUnentered);
  uint8_t* const mem = memory_.bytes().data();
  const uint64_t mem_size = memory_.size();
  const uint64_t budget = step_budget_;

  struct Return {
    Frame frame;
    const SimInst* pc;
    const SimCall* call;
  };
  std::array<Return, kMaxCallDepth> returns;
  uint32_t depth = 0;

  Frame frame{};
  open_frame(state, function(func_idx), func_idx, frame);
  const SimFunction* fn = frame.fn;
  const SimInst* code = fn->code.data();
  const SimInst* pc = code;
  int64_t* I = nullptr;
  double* F = nullptr;
  V128* V = nullptr;
  uint8_t* P = nullptr;
  // Re-derives the frame pointers; the stacks may move when a call grows
  // them.
  const auto bind = [&] {
    I = state.ints.data() + frame.base[0];
    F = state.flts.data() + frame.base[1];
    V = state.vecs.data() + frame.base[2];
    P = state.predictor.data() + frame.pred_base;
  };
  bind();
  // An entry value lands in the frame array of its own type's class,
  // even when the caller passed a type the parameter does not have; one
  // that fits no register there is dropped.
  for (size_t i = 0; i < args.size() && i < fn->params.size(); ++i) {
    if (args[i].type == Type::Void) continue;
    const uint32_t loc = fn->params[i][cls_index(reg_class_for(args[i].type))];
    if (loc != kNoLoc) write_value(I, F, V, loc, args[i]);
  }

  const auto i32 = [&](uint32_t loc) { return static_cast<int32_t>(I[loc]); };
  const auto u32 = [&](uint32_t loc) { return static_cast<uint32_t>(I[loc]); };
  const auto u64 = [&](uint32_t loc) { return static_cast<uint64_t>(I[loc]); };
  const auto f32 = [&](uint32_t loc) { return static_cast<float>(F[loc]); };
  // i32 results live sign-extended in 64-bit registers, f32 results
  // widened in double ones.
  const auto set_i32 = [&](uint32_t loc, int32_t v) { I[loc] = v; };
  const auto set_f32 = [&](uint32_t loc, float v) { F[loc] = v; };
  // Effective address of a memory op; false when [addr, addr + len)
  // leaves memory.
  const auto address = [&](const SimInst& in, uint64_t len, uint32_t& a32) {
    const uint64_t addr = static_cast<uint64_t>(u32(in.s0)) +
                          static_cast<uint64_t>(in.imm);
    if (addr + len > mem_size || addr + len < addr) return false;
    a32 = static_cast<uint32_t>(addr);
    return true;
  };

  // A BranchIf's dynamic timing -- predictor, counters, edge cycles --
  // and its target.
  const auto branch = [&](const SimInst& br, bool taken) {
    st.branches += 1;
    uint8_t& ctr = P[br.dst];  // 0 = strongly not-taken
    if ((ctr >= 2) != taken) {
      st.mispredicts += 1;
      st.cycles += fn->mispredict_penalty;
    }
    ctr = kNextCounter[taken][ctr];
    const auto edge = static_cast<uint64_t>(br.imm);
    st.cycles += taken ? (edge & 0xffffffffu) : (edge >> 32);
    st.taken_branches += (br.taken >> (taken ? 0 : 1)) & 1;
    return code + (taken ? br.s1 : br.s2);
  };

  // Where the budget runs out inside a run: the instructions it still
  // covers, then an OutOfSteps where the next fetch would have trapped.
  std::vector<SimInst> tail;
  const SimInst* run_end = pc;  // one past the current run's last

enter:  // pc is at the first instruction of a run
  {
    const SimRun& run = fn->runs[static_cast<size_t>(pc - code)];
    const uint64_t left = budget - st.instructions;
    if (run.length <= left) {
      st.instructions += run.length;
      st.cycles += run.cost;
      run_end = pc + run.length;
    } else {
      tail.assign(pc, pc + left);
      for (SimInst& in : tail) {
        st.cycles += in.cost;
        in.op = unfused(in.op);  // its BranchIf is cut off
      }
      st.instructions += left;
      tail.emplace_back().op = SimOp::OutOfSteps;
      pc = tail.data();
      run_end = pc + left;
    }
  }
  for (;;) {
    const SimInst& in = *pc++;
    switch (in.op) {
      // --- machine-only ops --------------------------------------------------
      case SimOp::MovI: I[in.dst] = I[in.s0]; break;
      case SimOp::MovF: F[in.dst] = F[in.s0]; break;
      case SimOp::MovV: V[in.dst] = V[in.s0]; break;
      case SimOp::MovImm: I[in.dst] = in.imm; break;
      case SimOp::FMovImm: F[in.dst] = std::bit_cast<double>(in.imm); break;
      case SimOp::SpillLoadI: st.spill_loads += 1; I[in.dst] = I[in.s0]; break;
      case SimOp::SpillLoadF: st.spill_loads += 1; F[in.dst] = F[in.s0]; break;
      case SimOp::SpillLoadV: st.spill_loads += 1; V[in.dst] = V[in.s0]; break;
      case SimOp::SpillStoreI:
        st.spill_stores += 1; I[in.dst] = I[in.s0];
        break;
      case SimOp::SpillStoreF:
        st.spill_stores += 1; F[in.dst] = F[in.s0];
        break;
      case SimOp::SpillStoreV:
        st.spill_stores += 1; V[in.dst] = V[in.s0];
        break;
      case SimOp::FMA32:
        set_f32(in.dst, f32(in.s0) * f32(in.s1) + f32(in.s2));
        break;
      case SimOp::LoadAddr:
        set_i32(in.dst, static_cast<int32_t>(i32(in.s0) + in.imm));
        break;

      // --- integer arithmetic (i32 slices of int registers) ------------------
      case SimOp::AddI32:
        set_i32(in.dst, static_cast<int32_t>(u32(in.s0) + u32(in.s1)));
        break;
      case SimOp::SubI32:
        set_i32(in.dst, static_cast<int32_t>(u32(in.s0) - u32(in.s1)));
        break;
      case SimOp::MulI32:
        set_i32(in.dst, static_cast<int32_t>(u32(in.s0) * u32(in.s1)));
        break;
      case SimOp::DivSI32: {
        const int32_t a = i32(in.s0), b = i32(in.s1);
        if (b == 0) {
          trap = TrapKind::DivideByZero;
          goto out;
        }
        if (a == std::numeric_limits<int32_t>::min() && b == -1) {
          trap = TrapKind::IntegerOverflow;
          goto out;
        }
        set_i32(in.dst, a / b);
        break;
      }
      case SimOp::DivUI32: {
        const uint32_t a = u32(in.s0), b = u32(in.s1);
        if (b == 0) {
          trap = TrapKind::DivideByZero;
          goto out;
        }
        set_i32(in.dst, static_cast<int32_t>(a / b));
        break;
      }
      case SimOp::RemSI32: {
        const int32_t a = i32(in.s0), b = i32(in.s1);
        if (b == 0) {
          trap = TrapKind::DivideByZero;
          goto out;
        }
        const bool overflow =
            a == std::numeric_limits<int32_t>::min() && b == -1;
        set_i32(in.dst, overflow ? 0 : a % b);
        break;
      }
      case SimOp::RemUI32: {
        const uint32_t a = u32(in.s0), b = u32(in.s1);
        if (b == 0) {
          trap = TrapKind::DivideByZero;
          goto out;
        }
        set_i32(in.dst, static_cast<int32_t>(a % b));
        break;
      }
      case SimOp::AndI32: set_i32(in.dst, i32(in.s0) & i32(in.s1)); break;
      case SimOp::OrI32: set_i32(in.dst, i32(in.s0) | i32(in.s1)); break;
      case SimOp::XorI32: set_i32(in.dst, i32(in.s0) ^ i32(in.s1)); break;
      case SimOp::ShlI32:
        set_i32(in.dst, static_cast<int32_t>(u32(in.s0) << (i32(in.s1) & 31)));
        break;
      case SimOp::ShrSI32:
        set_i32(in.dst, i32(in.s0) >> (i32(in.s1) & 31));
        break;
      case SimOp::ShrUI32:
        set_i32(in.dst, static_cast<int32_t>(u32(in.s0) >> (i32(in.s1) & 31)));
        break;
      case SimOp::MinSI32:
        set_i32(in.dst, std::min(i32(in.s0), i32(in.s1)));
        break;
      case SimOp::MaxSI32:
        set_i32(in.dst, std::max(i32(in.s0), i32(in.s1)));
        break;
      case SimOp::MinUI32:
        set_i32(in.dst, static_cast<int32_t>(std::min(u32(in.s0), u32(in.s1))));
        break;
      case SimOp::MaxUI32:
        set_i32(in.dst, static_cast<int32_t>(std::max(u32(in.s0), u32(in.s1))));
        break;
      case SimOp::EqzI32: set_i32(in.dst, i32(in.s0) == 0); break;
      case SimOp::EqI32: set_i32(in.dst, i32(in.s0) == i32(in.s1)); break;
      case SimOp::NeI32: set_i32(in.dst, i32(in.s0) != i32(in.s1)); break;
      case SimOp::LtSI32: set_i32(in.dst, i32(in.s0) < i32(in.s1)); break;
      case SimOp::LtUI32: set_i32(in.dst, u32(in.s0) < u32(in.s1)); break;
      case SimOp::LeSI32: set_i32(in.dst, i32(in.s0) <= i32(in.s1)); break;
      case SimOp::LeUI32: set_i32(in.dst, u32(in.s0) <= u32(in.s1)); break;
      case SimOp::GtSI32: set_i32(in.dst, i32(in.s0) > i32(in.s1)); break;
      case SimOp::GtUI32: set_i32(in.dst, u32(in.s0) > u32(in.s1)); break;
      case SimOp::GeSI32: set_i32(in.dst, i32(in.s0) >= i32(in.s1)); break;
      case SimOp::GeUI32: set_i32(in.dst, u32(in.s0) >= u32(in.s1)); break;

      // --- i64 ---------------------------------------------------------------
      case SimOp::AddI64:
        I[in.dst] = static_cast<int64_t>(u64(in.s0) + u64(in.s1));
        break;
      case SimOp::SubI64:
        I[in.dst] = static_cast<int64_t>(u64(in.s0) - u64(in.s1));
        break;
      case SimOp::MulI64:
        I[in.dst] = static_cast<int64_t>(u64(in.s0) * u64(in.s1));
        break;
      case SimOp::DivSI64: {
        const int64_t a = I[in.s0], b = I[in.s1];
        if (b == 0) {
          trap = TrapKind::DivideByZero;
          goto out;
        }
        if (a == std::numeric_limits<int64_t>::min() && b == -1) {
          trap = TrapKind::IntegerOverflow;
          goto out;
        }
        I[in.dst] = a / b;
        break;
      }
      case SimOp::AndI64: I[in.dst] = I[in.s0] & I[in.s1]; break;
      case SimOp::OrI64: I[in.dst] = I[in.s0] | I[in.s1]; break;
      case SimOp::XorI64: I[in.dst] = I[in.s0] ^ I[in.s1]; break;
      case SimOp::ShlI64:
        I[in.dst] = static_cast<int64_t>(u64(in.s0) << (I[in.s1] & 63));
        break;
      case SimOp::ShrSI64: I[in.dst] = I[in.s0] >> (I[in.s1] & 63); break;
      case SimOp::ShrUI64:
        I[in.dst] = static_cast<int64_t>(u64(in.s0) >> (I[in.s1] & 63));
        break;
      case SimOp::EqI64: set_i32(in.dst, I[in.s0] == I[in.s1]); break;
      case SimOp::NeI64: set_i32(in.dst, I[in.s0] != I[in.s1]); break;
      case SimOp::LtSI64: set_i32(in.dst, I[in.s0] < I[in.s1]); break;
      case SimOp::GtSI64: set_i32(in.dst, I[in.s0] > I[in.s1]); break;

      // --- f32 (computed in float precision, stored widened) -----------------
      case SimOp::AddF32: set_f32(in.dst, f32(in.s0) + f32(in.s1)); break;
      case SimOp::SubF32: set_f32(in.dst, f32(in.s0) - f32(in.s1)); break;
      case SimOp::MulF32: set_f32(in.dst, f32(in.s0) * f32(in.s1)); break;
      case SimOp::DivF32: set_f32(in.dst, f32(in.s0) / f32(in.s1)); break;
      case SimOp::MinF32:
        set_f32(in.dst, std::fmin(f32(in.s0), f32(in.s1)));
        break;
      case SimOp::MaxF32:
        set_f32(in.dst, std::fmax(f32(in.s0), f32(in.s1)));
        break;
      case SimOp::NegF32: set_f32(in.dst, -f32(in.s0)); break;
      case SimOp::AbsF32: set_f32(in.dst, std::fabs(f32(in.s0))); break;
      case SimOp::SqrtF32: set_f32(in.dst, std::sqrt(f32(in.s0))); break;
      case SimOp::EqF32: set_i32(in.dst, f32(in.s0) == f32(in.s1)); break;
      case SimOp::NeF32: set_i32(in.dst, f32(in.s0) != f32(in.s1)); break;
      case SimOp::LtF32: set_i32(in.dst, f32(in.s0) < f32(in.s1)); break;
      case SimOp::LeF32: set_i32(in.dst, f32(in.s0) <= f32(in.s1)); break;
      case SimOp::GtF32: set_i32(in.dst, f32(in.s0) > f32(in.s1)); break;
      case SimOp::GeF32: set_i32(in.dst, f32(in.s0) >= f32(in.s1)); break;

      // --- f64 ---------------------------------------------------------------
      case SimOp::AddF64: F[in.dst] = F[in.s0] + F[in.s1]; break;
      case SimOp::SubF64: F[in.dst] = F[in.s0] - F[in.s1]; break;
      case SimOp::MulF64: F[in.dst] = F[in.s0] * F[in.s1]; break;
      case SimOp::DivF64: F[in.dst] = F[in.s0] / F[in.s1]; break;
      case SimOp::MinF64: F[in.dst] = std::fmin(F[in.s0], F[in.s1]); break;
      case SimOp::MaxF64: F[in.dst] = std::fmax(F[in.s0], F[in.s1]); break;
      case SimOp::NegF64: F[in.dst] = -F[in.s0]; break;
      case SimOp::SqrtF64: F[in.dst] = std::sqrt(F[in.s0]); break;
      case SimOp::EqF64: set_i32(in.dst, F[in.s0] == F[in.s1]); break;
      case SimOp::NeF64: set_i32(in.dst, F[in.s0] != F[in.s1]); break;
      case SimOp::LtF64: set_i32(in.dst, F[in.s0] < F[in.s1]); break;
      case SimOp::LeF64: set_i32(in.dst, F[in.s0] <= F[in.s1]); break;
      case SimOp::GtF64: set_i32(in.dst, F[in.s0] > F[in.s1]); break;
      case SimOp::GeF64: set_i32(in.dst, F[in.s0] >= F[in.s1]); break;

      // --- selects: dst = cond (s2) ? s0 : s1 --------------------------------
      case SimOp::SelectI32:
      case SimOp::SelectI64:
        I[in.dst] = i32(in.s2) != 0 ? I[in.s0] : I[in.s1];
        break;
      case SimOp::SelectF32:
      case SimOp::SelectF64:
        F[in.dst] = i32(in.s2) != 0 ? F[in.s0] : F[in.s1];
        break;

      // --- conversions -------------------------------------------------------
      case SimOp::I32ToI64S: I[in.dst] = i32(in.s0); break;
      case SimOp::I32ToI64U: I[in.dst] = u32(in.s0); break;
      case SimOp::I64ToI32:
        set_i32(in.dst, static_cast<int32_t>(I[in.s0]));
        break;
      case SimOp::I32ToF32S:
        set_f32(in.dst, static_cast<float>(i32(in.s0)));
        break;
      case SimOp::F32ToI32S:
        set_i32(in.dst, static_cast<int32_t>(f32(in.s0)));
        break;
      case SimOp::I32ToF64S: F[in.dst] = i32(in.s0); break;
      case SimOp::F64ToI32S:
        set_i32(in.dst, static_cast<int32_t>(F[in.s0]));
        break;
      case SimOp::F32ToF64: F[in.dst] = f32(in.s0); break;
      case SimOp::F64ToF32:
        set_f32(in.dst, static_cast<float>(F[in.s0]));
        break;
      case SimOp::I64ToF64S: F[in.dst] = static_cast<double>(I[in.s0]); break;
      case SimOp::F64ToI64S: I[in.dst] = static_cast<int64_t>(F[in.s0]); break;

      // --- memory: bounds-checked, width fixed by the op ---------------------
#define SVC_SIM_LOAD(Op, T, write)                  \
  case SimOp::Op: {                                 \
    uint32_t a32 = 0;                               \
    if (!address(in, sizeof(T), a32)) {             \
      trap = TrapKind::OutOfBoundsMemory;           \
      goto out;                                     \
    }                                               \
    st.loads += 1;                                  \
    const T v = load_as<T>(mem, a32);               \
    write;                                          \
    break;                                          \
  }
      SVC_SIM_LOAD(LoadI8U, uint8_t, set_i32(in.dst, v))
      SVC_SIM_LOAD(LoadI8S, uint8_t, set_i32(in.dst, static_cast<int8_t>(v)))
      SVC_SIM_LOAD(LoadI16U, uint16_t, set_i32(in.dst, v))
      SVC_SIM_LOAD(LoadI16S, uint16_t, set_i32(in.dst, static_cast<int16_t>(v)))
      SVC_SIM_LOAD(LoadI32, uint32_t, set_i32(in.dst, static_cast<int32_t>(v)))
      SVC_SIM_LOAD(LoadI64, uint64_t, I[in.dst] = static_cast<int64_t>(v))
      SVC_SIM_LOAD(LoadF32, uint32_t, set_f32(in.dst, std::bit_cast<float>(v)))
      SVC_SIM_LOAD(LoadF64, uint64_t, F[in.dst] = std::bit_cast<double>(v))
      SVC_SIM_LOAD(LoadV128, V128, V[in.dst] = v)
#undef SVC_SIM_LOAD
#define SVC_SIM_STORE(Op, T, value)                 \
  case SimOp::Op: {                                 \
    uint32_t a32 = 0;                               \
    if (!address(in, sizeof(T), a32)) {             \
      trap = TrapKind::OutOfBoundsMemory;           \
      goto out;                                     \
    }                                               \
    st.stores += 1;                                 \
    store_as<T>(mem, a32, value);                   \
    break;                                          \
  }
      SVC_SIM_STORE(StoreI8, uint8_t, static_cast<uint8_t>(i32(in.s1)))
      SVC_SIM_STORE(StoreI16, uint16_t, static_cast<uint16_t>(i32(in.s1)))
      SVC_SIM_STORE(StoreI32, uint32_t, u32(in.s1))
      SVC_SIM_STORE(StoreI64, uint64_t, static_cast<uint64_t>(I[in.s1]))
      SVC_SIM_STORE(StoreF32, uint32_t, std::bit_cast<uint32_t>(f32(in.s1)))
      SVC_SIM_STORE(StoreF64, uint64_t, std::bit_cast<uint64_t>(F[in.s1]))
      SVC_SIM_STORE(StoreV128, V128, V[in.s1])
#undef SVC_SIM_STORE

      // --- vector ops (semantics shared with the interpreter) ----------------
      case SimOp::VZero: V[in.dst] = V128{}; break;
      case SimOp::VSplatI8:
        V[in.dst] = V128::splat_u8(static_cast<uint8_t>(i32(in.s0)));
        break;
      case SimOp::VSplatI16:
        V[in.dst] = V128::splat_u16(static_cast<uint16_t>(i32(in.s0)));
        break;
      case SimOp::VSplatI32: V[in.dst] = V128::splat_u32(u32(in.s0)); break;
      case SimOp::VSplatF32: V[in.dst] = V128::splat_f32(f32(in.s0)); break;

#define SVC_SIM_LANEWISE(Op, lanes, get, set, T, expr) \
  case SimOp::Op: {                                    \
    const V128& va = V[in.s0];                         \
    const V128& vb = V[in.s1];                         \
    V128 r;                                            \
    for (size_t i = 0; i < (lanes); ++i) {             \
      const T x = va.get(i), y = vb.get(i);            \
      r.set(i, static_cast<T>(expr));                  \
    }                                                  \
    V[in.dst] = r;                                     \
    break;                                             \
  }
      SVC_SIM_LANEWISE(VAddI8, 16, u8, set_u8, uint8_t, x + y)
      SVC_SIM_LANEWISE(VSubI8, 16, u8, set_u8, uint8_t, x - y)
      SVC_SIM_LANEWISE(VMinU8, 16, u8, set_u8, uint8_t, std::min(x, y))
      SVC_SIM_LANEWISE(VMaxU8, 16, u8, set_u8, uint8_t, std::max(x, y))
      SVC_SIM_LANEWISE(VAddI16, 8, u16, set_u16, uint16_t, x + y)
      SVC_SIM_LANEWISE(VSubI16, 8, u16, set_u16, uint16_t, x - y)
      SVC_SIM_LANEWISE(VMinU16, 8, u16, set_u16, uint16_t, std::min(x, y))
      SVC_SIM_LANEWISE(VMaxU16, 8, u16, set_u16, uint16_t, std::max(x, y))
      SVC_SIM_LANEWISE(VAddI32, 4, u32, set_u32, uint32_t, x + y)
      SVC_SIM_LANEWISE(VSubI32, 4, u32, set_u32, uint32_t, x - y)
      SVC_SIM_LANEWISE(VMulI32, 4, u32, set_u32, uint32_t, x * y)
      SVC_SIM_LANEWISE(VMinSI32, 4, u32, set_u32, uint32_t,
                       std::min<int32_t>(x, y))
      SVC_SIM_LANEWISE(VMaxSI32, 4, u32, set_u32, uint32_t,
                       std::max<int32_t>(x, y))
      SVC_SIM_LANEWISE(VAddF32, 4, f32, set_f32, float, x + y)
      SVC_SIM_LANEWISE(VSubF32, 4, f32, set_f32, float, x - y)
      SVC_SIM_LANEWISE(VMulF32, 4, f32, set_f32, float, x * y)
      SVC_SIM_LANEWISE(VDivF32, 4, f32, set_f32, float, x / y)
      SVC_SIM_LANEWISE(VMinF32, 4, f32, set_f32, float, std::fmin(x, y))
      SVC_SIM_LANEWISE(VMaxF32, 4, f32, set_f32, float, std::fmax(x, y))
      SVC_SIM_LANEWISE(VAnd, 16, u8, set_u8, uint8_t, x & y)
      SVC_SIM_LANEWISE(VOr, 16, u8, set_u8, uint8_t, x | y)
      SVC_SIM_LANEWISE(VXor, 16, u8, set_u8, uint8_t, x ^ y)
#undef SVC_SIM_LANEWISE

      case SimOp::VRSumU8: {
        const V128& a = V[in.s0];
        int32_t s = 0;
        for (size_t i = 0; i < 16; ++i) s += a.u8(i);
        set_i32(in.dst, s);
        break;
      }
      case SimOp::VRSumU16: {
        const V128& a = V[in.s0];
        int32_t s = 0;
        for (size_t i = 0; i < 8; ++i) s += a.u16(i);
        set_i32(in.dst, s);
        break;
      }
      case SimOp::VRSumI32: {
        const V128& a = V[in.s0];
        uint32_t s = 0;
        for (size_t i = 0; i < 4; ++i) s += a.u32(i);
        set_i32(in.dst, static_cast<int32_t>(s));
        break;
      }
      case SimOp::VRSumF32: {
        const V128& a = V[in.s0];
        set_f32(in.dst, (a.f32(0) + a.f32(1)) + (a.f32(2) + a.f32(3)));
        break;
      }
      case SimOp::VRMaxU8: {
        const V128& a = V[in.s0];
        uint8_t m = 0;
        for (size_t i = 0; i < 16; ++i) m = std::max(m, a.u8(i));
        set_i32(in.dst, m);
        break;
      }
      case SimOp::VRMinU8: {
        const V128& a = V[in.s0];
        uint8_t m = 0xff;
        for (size_t i = 0; i < 16; ++i) m = std::min(m, a.u8(i));
        set_i32(in.dst, m);
        break;
      }
      case SimOp::VRMaxU16: {
        const V128& a = V[in.s0];
        uint16_t m = 0;
        for (size_t i = 0; i < 8; ++i) m = std::max(m, a.u16(i));
        set_i32(in.dst, m);
        break;
      }
      case SimOp::VRMaxSI32: {
        const V128& a = V[in.s0];
        int32_t m = std::numeric_limits<int32_t>::min();
        for (size_t i = 0; i < 4; ++i) {
          m = std::max(m, static_cast<int32_t>(a.u32(i)));
        }
        set_i32(in.dst, m);
        break;
      }
      case SimOp::VRMaxF32: {
        const V128& a = V[in.s0];
        float m = a.f32(0);
        for (size_t i = 1; i < 4; ++i) m = std::fmax(m, a.f32(i));
        set_f32(in.dst, m);
        break;
      }
      case SimOp::VRMinF32: {
        const V128& a = V[in.s0];
        float m = a.f32(0);
        for (size_t i = 1; i < 4; ++i) m = std::fmin(m, a.f32(i));
        set_f32(in.dst, m);
        break;
      }
      case SimOp::VExtractU8: set_i32(in.dst, V[in.s0].u8(in.s2)); break;
      case SimOp::VExtractU16: set_i32(in.dst, V[in.s0].u16(in.s2)); break;
      case SimOp::VExtractI32:
        set_i32(in.dst, static_cast<int32_t>(V[in.s0].u32(in.s2)));
        break;
      case SimOp::VExtractF32: set_f32(in.dst, V[in.s0].f32(in.s2)); break;
      case SimOp::VInsertI8: {
        V128 r = V[in.s0];
        r.set_u8(in.s2, static_cast<uint8_t>(i32(in.s1)));
        V[in.dst] = r;
        break;
      }
      case SimOp::VInsertI16: {
        V128 r = V[in.s0];
        r.set_u16(in.s2, static_cast<uint16_t>(i32(in.s1)));
        V[in.dst] = r;
        break;
      }
      case SimOp::VInsertI32: {
        V128 r = V[in.s0];
        r.set_u32(in.s2, u32(in.s1));
        V[in.dst] = r;
        break;
      }
      case SimOp::VInsertF32: {
        V128 r = V[in.s0];
        r.set_f32(in.s2, f32(in.s1));
        V[in.dst] = r;
        break;
      }

      // --- control -----------------------------------------------------------
      case SimOp::Jump:
        st.branches += 1;
        st.taken_branches += in.taken;
        pc = code + in.s0;
        goto enter;
      case SimOp::BranchIf:
        pc = branch(in, i32(in.s0) != 0);
        goto enter;
#define SVC_SIM_CMP_BRANCH(Op, expr) \
  case SimOp::Op##Br: {              \
    const bool holds = (expr);       \
    set_i32(in.dst, holds);          \
    pc = branch(*pc, holds);         \
    goto enter;                      \
  }
      SVC_SIM_CMP_BRANCH(EqzI32, i32(in.s0) == 0)
      SVC_SIM_CMP_BRANCH(EqI32, i32(in.s0) == i32(in.s1))
      SVC_SIM_CMP_BRANCH(NeI32, i32(in.s0) != i32(in.s1))
      SVC_SIM_CMP_BRANCH(LtSI32, i32(in.s0) < i32(in.s1))
      SVC_SIM_CMP_BRANCH(LtUI32, u32(in.s0) < u32(in.s1))
      SVC_SIM_CMP_BRANCH(LeSI32, i32(in.s0) <= i32(in.s1))
      SVC_SIM_CMP_BRANCH(LeUI32, u32(in.s0) <= u32(in.s1))
      SVC_SIM_CMP_BRANCH(GtSI32, i32(in.s0) > i32(in.s1))
      SVC_SIM_CMP_BRANCH(GtUI32, u32(in.s0) > u32(in.s1))
      SVC_SIM_CMP_BRANCH(GeSI32, i32(in.s0) >= i32(in.s1))
      SVC_SIM_CMP_BRANCH(GeUI32, u32(in.s0) >= u32(in.s1))
#undef SVC_SIM_CMP_BRANCH
      case SimOp::Call: {
        st.calls += 1;
        if (depth == kMaxCallDepth) {
          trap = TrapKind::CallStackOverflow;
          goto out;
        }
        const SimCall& call = fn->calls[in.s0];
        const SimFunction& callee = function(call.callee);
        // Save/restore traffic approximation.
        st.cycles += 2 * static_cast<uint64_t>(call.num_args);
        returns[depth++] = {frame, pc, &call};
        const Frame caller = frame;
        for (size_t c = 0; c < kNumRegClasses; ++c) {
          frame.base[c] = caller.base[c] + caller.fn->frame[c];
        }
        open_frame(state, callee, call.callee, frame);
        // Arguments live in the caller's frame, which may have moved.
        const int64_t* cI = state.ints.data() + caller.base[0];
        const double* cF = state.flts.data() + caller.base[1];
        const V128* cV = state.vecs.data() + caller.base[2];
        bind();
        const size_t n = std::min<size_t>(call.num_args, callee.params.size());
        for (size_t i = 0; i < n; ++i) {
          const SimArg& arg = fn->args[call.first_arg + i];
          const uint32_t to = callee.params[i][cls_index(arg.cls)];
          if (to == kNoLoc) {
            fatal("simulator: argument class does not fit its parameter");
          }
          switch (arg.cls) {
            case RegClass::Int: I[to] = cI[arg.loc]; break;
            case RegClass::Flt: F[to] = cF[arg.loc]; break;
            case RegClass::Vec: V[to] = cV[arg.loc]; break;
          }
        }
        fn = &callee;
        code = fn->code.data();
        pc = code;
        goto enter;
      }
      case SimOp::Ret: {
        const Type type = fn->ret_type;
        const Value ret = read_value(I, F, V, in.s0, type);
        if (depth == 0) {
          if (type != Type::Void) ret_out = ret;
          goto out;
        }
        const Return& back = returns[--depth];
        frame = back.frame;
        fn = frame.fn;
        code = fn->code.data();
        pc = back.pc;
        bind();
        if (type != Type::Void && back.call->has_result) {
          const uint32_t to = back.call->result[cls_index(reg_class_for(type))];
          if (to == kNoLoc) {
            fatal("simulator: call result class does not fit its register");
          }
          write_value(I, F, V, to, ret);
        }
        goto enter;
      }
      case SimOp::Trap:
        trap = TrapKind::ExplicitTrap;
        goto out;
      case SimOp::OutOfSteps:
        trap = TrapKind::StepBudgetExceeded;
        goto out;
      case SimOp::Nop:
        break;
      default:
        fatal("simulator: op " + std::to_string(static_cast<int>(in.op)) +
              " was never decoded");
    }
  }
out:
  switch (trap) {
    case TrapKind::DivideByZero:
    case TrapKind::IntegerOverflow:
    case TrapKind::OutOfBoundsMemory:
      // Its run was charged whole on entry: give back the instructions
      // after the one that trapped. (Every other trap, and a return,
      // happens at the last instruction of a run.)
      for (const SimInst* rest = pc; rest < run_end; ++rest) {
        st.instructions -= 1;
        st.cycles -= rest->cost;
      }
      break;
    default:
      break;
  }
  stats_out = st;
  return trap;
}

}  // namespace svc
