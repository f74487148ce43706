// Cycle-approximate simulator for JIT-compiled machine code. This is the
// measurement substrate replacing the paper's physical x86/UltraSparc/
// PowerPC hosts (DESIGN.md S2).
//
// Timing model (deterministic):
//   cycles += desc.cost(op) for every executed instruction
//   + load_use_penalty when an instruction consumes the result of the
//     immediately preceding load;
//   + taken_branch_penalty when control transfers anywhere but the
//     fall-through block (blocks are laid out in emission order);
//   + mispredict_penalty when the 2-bit saturating per-site predictor
//     gets a conditional branch wrong.
//
// Execution runs on a decoded form, never on MInsts: decode_function()
// lowers one MFunction against its MachineDesc into a flat instruction
// stream with the op cost, load-use stall, branch penalties, block
// targets, operand frame locations and branch-site numbers resolved,
// fuses each i32 compare into the branch that tests it, sums every
// straight-line run's instructions and cycles so the loop counts them
// once per run, and checks the function's structure once
// (docs/SIMULATOR.md). OnlineTarget decodes at every install -- tier 1,
// tier 2, eager load -- and runs its decoded image; the MFunction-span
// constructor decodes each function the first time a run enters it.
//
// Functional semantics match the reference interpreter bit-for-bit; the
// differential test suite enforces this on random programs, and
// tests/simulator_test.cpp pins every SimStats counter.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "targets/machine.h"
#include "vm/interpreter.h"  // TrapKind
#include "vm/memory.h"

namespace svc {

struct SimStats {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t spill_loads = 0;
  uint64_t spill_stores = 0;
  uint64_t branches = 0;
  uint64_t mispredicts = 0;
  uint64_t taken_branches = 0;
  uint64_t calls = 0;
};

struct SimResult {
  Value value;  // return value (Void -> default)
  TrapKind trap = TrapKind::None;
  SimStats stats;
  // True when the tiered runtime served this call from the tier-0
  // interpreter (cycles then follow the deterministic interpreter cost
  // model, see online_compiler.h) instead of JITed code.
  bool interpreted = false;
  // Which tier of the runtime answered: 0 = interpreter, 1 = fast JIT,
  // 2 = profile-guided optimizing recompile. Results are bit-identical
  // across tiers; only timing/codegen may differ.
  uint8_t tier = 1;

  [[nodiscard]] bool ok() const { return trap == TrapKind::None; }
};

/// One MFunction in decoded, execution-ready form (defined in
/// simulator.cpp). Immutable and self-contained: it depends on neither
/// its MFunction nor its MachineDesc after decoding, so one decoded
/// function is shared by every run, thread and code image holding it.
struct SimFunction;
using SimFunctionPtr = std::shared_ptr<const SimFunction>;

/// Decodes `fn` for `desc`. `num_functions` bounds its callee indices.
/// Malformed code -- an unknown op, a block without a terminator, or a
/// register, slot, branch target, callee, call site or lane out of range
/// -- is a JIT bug and fatal here, before anything runs.
[[nodiscard]] SimFunctionPtr decode_function(const MachineDesc& desc,
                                             const MFunction& fn,
                                             size_t num_functions);

/// Executes machine code for one target. The branch predictor's state
/// spans every call of one run and is reset by each `run`.
class Simulator {
 public:
  /// Runs raw machine code, decoding each function the first time a run
  /// enters it; decoded functions are kept for this simulator's lifetime.
  Simulator(const MachineDesc& desc, std::span<const MFunction> functions,
            Memory& memory);

  /// Runs an already decoded image (decode_function() per entry). Every
  /// function a run can reach must be decoded.
  Simulator(std::span<const SimFunctionPtr> image, Memory& memory);

  void set_step_budget(uint64_t steps) { step_budget_ = steps; }

  [[nodiscard]] SimResult run(uint32_t func_idx, std::span<const Value> args);

 private:
  [[nodiscard]] size_t num_functions() const;
  [[nodiscard]] const SimFunction& function(uint32_t func_idx);
  [[nodiscard]] TrapKind execute(uint32_t func_idx,
                                 std::span<const Value> args, Value& ret,
                                 SimStats& stats);

  const MachineDesc* desc_ = nullptr;  // set when decoding lazily
  std::span<const MFunction> source_;
  std::vector<SimFunctionPtr> decoded_;
  std::span<const SimFunctionPtr> image_;
  Memory& memory_;
  uint64_t step_budget_ = uint64_t{1} << 32;
};

}  // namespace svc
