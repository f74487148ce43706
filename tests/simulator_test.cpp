// Golden SimStats: the simulator's timing model pinned counter for
// counter. Every row below was captured from the original per-MInst
// simulator loop; the decoded simulator (docs/SIMULATOR.md) must
// reproduce all ten counters bit for bit, on trapping runs too. A
// mismatch prints the row as it now reads, in source form, so an
// *intended* timing-model change can update the table in one paste.
//
// Coverage: the eight serving kernels plus saxpy and dscal at two sizes,
// a function that spills, a call-heavy program (predictor state shared
// across frames, save/restore cycles), and four traps -- divide by zero,
// an out-of-bounds load, an exhausted step budget and call depth 129 --
// on all four targets. The same rows hold through OnlineTarget, which
// runs its installed, pre-decoded image.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "driver/kernels.h"
#include "driver/offline_compiler.h"
#include "driver/online_compiler.h"
#include "test_util.h"

using namespace svc;
using namespace svc::testing;

namespace {

struct Golden {
  const char* name;
  // cycles, instructions, loads, stores, spill_loads, spill_stores,
  // branches, mispredicts, taken_branches, calls
  std::array<uint64_t, 10> stats;
  TrapKind trap;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"calls/ppcsim", {18307, 8110, 600, 0, 0, 0, 1059, 222, 646, 887}, TrapKind::None},
    {"calls/sparcsim", {22503, 9114, 600, 0, 402, 402, 1059, 222, 646, 887}, TrapKind::None},
    {"calls/spusim", {24071, 8110, 600, 0, 0, 0, 1059, 222, 646, 887}, TrapKind::None},
    {"calls/x86sim", {20905, 8310, 600, 0, 0, 0, 1059, 222, 646, 887}, TrapKind::None},
    {"count_runs/ppcsim/n1000", {19886, 11204, 1000, 0, 0, 0, 4722, 743, 2967, 0}, TrapKind::None},
    {"count_runs/ppcsim/n61", {1262, 705, 61, 0, 0, 0, 295, 50, 185, 0}, TrapKind::None},
    {"count_runs/sparcsim/n1000", {27143, 12204, 1000, 0, 1000, 0, 4722, 743, 2967, 0}, TrapKind::None},
    {"count_runs/sparcsim/n61", {1700, 766, 61, 0, 61, 0, 295, 50, 185, 0}, TrapKind::None},
    {"count_runs/spusim/n1000", {38749, 11204, 1000, 0, 0, 0, 4722, 743, 2967, 0}, TrapKind::None},
    {"count_runs/spusim/n61", {2481, 705, 61, 0, 0, 0, 295, 50, 185, 0}, TrapKind::None},
    {"count_runs/x86sim/n1000", {26573, 11204, 1000, 0, 0, 0, 4722, 743, 2967, 0}, TrapKind::None},
    {"count_runs/x86sim/n61", {1712, 705, 61, 0, 0, 0, 295, 50, 185, 0}, TrapKind::None},
    {"depth128/ppcsim", {1930, 1157, 0, 0, 0, 0, 129, 1, 128, 128}, TrapKind::None},
    {"depth128/sparcsim", {1929, 1157, 0, 0, 0, 0, 129, 1, 128, 128}, TrapKind::None},
    {"depth128/spusim", {2327, 1157, 0, 0, 0, 0, 129, 1, 128, 128}, TrapKind::None},
    {"depth128/x86sim", {1939, 1157, 0, 0, 0, 0, 129, 1, 128, 128}, TrapKind::None},
    {"depth129/ppcsim", {1546, 774, 0, 0, 0, 0, 129, 0, 129, 129}, TrapKind::CallStackOverflow},
    {"depth129/sparcsim", {1546, 774, 0, 0, 0, 0, 129, 0, 129, 129}, TrapKind::CallStackOverflow},
    {"depth129/spusim", {1804, 774, 0, 0, 0, 0, 129, 0, 129, 129}, TrapKind::CallStackOverflow},
    {"depth129/x86sim", {1546, 774, 0, 0, 0, 0, 129, 0, 129, 129}, TrapKind::CallStackOverflow},
    {"divide_by_zero/ppcsim", {200, 51, 0, 0, 0, 0, 14, 2, 6, 0}, TrapKind::DivideByZero},
    {"divide_by_zero/sparcsim", {198, 51, 0, 0, 0, 0, 14, 2, 6, 0}, TrapKind::DivideByZero},
    {"divide_by_zero/spusim", {251, 51, 0, 0, 0, 0, 14, 2, 6, 0}, TrapKind::DivideByZero},
    {"divide_by_zero/x86sim", {218, 51, 0, 0, 0, 0, 14, 2, 6, 0}, TrapKind::DivideByZero},
    {"dscal/ppcsim/n1000", {8308, 5020, 1000, 1000, 0, 0, 505, 3, 254, 0}, TrapKind::None},
    {"dscal/ppcsim/n61", {574, 331, 61, 61, 0, 0, 37, 4, 20, 0}, TrapKind::None},
    {"dscal/sparcsim/n1000", {18090, 6777, 1000, 1000, 1506, 251, 505, 3, 254, 0}, TrapKind::None},
    {"dscal/sparcsim/n61", {1234, 451, 61, 61, 103, 17, 37, 4, 20, 0}, TrapKind::None},
    {"dscal/spusim/n1000", {5853, 2770, 250, 250, 0, 0, 505, 3, 254, 0}, TrapKind::None},
    {"dscal/spusim/n61", {490, 196, 16, 16, 0, 0, 37, 4, 20, 0}, TrapKind::None},
    {"dscal/x86sim/n1000", {4835, 2770, 250, 250, 0, 0, 505, 3, 254, 0}, TrapKind::None},
    {"dscal/x86sim/n61", {401, 196, 16, 16, 0, 0, 37, 4, 20, 0}, TrapKind::None},
    {"energy/ppcsim/n1000", {12324, 6028, 2000, 0, 0, 0, 505, 3, 254, 0}, TrapKind::None},
    {"energy/ppcsim/n61", {832, 399, 122, 0, 0, 0, 37, 4, 20, 0}, TrapKind::None},
    {"energy/sparcsim/n1000", {22106, 7785, 2000, 0, 1506, 251, 505, 3, 254, 0}, TrapKind::None},
    {"energy/sparcsim/n61", {1494, 520, 122, 0, 103, 17, 37, 4, 20, 0}, TrapKind::None},
    {"energy/spusim/n1000", {6613, 3023, 500, 0, 0, 0, 505, 3, 254, 0}, TrapKind::None},
    {"energy/spusim/n61", {546, 214, 32, 0, 0, 0, 37, 4, 20, 0}, TrapKind::None},
    {"energy/x86sim/n1000", {5845, 3023, 500, 0, 0, 0, 505, 3, 254, 0}, TrapKind::None},
    {"energy/x86sim/n61", {475, 215, 32, 0, 0, 0, 37, 4, 20, 0}, TrapKind::None},
    {"fir4/ppcsim/n1000", {17061, 8773, 2000, 1000, 0, 0, 505, 3, 254, 0}, TrapKind::None},
    {"fir4/ppcsim/n61", {1111, 564, 122, 61, 0, 0, 37, 4, 20, 0}, TrapKind::None},
    {"fir4/sparcsim/n1000", {34358, 12035, 2000, 1000, 3006, 256, 505, 3, 254, 0}, TrapKind::None},
    {"fir4/sparcsim/n61", {2274, 787, 122, 61, 200, 22, 37, 4, 20, 0}, TrapKind::None},
    {"fir4/spusim/n1000", {9606, 4273, 500, 250, 0, 0, 505, 3, 254, 0}, TrapKind::None},
    {"fir4/spusim/n61", {729, 294, 32, 16, 0, 0, 37, 4, 20, 0}, TrapKind::None},
    {"fir4/x86sim/n1000", {15106, 6781, 500, 250, 2256, 252, 505, 3, 254, 0}, TrapKind::None},
    {"fir4/x86sim/n61", {1079, 464, 32, 16, 151, 18, 37, 4, 20, 0}, TrapKind::None},
    {"max_u8/ppcsim/n1000", {7227, 4182, 1000, 0, 1005, 775, 145, 6, 74, 0}, TrapKind::None},
    {"max_u8/ppcsim/n61", {882, 486, 61, 0, 155, 77, 37, 6, 20, 0}, TrapKind::None},
    {"max_u8/sparcsim/n1000", {20042, 5824, 1000, 0, 1895, 1527, 145, 6, 74, 0}, TrapKind::None},
    {"max_u8/sparcsim/n61", {2012, 594, 61, 0, 219, 121, 37, 6, 20, 0}, TrapKind::None},
    {"max_u8/spusim/n1000", {1226, 510, 70, 0, 0, 0, 145, 6, 74, 0}, TrapKind::None},
    {"max_u8/spusim/n61", {426, 132, 16, 0, 0, 0, 37, 6, 20, 0}, TrapKind::None},
    {"max_u8/x86sim/n1000", {892, 510, 70, 0, 0, 0, 145, 6, 74, 0}, TrapKind::None},
    {"max_u8/x86sim/n61", {293, 132, 16, 0, 0, 0, 37, 6, 20, 0}, TrapKind::None},
    {"max_u8_branchy/ppcsim/n1000", {12051, 8015, 1000, 0, 0, 0, 3006, 7, 2001, 0}, TrapKind::None},
    {"max_u8_branchy/ppcsim/n61", {776, 501, 61, 0, 0, 0, 188, 6, 123, 0}, TrapKind::None},
    {"max_u8_branchy/sparcsim/n1000", {14044, 8015, 1000, 0, 0, 0, 3006, 7, 2001, 0}, TrapKind::None},
    {"max_u8_branchy/sparcsim/n61", {892, 501, 61, 0, 0, 0, 188, 6, 123, 0}, TrapKind::None},
    {"max_u8_branchy/spusim/n1000", {20143, 8015, 1000, 0, 0, 0, 3006, 7, 2001, 0}, TrapKind::None},
    {"max_u8_branchy/spusim/n61", {1343, 501, 61, 0, 0, 0, 188, 6, 123, 0}, TrapKind::None},
    {"max_u8_branchy/x86sim/n1000", {12114, 8015, 1000, 0, 0, 0, 3006, 7, 2001, 0}, TrapKind::None},
    {"max_u8_branchy/x86sim/n61", {830, 501, 61, 0, 0, 0, 188, 6, 123, 0}, TrapKind::None},
    {"out_of_bounds/ppcsim", {129, 78, 16, 0, 0, 0, 11, 2, 5, 0}, TrapKind::OutOfBoundsMemory},
    {"out_of_bounds/sparcsim", {340, 122, 16, 0, 31, 13, 11, 2, 5, 0}, TrapKind::OutOfBoundsMemory},
    {"out_of_bounds/spusim", {149, 51, 4, 0, 0, 0, 11, 2, 5, 0}, TrapKind::OutOfBoundsMemory},
    {"out_of_bounds/x86sim", {117, 51, 4, 0, 0, 0, 11, 2, 5, 0}, TrapKind::OutOfBoundsMemory},
    {"pressure16/ppcsim", {49, 32, 16, 0, 0, 0, 0, 0, 0, 0}, TrapKind::None},
    {"pressure16/sparcsim", {127, 46, 16, 0, 7, 7, 0, 0, 0, 0}, TrapKind::None},
    {"pressure16/spusim", {66, 32, 16, 0, 0, 0, 0, 0, 0, 0}, TrapKind::None},
    {"pressure16/x86sim", {64, 38, 16, 0, 3, 3, 0, 0, 0, 0}, TrapKind::None},
    {"saxpy/ppcsim/n1000", {13809, 7521, 2000, 1000, 0, 0, 505, 3, 254, 0}, TrapKind::None},
    {"saxpy/ppcsim/n61", {910, 485, 122, 61, 0, 0, 37, 4, 20, 0}, TrapKind::None},
    {"saxpy/sparcsim/n1000", {29600, 10531, 2000, 1000, 2756, 254, 505, 3, 254, 0}, TrapKind::None},
    {"saxpy/sparcsim/n61", {1967, 689, 122, 61, 183, 20, 37, 4, 20, 0}, TrapKind::None},
    {"saxpy/spusim/n1000", {8604, 3771, 500, 250, 0, 0, 505, 3, 254, 0}, TrapKind::None},
    {"saxpy/spusim/n61", {662, 260, 32, 16, 0, 0, 37, 4, 20, 0}, TrapKind::None},
    {"saxpy/x86sim/n1000", {9345, 4524, 500, 250, 753, 0, 505, 3, 254, 0}, TrapKind::None},
    {"saxpy/x86sim/n61", {701, 313, 32, 16, 52, 0, 37, 4, 20, 0}, TrapKind::None},
    {"step_budget/ppcsim", {1077, 777, 216, 0, 0, 0, 111, 2, 55, 0}, TrapKind::StepBudgetExceeded},
    {"step_budget/sparcsim", {2094, 777, 136, 0, 209, 73, 71, 2, 35, 0}, TrapKind::StepBudgetExceeded},
    {"step_budget/spusim", {1692, 777, 95, 0, 0, 0, 193, 2, 96, 0}, TrapKind::StepBudgetExceeded},
    {"step_budget/x86sim", {1205, 777, 95, 0, 0, 0, 193, 2, 96, 0}, TrapKind::StepBudgetExceeded},
    {"sum_u16/ppcsim/n1000", {4057, 2894, 1000, 0, 0, 0, 255, 3, 129, 0}, TrapKind::None},
    {"sum_u16/ppcsim/n61", {351, 220, 61, 0, 0, 0, 29, 6, 16, 0}, TrapKind::None},
    {"sum_u16/sparcsim/n1000", {10611, 4032, 1000, 0, 883, 255, 255, 3, 129, 0}, TrapKind::None},
    {"sum_u16/sparcsim/n61", {1006, 346, 61, 0, 97, 29, 29, 6, 16, 0}, TrapKind::None},
    {"sum_u16/spusim/n1000", {2852, 1144, 125, 0, 0, 0, 255, 3, 129, 0}, TrapKind::None},
    {"sum_u16/spusim/n61", {410, 122, 12, 0, 0, 0, 29, 6, 16, 0}, TrapKind::None},
    {"sum_u16/x86sim/n1000", {2334, 1144, 125, 0, 0, 0, 255, 3, 129, 0}, TrapKind::None},
    {"sum_u16/x86sim/n61", {307, 122, 12, 0, 0, 0, 29, 6, 16, 0}, TrapKind::None},
    {"sum_u8/ppcsim/n1000", {3561, 2430, 1000, 0, 0, 0, 145, 6, 74, 0}, TrapKind::None},
    {"sum_u8/ppcsim/n61", {366, 223, 61, 0, 0, 0, 37, 6, 20, 0}, TrapKind::None},
    {"sum_u8/sparcsim/n1000", {12318, 3941, 1000, 0, 932, 579, 145, 6, 74, 0}, TrapKind::None},
    {"sum_u8/sparcsim/n61", {1368, 422, 61, 0, 141, 58, 37, 6, 20, 0}, TrapKind::None},
    {"sum_u8/spusim/n1000", {1477, 570, 70, 0, 0, 0, 145, 6, 74, 0}, TrapKind::None},
    {"sum_u8/spusim/n61", {446, 133, 16, 0, 0, 0, 37, 6, 20, 0}, TrapKind::None},
    {"sum_u8/x86sim/n1000", {1197, 570, 70, 0, 0, 0, 145, 6, 74, 0}, TrapKind::None},
    {"sum_u8/x86sim/n61", {303, 133, 16, 0, 0, 0, 37, 6, 20, 0}, TrapKind::None},
    {"vecadd/ppcsim/n1000", {10808, 6520, 2000, 1000, 0, 0, 505, 3, 254, 0}, TrapKind::None},
    {"vecadd/ppcsim/n61", {728, 424, 122, 61, 0, 0, 37, 4, 20, 0}, TrapKind::None},
    {"vecadd/sparcsim/n1000", {26599, 9530, 2000, 1000, 2756, 254, 505, 3, 254, 0}, TrapKind::None},
    {"vecadd/sparcsim/n61", {1781, 627, 122, 61, 183, 20, 37, 4, 20, 0}, TrapKind::None},
    {"vecadd/spusim/n1000", {7353, 3520, 500, 250, 0, 0, 505, 3, 254, 0}, TrapKind::None},
    {"vecadd/spusim/n61", {586, 244, 32, 16, 0, 0, 37, 4, 20, 0}, TrapKind::None},
    {"vecadd/x86sim/n1000", {8094, 4273, 500, 250, 753, 0, 505, 3, 254, 0}, TrapKind::None},
    {"vecadd/x86sim/n61", {620, 296, 32, 16, 52, 0, 37, 4, 20, 0}, TrapKind::None},
};
// clang-format on

std::array<uint64_t, 10> counters(const SimStats& s) {
  return {s.cycles,      s.instructions, s.loads,    s.stores,
          s.spill_loads, s.spill_stores, s.branches, s.mispredicts,
          s.taken_branches, s.calls};
}

const Golden* find_golden(const std::string& name) {
  for (const Golden& g : kGolden) {
    if (name == g.name) return &g;
  }
  return nullptr;
}

std::string source_row(const std::string& name, const SimResult& r) {
  std::string row = "    {\"" + name + "\", {";
  const auto c = counters(r.stats);
  for (size_t i = 0; i < c.size(); ++i) {
    row += (i ? ", " : "") + std::to_string(c[i]);
  }
  row += "}, TrapKind::";
  switch (r.trap) {
    case TrapKind::None: row += "None"; break;
    case TrapKind::OutOfBoundsMemory: row += "OutOfBoundsMemory"; break;
    case TrapKind::DivideByZero: row += "DivideByZero"; break;
    case TrapKind::IntegerOverflow: row += "IntegerOverflow"; break;
    case TrapKind::CallStackOverflow: row += "CallStackOverflow"; break;
    case TrapKind::StepBudgetExceeded: row += "StepBudgetExceeded"; break;
    case TrapKind::ExplicitTrap: row += "ExplicitTrap"; break;
  }
  return row + "},";
}

void expect_golden(const std::string& name, const SimResult& r) {
  const Golden* g = find_golden(name);
  if (g == nullptr) {
    ADD_FAILURE() << "no golden row for " << name << ":\n"
                  << source_row(name, r);
    return;
  }
  EXPECT_EQ(g->stats, counters(r.stats))
      << name << " now reads:\n" << source_row(name, r);
  EXPECT_EQ(g->trap, r.trap) << name;
}

// --- workloads ---------------------------------------------------------------

constexpr uint32_t kMemBytes = 1 << 20;
constexpr uint32_t kU8 = 0x1000;     // 8192 random bytes
constexpr uint32_t kU16 = 0x4000;    // 4096 random u16
constexpr uint32_t kF32A = 0x8000;   // 4096 f32 in [-1, 1) each
constexpr uint32_t kF32B = 0xC000;
constexpr uint32_t kF32X = 0x10000;
constexpr uint32_t kOut = 0x20000;

void fill_memory(Memory& mem) {
  Rng rng(20100613);
  for (uint32_t i = 0; i < 8192; ++i) {
    mem.store_u8(kU8 + i, static_cast<uint8_t>(rng.next_u32()));
  }
  for (uint32_t i = 0; i < 4096; ++i) {
    mem.store_u16(kU16 + 2 * i, static_cast<uint16_t>(rng.next_u32()));
    mem.write_f32(kF32A + 4 * i, 2.0f * rng.next_f32() - 1.0f);
    mem.write_f32(kF32B + 4 * i, 2.0f * rng.next_f32() - 1.0f);
    mem.write_f32(kF32X + 4 * i, 2.0f * rng.next_f32() - 1.0f);
  }
}

Value i32(uint32_t v) { return Value::make_i32(static_cast<int32_t>(v)); }

struct KernelCase {
  std::string_view fn;
  std::function<std::vector<Value>(uint32_t n)> args;
};

std::string_view kernel_source(std::string_view fn) {
  for (const KernelInfo& k : table1_kernels()) {
    if (k.fn_name == fn) return k.source;
  }
  if (branchy_max_kernel().fn_name == fn) return branchy_max_kernel().source;
  if (control_kernel().fn_name == fn) return control_kernel().source;
  return fir_source();
}

const std::vector<KernelCase>& kernel_cases() {
  static const std::vector<KernelCase> cases = {
      {"max_u8", [](uint32_t n) { return std::vector{i32(kU8 + 3), i32(n)}; }},
      {"sum_u8", [](uint32_t n) { return std::vector{i32(kU8 + 5), i32(n)}; }},
      {"sum_u16", [](uint32_t n) { return std::vector{i32(kU16), i32(n)}; }},
      {"max_u8_branchy",
       [](uint32_t n) { return std::vector{i32(kU8 + 1), i32(n)}; }},
      {"count_runs",
       [](uint32_t n) { return std::vector{i32(kU8), i32(n), i32(128)}; }},
      {"energy", [](uint32_t n) { return std::vector{i32(kF32X), i32(n)}; }},
      {"vecadd",
       [](uint32_t n) {
         return std::vector{i32(kOut), i32(kF32A), i32(kF32B), i32(n)};
       }},
      {"fir4",
       [](uint32_t n) {
         return std::vector{i32(kOut), i32(kF32X), i32(n),
                            Value::make_f32(0.375f), Value::make_f32(0.25f)};
       }},
      {"saxpy",
       [](uint32_t n) {
         return std::vector{Value::make_f32(1.5f), i32(kF32A), i32(kOut),
                            i32(n)};
       }},
      {"dscal",
       [](uint32_t n) {
         return std::vector{Value::make_f32(-0.5f), i32(kOut), i32(n)};
       }},
  };
  return cases;
}

constexpr uint32_t kSizes[] = {61, 1000};

/// Compiles `source` offline, then JITs it for `kind` with default options.
std::vector<MFunction> jit_for(const Module& module, TargetKind kind) {
  return JitCompiler(target_desc(kind)).compile_module(module);
}

uint32_t index_of(const Module& module, std::string_view fn) {
  const auto idx = module.find_function(fn);
  if (!idx) fatal("simulator_test: no function " + std::string(fn));
  return *idx;
}

/// Runs `fn` on a freshly filled memory through a Simulator over `code`.
SimResult simulate(TargetKind kind, const std::vector<MFunction>& code,
                   uint32_t fn, const std::vector<Value>& args,
                   uint64_t budget = uint64_t{1} << 32,
                   uint32_t mem_bytes = kMemBytes) {
  Memory mem(mem_bytes);
  fill_memory(mem);
  Simulator sim(target_desc(kind), code, mem);
  sim.set_step_budget(budget);
  return sim.run(fn, args);
}

std::string row_name(std::string_view what, TargetKind kind,
                     std::string_view tag = {}) {
  std::string name(what);
  name += '/';
  name += target_desc(kind).name;
  if (!tag.empty()) {
    name += '/';
    name += tag;
  }
  return name;
}

constexpr std::string_view kCallsSource = R"(
fn clamp(x: i32, lo: i32, hi: i32) -> i32 {
  if (x < lo) {
    return lo;
  }
  if (x > hi) {
    return hi;
  }
  return x;
}

fn fib(n: i32) -> i32 {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}

fn scale(x: f32, k: f32) -> f32 {
  return x * k + 1.0;
}

fn widen(x: i32) -> i64 {
  return (x as i64) * (3 as i64);
}

fn calls(p: *u8, x: *f32, n: i32) -> i32 {
  var s: i32 = 0;
  var w: i64 = (0 as i64);
  var acc: f32 = 0.0;
  var i: i32 = 0;
  while (i < n) {
    s = s + clamp(p[i], 40, 200);
    acc = acc + scale(x[i], 0.5);
    w = w + widen(p[i]);
    i = i + 1;
  }
  return s + fib(11) + (acc as i32) + (w as i32);
}
)";

constexpr std::string_view kTrapsSource = R"(
fn divide(a: i32, b: i32) -> i32 {
  var s: i32 = 0;
  var i: i32 = 0;
  while (i < 10) {
    s = s + a / (b - i);
    i = i + 1;
  }
  return s;
}

fn walk(p: *i32, n: i32) -> i32 {
  var s: i32 = 0;
  var i: i32 = 0;
  while (i < n) {
    s = s + p[i];
    i = i + 1;
  }
  return s;
}

fn deep(n: i32) -> i32 {
  if (n == 0) {
    return 0;
  }
  return deep(n - 1) + 1;
}
)";

// --- golden rows -------------------------------------------------------------

TEST(SimulatorGolden, Kernels) {
  for (const KernelCase& k : kernel_cases()) {
    const Module module = value_or_die(compile_module(kernel_source(k.fn)));
    const uint32_t fn = index_of(module, k.fn);
    for (const TargetKind kind : all_targets()) {
      const auto code = jit_for(module, kind);
      for (const uint32_t n : kSizes) {
        const SimResult r = simulate(kind, code, fn, k.args(n));
        EXPECT_TRUE(r.ok());
        expect_golden(row_name(k.fn, kind, "n" + std::to_string(n)), r);
      }
    }
  }
}

TEST(SimulatorGolden, SpillingFunction) {
  Module module;
  module.add_function(build_high_pressure());
  for (const TargetKind kind : all_targets()) {
    const SimResult r = simulate(kind, jit_for(module, kind), 0, {i32(kU8)});
    EXPECT_TRUE(r.ok());
    expect_golden(row_name("pressure16", kind), r);
    if (kind == TargetKind::SparcSim) {
      EXPECT_GT(r.stats.spill_loads, 0u);
      EXPECT_GT(r.stats.spill_stores, 0u);
    }
  }
}

TEST(SimulatorGolden, CallHeavyProgram) {
  const Module module = value_or_die(compile_module(kCallsSource));
  const uint32_t fn = index_of(module, "calls");
  for (const TargetKind kind : all_targets()) {
    const SimResult r = simulate(kind, jit_for(module, kind), fn,
                                 {i32(kU8), i32(kF32A), i32(200)});
    EXPECT_TRUE(r.ok());
    EXPECT_GT(r.stats.calls, 600u);
    expect_golden(row_name("calls", kind), r);
  }
}

TEST(SimulatorGolden, Traps) {
  const Module module = value_or_die(compile_module(kTrapsSource));
  const uint32_t divide = index_of(module, "divide");
  const uint32_t walk = index_of(module, "walk");
  const uint32_t deep = index_of(module, "deep");
  for (const TargetKind kind : all_targets()) {
    const auto code = jit_for(module, kind);
    const SimResult dz = simulate(kind, code, divide, {i32(1000), i32(6)});
    EXPECT_EQ(dz.trap, TrapKind::DivideByZero);
    expect_golden(row_name("divide_by_zero", kind), dz);

    // The walk starts 64 bytes before the end of memory and runs on.
    const SimResult oob =
        simulate(kind, code, walk, {i32(kMemBytes - 64), i32(100)});
    EXPECT_EQ(oob.trap, TrapKind::OutOfBoundsMemory);
    expect_golden(row_name("out_of_bounds", kind), oob);

    const SimResult budget =
        simulate(kind, code, walk, {i32(kU8), i32(1000)}, 777);
    EXPECT_EQ(budget.trap, TrapKind::StepBudgetExceeded);
    EXPECT_EQ(budget.stats.instructions, 777u);
    expect_golden(row_name("step_budget", kind), budget);

    // Root frame plus 128 nested calls is the deepest legal stack.
    const SimResult deepest = simulate(kind, code, deep, {i32(128)});
    EXPECT_TRUE(deepest.ok());
    EXPECT_EQ(deepest.value.i32, 128);
    expect_golden(row_name("depth128", kind), deepest);
    const SimResult overflow = simulate(kind, code, deep, {i32(129)});
    EXPECT_EQ(overflow.trap, TrapKind::CallStackOverflow);
    EXPECT_EQ(overflow.stats.calls, 129u);
    expect_golden(row_name("depth129", kind), overflow);
  }
}

// Every step budget from 0 to one past the instructions an unlimited run
// executes, and then no limit, for short runs of the kernels, the
// call-heavy program and the divide-by-zero and out-of-bounds functions,
// on all four targets: one FNV-1a digest over the budget, trap and ten
// counters of every run, captured from the original per-MInst loop. The
// decoded loop charges a run's instructions on entry, runs a budget that
// ends inside a run on a capped copy, gives back what a trap leaves
// unexecuted, and fuses compares into branches; this pins all of those.
TEST(SimulatorGolden, EveryStepBudget) {
  constexpr uint64_t kDigest = 0xf1f5eee4d407d2db;  // 19759 runs
  uint64_t digest = 1469598103934665603ull;
  uint64_t runs = 0;
  const auto mix = [&digest](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 1099511628211ull;
    }
  };
  const auto sweep = [&](TargetKind kind, const std::vector<MFunction>& code,
                         uint32_t fn, const std::vector<Value>& args) {
    const uint64_t unlimited = uint64_t{1} << 32;
    const uint64_t n = simulate(kind, code, fn, args).stats.instructions;
    for (uint64_t budget = 0; budget <= n + 2; ++budget) {
      const uint64_t b = budget <= n + 1 ? budget : unlimited;
      const SimResult r = simulate(kind, code, fn, args, b);
      mix(b);
      mix(static_cast<uint64_t>(r.trap));
      for (const uint64_t c : counters(r.stats)) mix(c);
      ++runs;
    }
  };
  for (const TargetKind kind : all_targets()) {
    for (const KernelCase& k : kernel_cases()) {
      const Module module = value_or_die(compile_module(kernel_source(k.fn)));
      sweep(kind, jit_for(module, kind), index_of(module, k.fn), k.args(37));
    }
    const Module calls = value_or_die(compile_module(kCallsSource));
    sweep(kind, jit_for(calls, kind), index_of(calls, "calls"),
          {i32(kU8), i32(kF32A), i32(3)});
    const Module traps = value_or_die(compile_module(kTrapsSource));
    const auto code = jit_for(traps, kind);
    sweep(kind, code, index_of(traps, "divide"), {i32(1000), i32(6)});
    sweep(kind, code, index_of(traps, "walk"), {i32(kMemBytes - 64), i32(100)});
  }
  char now[19];
  std::snprintf(now, sizeof now, "0x%016llx",
                static_cast<unsigned long long>(digest));
  EXPECT_EQ(kDigest, digest) << "over " << runs << " runs; digest now " << now;
}

// --- properties that hold beside the table -----------------------------------

TEST(Simulator, StepBudgetTrapsBeforeInstructionBudgetPlusOne) {
  const Module module = value_or_die(compile_module(kTrapsSource));
  const uint32_t walk = index_of(module, "walk");
  for (const TargetKind kind : all_targets()) {
    const auto code = jit_for(module, kind);
    const std::vector<Value> args = {i32(kU8), i32(300)};
    const SimResult full = simulate(kind, code, walk, args);
    ASSERT_TRUE(full.ok());
    const uint64_t n = full.stats.instructions;
    const SimResult exact = simulate(kind, code, walk, args, n);
    EXPECT_TRUE(exact.ok()) << target_desc(kind).name;
    EXPECT_EQ(counters(exact.stats), counters(full.stats));
    const SimResult short_by_one = simulate(kind, code, walk, args, n - 1);
    EXPECT_EQ(short_by_one.trap, TrapKind::StepBudgetExceeded);
    EXPECT_EQ(short_by_one.stats.instructions, n - 1);
  }
}

TEST(Simulator, EachRunStartsFromAFreshPredictor) {
  const Module module = value_or_die(compile_module(kCallsSource));
  const uint32_t fn = index_of(module, "calls");
  for (const TargetKind kind : all_targets()) {
    const auto code = jit_for(module, kind);
    Memory mem(kMemBytes);
    fill_memory(mem);
    Simulator sim(target_desc(kind), code, mem);
    const std::vector<Value> args = {i32(kU8), i32(kF32A), i32(150)};
    const SimResult first = sim.run(fn, args);
    const SimResult second = sim.run(fn, args);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(counters(first.stats), counters(second.stats))
        << target_desc(kind).name;
    EXPECT_EQ(first.value, second.value);
  }
}

TEST(Simulator, DecodeRejectsMalformedCodeBeforeRunning) {
  // A one-block function returning r0 + r1; each case breaks one thing.
  const auto valid = [] {
    MFunction fn;
    fn.name = "f";
    fn.ret_type = Type::I32;
    fn.allocated = true;
    MInst add;
    add.op = mop(Opcode::AddI32);
    add.dst = Reg::make(RegClass::Int, 2);
    add.s0 = Reg::make(RegClass::Int, 0);
    add.s1 = Reg::make(RegClass::Int, 1);
    MInst ret;
    ret.op = mop(Opcode::Ret);
    ret.s0 = Reg::make(RegClass::Int, 2);
    fn.blocks.push_back({{add, ret}});
    return fn;
  };
  const MachineDesc& desc = target_desc(TargetKind::X86Sim);
  {
    Memory mem(64);
    const std::vector<MFunction> code = {valid()};
    Simulator sim(desc, code, mem);
    const SimResult r = sim.run(0, {});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.stats.instructions, 2u);
  }
  MFunction falls = valid();
  falls.blocks[0].insts.pop_back();
  EXPECT_DEATH((void)decode_function(desc, falls, 1), "block falls through");
  MFunction wide = valid();
  wide.blocks[0].insts[0].s1 = Reg::make(RegClass::Int, 1000);
  EXPECT_DEATH((void)decode_function(desc, wide, 1), "register out of range");
  MFunction slot = valid();
  slot.blocks[0].insts[0].s1 = Reg::slot(RegClass::Int, 0);
  EXPECT_DEATH((void)decode_function(desc, slot, 1), "register out of range");
  MFunction branch = valid();
  branch.blocks[0].insts[1].op = mop(Opcode::Jump);
  branch.blocks[0].insts[1].a = 7;
  EXPECT_DEATH((void)decode_function(desc, branch, 1),
               "branch target out of range");
  MFunction callee = valid();
  callee.call_sites.push_back({});
  callee.blocks[0].insts[0].op = mop(Opcode::Call);
  callee.blocks[0].insts[0].a = 3;
  EXPECT_DEATH((void)decode_function(desc, callee, 1), "callee out of range");
  MFunction unknown = valid();
  unknown.blocks[0].insts[0].op = static_cast<MOp>(900);
  EXPECT_DEATH((void)decode_function(desc, unknown, 1), "unknown machine op");
  MFunction stack_op = valid();
  stack_op.blocks[0].insts[0].op = mop(Opcode::LocalGet);
  EXPECT_DEATH((void)decode_function(desc, stack_op, 1),
               "not an executable machine op");
}

TEST(Simulator, OnlineTargetRunsMatchTheGoldenRows) {
  // Eager load and tiered tier-up both execute the target's installed
  // image rather than a Simulator over raw MFunctions; timing must not
  // depend on which path decoded the code.
  for (const KernelCase& k : kernel_cases()) {
    const Module module = value_or_die(compile_module(kernel_source(k.fn)));
    for (const TargetKind kind : all_targets()) {
      for (const LoadMode mode : {LoadMode::Eager, LoadMode::Tiered}) {
        OnlineTargetConfig config;
        config.mode = mode;
        config.promote_threshold = 1;
        OnlineTarget target(kind, {}, config);
        load_or_die(target, module);
        Memory mem(kMemBytes);
        fill_memory(mem);
        const SimResult r = target.run(k.fn, k.args(61), mem);
        EXPECT_EQ(r.tier, 1);
        expect_golden(row_name(k.fn, kind, "n61"), r);
      }
    }
  }
}

}  // namespace
