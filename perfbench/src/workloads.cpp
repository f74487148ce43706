// Workload generation: every input a run uses comes from the seed, and
// every template carries the switch interpreter's answer so each
// response can be checked bit for bit.
#include <array>
#include <regex>
#include <string_view>

#include "bench.h"
#include "fuzz/generator.h"
#include "stats.h"

namespace perfbench {
namespace {

using namespace svc;

// --- steady_mix / overload_open: clones of the Table 1 kernels ------------

enum class Shape : uint8_t { U8, U8Thresh, U16, F32Reduce, VecAdd, Fir };

struct Kernel {
  std::string_view fn;
  Shape shape;
};

// The eight kernels the clones are made of: six read-only kernels and two
// idempotent writers (each clone writes its own output region).
constexpr Kernel kKernels[] = {
    {"max_u8", Shape::U8},          {"sum_u8", Shape::U8},
    {"sum_u16", Shape::U16},        {"max_u8_branchy", Shape::U8},
    {"count_runs", Shape::U8Thresh}, {"energy", Shape::F32Reduce},
    {"vecadd", Shape::VecAdd},      {"fir4", Shape::Fir},
};
constexpr size_t kNumKernels = sizeof kKernels / sizeof kKernels[0];
using KernelOrder = std::array<size_t, kNumKernels>;
// Which kernel each Zipf rank (mod 8) clones. kTableOrder puts the five
// kernels the mapper sends to the x86sim host first, so the host gets
// about 78% of the requests. kAlternating alternates the spusim
// kernels (energy, vecadd, fir4) with the host's, which splits the
// requests about evenly between the two cores of a shard.
constexpr KernelOrder kTableOrder = {0, 1, 2, 3, 4, 5, 6, 7};
constexpr KernelOrder kAlternating = {5, 0, 6, 1, 7, 2, 3, 4};
constexpr size_t kClonesPerKernel = 4;
constexpr size_t kTemplatesPerFn = 4;  // one per size stratum
constexpr size_t kSequenceLength = 32768;
constexpr double kZipfS = 1.0;

// Memory image: read-only inputs, then one output region per clone.
constexpr uint32_t kU8 = 0x1000;      // 8192 bytes
constexpr uint32_t kU16 = 0x3000;     // 4096 u16
constexpr uint32_t kF32A = 0x8000;    // 4096 f32 each
constexpr uint32_t kF32B = 0xC100;
constexpr uint32_t kF32X = 0x10200;
constexpr uint32_t kOut = 0x20000;
constexpr uint32_t kOutStride = 0x4100;
constexpr uint32_t kElems = 4096;

std::string_view kernel_source(std::string_view fn) {
  for (const KernelInfo& k : table1_kernels()) {
    if (k.fn_name == fn) return k.source;
  }
  if (branchy_max_kernel().fn_name == fn) return branchy_max_kernel().source;
  if (control_kernel().fn_name == fn) return control_kernel().source;
  return fir_source();
}

/// The text of function `fn` inside `source`, renamed to `name`.
std::string clone_function(std::string_view source, std::string_view fn,
                           const std::string& name) {
  const std::string head = "fn " + std::string(fn) + "(";
  const size_t begin = source.find(head);
  const size_t end = source.find("\n}", begin);
  std::string text(source.substr(begin, end + 2 - begin));
  text.replace(0, head.size(), "fn " + name + "(");
  return text + "\n\n";
}

void fill_inputs(Memory& mem, uint64_t seed) {
  Rng rng(seed);
  for (uint32_t i = 0; i < 2 * kElems; ++i) {
    mem.store_u8(kU8 + i, static_cast<uint8_t>(rng.next_u32()));
  }
  for (uint32_t i = 0; i < kElems; ++i) {
    mem.store_u16(kU16 + 2 * i, static_cast<uint16_t>(rng.next_u32()));
    mem.write_f32(kF32A + 4 * i, 2.0f * rng.next_f32() - 1.0f);
    mem.write_f32(kF32B + 4 * i, 2.0f * rng.next_f32() - 1.0f);
    mem.write_f32(kF32X + 4 * i, 2.0f * rng.next_f32() - 1.0f);
  }
}

std::vector<Value> kernel_args(Shape shape, uint32_t clone, uint32_t off,
                               uint32_t n, Rng& rng) {
  const auto i32 = [](uint32_t v) {
    return Value::make_i32(static_cast<int32_t>(v));
  };
  const uint32_t out = kOut + clone * kOutStride;
  switch (shape) {
    case Shape::U8: return {i32(kU8 + off), i32(n)};
    case Shape::U8Thresh: return {i32(kU8 + off), i32(n), i32(128)};
    case Shape::U16: return {i32(kU16 + 2 * off), i32(n)};
    case Shape::F32Reduce: return {i32(kF32X + 4 * off), i32(n)};
    case Shape::VecAdd:
      return {i32(out), i32(kF32A + 4 * off), i32(kF32B + 4 * off), i32(n)};
    case Shape::Fir:
      return {i32(out), i32(kF32X + 4 * off), i32(n),
              Value::make_f32(0.25f + static_cast<float>(rng.next_below(8)) / 8),
              Value::make_f32(0.5f - static_cast<float>(rng.next_below(8)) / 16)};
  }
  return {};
}

/// Clones of the kernels: rank r of the Zipf popularity is always kernel
/// kernels[r % 8], so the kernel mix (and with it the simulated work)
/// does not move with the seed; the seed draws sizes, offsets, data and
/// order.
Workload kernel_workload(std::string name, uint64_t seed, uint32_t min_n,
                         uint32_t max_n, RoutingPolicy routing,
                         const KernelOrder& kernels) {
  Workload w;
  w.name = std::move(name);
  w.seed = seed;
  w.routing = routing;
  Rng rng(seed);
  const size_t fns = kNumKernels * kClonesPerKernel;
  for (size_t r = 0; r < fns; ++r) {
    const Kernel& k = kKernels[kernels[r % kNumKernels]];
    const std::string fn_name =
        std::string(k.fn) + "_" + std::to_string(r / kNumKernels);
    w.source += clone_function(kernel_source(k.fn), k.fn, fn_name);
    w.entries.push_back(fn_name);
    for (size_t t = 0; t < kTemplatesPerFn; ++t) {
      // Stratified sizes: template t draws from the middle half of the
      // t-th quarter of [min_n, max_n), so every function's mean size,
      // and with it the mix's work, stays near the middle for any seed.
      const double width = static_cast<double>(max_n - min_n) / kTemplatesPerFn;
      const auto n = static_cast<uint32_t>(
          min_n + width * (static_cast<double>(t) + 0.25 + 0.5 * rng.next_f64()));
      const auto off = static_cast<uint32_t>(rng.next_below(kElems - n));
      Template tmpl;
      tmpl.fn = static_cast<uint32_t>(r);
      tmpl.name = fn_name;
      tmpl.args = kernel_args(k.shape, static_cast<uint32_t>(r), off, n, rng);
      w.templates.push_back(std::move(tmpl));
    }
  }
  const ZipfSampler zipf(fns, kZipfS);
  Rng order = rng.fork(1);
  for (size_t i = 0; i < kSequenceLength; ++i) {
    const size_t fn = zipf.sample(order);
    w.sequence.push_back(static_cast<uint32_t>(
        fn * kTemplatesPerFn + order.next_below(kTemplatesPerFn)));
  }
  const uint64_t fill_seed = rng.fork(2).next_u64();
  w.memory_init = [fill_seed](Memory& mem) { fill_inputs(mem, fill_seed); };
  return w;
}

// --- rollout: a seeded draw of generator programs --------------------------

constexpr size_t kRolloutPrograms = 32;
constexpr uint32_t kProgramStride = 0x2000;  // private regions per program
constexpr uint32_t kProgramBase = 0x10000;
// Windows on shape, image size and oracle steps: every kept program has
// three functions and a similar image and cost, so the module's total
// work barely moves with the seed while the programs themselves do.
constexpr uint32_t kProgramFunctions = 3;
constexpr size_t kMinImageBytes = 1150;
constexpr size_t kMaxImageBytes = 1350;
constexpr uint64_t kMinSteps = 2000;
constexpr uint64_t kMaxSteps = 3200;
constexpr size_t kMaxDraws = 20000;

std::string rename_program(const std::string& source, size_t j) {
  const std::string prefix = "p" + std::to_string(j) + "_";
  static const std::regex kHelper(R"(\bf(\d+)\()");
  std::string out = std::regex_replace(source, kHelper, prefix + "f$1(");
  const std::string entry = "fn entry(";
  out.replace(out.find(entry), entry.size(), "fn " + prefix + "entry(");
  return out;
}

fuzz::GeneratedProgram relocate(fuzz::GeneratedProgram p, uint32_t offset) {
  for (fuzz::ArgSpec& a : p.args) {
    if (!a.is_ptr) continue;
    a.region.addr += offset;
    a.value = Value::make_i32(static_cast<int32_t>(a.region.addr));
  }
  return p;
}

std::vector<uint8_t> region_bytes(const fuzz::GeneratedProgram& p,
                                  const Memory& mem) {
  std::vector<uint8_t> out;
  for (const fuzz::ArgSpec& a : p.args) {
    if (!a.is_ptr) continue;
    const auto bytes = mem.bytes().subspan(
        a.region.addr, size_t{a.region.elems} * a.region.elem_size());
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

/// True when the program's answer and memory repeat on a second call, so
/// its requests are order-independent; `steps` gets the oracle's count.
bool repeats(const Module& module, const fuzz::GeneratedProgram& p,
             size_t memory_bytes, uint64_t& steps) {
  Memory mem(memory_bytes);
  p.init_memory(mem);
  Interpreter interp(module, mem);
  interp.set_dispatch(DispatchKind::Switch);
  const ExecResult first = interp.run(p.entry, p.arg_values());
  const std::vector<uint8_t> after_first = region_bytes(p, mem);
  const ExecResult second = interp.run(p.entry, p.arg_values());
  steps = first.steps;
  return first.ok() && second.ok() && first.value && second.value &&
         *first.value == *second.value &&
         after_first == region_bytes(p, mem);
}

Result<Workload> rollout_workload(uint64_t seed) {
  Workload w;
  w.name = "rollout";
  w.seed = seed;
  w.routing = RoutingPolicy::ConsistentHash;
  std::vector<fuzz::GeneratedProgram> kept;
  const Rng draws(seed);
  for (size_t d = 0; d < kMaxDraws && kept.size() < kRolloutPrograms; ++d) {
    fuzz::GeneratedProgram p = fuzz::generate_program(draws.fork(d).next_u64());
    if (p.features.functions != kProgramFunctions) continue;
    Result<Module> module = compile_module(p.source);
    if (!module.ok()) continue;
    const size_t image = serialize_module(*module).size();
    if (image < kMinImageBytes || image > kMaxImageBytes) continue;
    ++w.drawn;
    uint64_t steps = 0;
    if (!repeats(*module, p, w.memory_bytes, steps)) continue;
    ++w.idempotent;
    if (steps < kMinSteps || steps > kMaxSteps) continue;
    kept.push_back(std::move(p));
  }
  if (kept.size() < kRolloutPrograms) {
    return Result<Workload>::failure(
        "rollout: seed " + std::to_string(seed) + " kept only " +
        std::to_string(kept.size()) + " programs");
  }
  for (size_t j = 0; j < kept.size(); ++j) {
    kept[j] = relocate(std::move(kept[j]),
                       kProgramBase + static_cast<uint32_t>(j) * kProgramStride);
    w.source += rename_program(kept[j].source, j) + "\n";
    const std::string entry = "p" + std::to_string(j) + "_entry";
    w.entries.push_back(entry);
    Template tmpl;
    tmpl.name = entry;
    tmpl.args = kept[j].arg_values();
    w.templates.push_back(std::move(tmpl));
    w.sequence.push_back(static_cast<uint32_t>(j));
  }
  w.memory_init = [kept](Memory& mem) {
    for (const fuzz::GeneratedProgram& p : kept) p.init_memory(mem);
  };
  return w;
}

/// Fills in every template's function index and the switch interpreter's
/// answer, each on a fresh copy of the initial memory image.
Result<void> attach_oracle(Workload& w) {
  Result<Module> module = compile_module(w.source);
  if (!module.ok()) return Result<void>::failure(module.error());
  w.image = serialize_module(*module);
  Memory image(w.memory_bytes);
  w.memory_init(image);
  for (Template& t : w.templates) {
    const auto fn = module->find_function(t.name);
    if (!fn) return Result<void>::failure("oracle: no function " + t.name);
    t.fn = *fn;
    Memory mem = image;
    Interpreter interp(*module, mem);
    interp.set_dispatch(DispatchKind::Switch);
    const ExecResult r = interp.run(*fn, t.args);
    t.expected = r.value.value_or(Value{});
    t.expected_trap = r.trap;
  }
  return {};
}

}  // namespace

std::vector<CoreSpec> shard_cores() {
  return {{TargetKind::X86Sim, false}, {TargetKind::SpuSim, true}};
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"steady_mix", "rollout",
                                                  "overload_open"};
  return kNames;
}

Result<Workload> make_workload(const std::string& name, uint64_t seed) {
  Workload w;
  if (name == "steady_mix") {
    w = kernel_workload(name, seed, 16, 320, RoutingPolicy::ConsistentHash,
                        kTableOrder);
  } else if (name == "overload_open") {
    w = kernel_workload(name, seed, 1024, 4000, RoutingPolicy::LeastLoaded,
                        kAlternating);
    // At least twice the completed rate this 2-shard layout sustains
    // with this mix on a 4-CPU x86-64 host, which ranged from 15k to 29k
    // req/s as the host's other load came and went; fixed, never
    // measured. Both cores' queues of each shard then overflow.
    w.offered_rps = 60000.0;
  } else if (name == "rollout") {
    Result<Workload> r = rollout_workload(seed);
    if (!r.ok()) return r;
    w = std::move(r).value();
  } else {
    return Result<Workload>::failure("unknown workload '" + name + "'");
  }
  if (Result<void> oracle = attach_oracle(w); !oracle.ok()) {
    return Result<Workload>::failure(oracle.error());
  }
  return w;
}

}  // namespace perfbench
