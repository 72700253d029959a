#include "leak_task.hpp"

#include "isa/builder.hpp"

#include <stdexcept>

namespace proxima::casestudy {

using namespace proxima::isa;

namespace {

constexpr const char* kInputSym = "lk_input";
constexpr const char* kStatusSym = "lk_status";

constexpr std::int32_t kSignatureSeed = 0x5a5;
constexpr std::int32_t kStatusVersion = 0x1107;

void validate(const LeakParams& params) {
  if (params.words == 0) {
    throw std::invalid_argument("leak task needs at least one input word");
  }
  if (params.rounds == 0) {
    throw std::invalid_argument("leak task needs at least one round");
  }
}

Function build_leak_main() {
  FunctionBuilder fb("leak_main");
  fb.prologue(96);
  fb.call("leak_step");
  fb.halt();
  return std::move(fb).build();
}

Function build_leak_step(const LeakParams& params) {
  FunctionBuilder fb("leak_step");
  fb.prologue(96);
  fb.load_address(kL0, kInputSym);
  fb.li(kL1, kSignatureSeed); // sig
  fb.li(kL2, static_cast<std::int32_t>(params.rounds));
  fb.label("round_loop");
  fb.mov(kL3, kL0); // cursor
  fb.li(kL4, static_cast<std::int32_t>(params.words));
  fb.label("word_loop");
  fb.ld(kO0, kL3, 0);
  fb.op3(Opcode::kXor, kL1, kL1, kO0);
  fb.muli(kL1, kL1, 33);
  fb.addi(kL1, kL1, 7);
  fb.addi(kL3, kL3, 4);
  fb.subcci(kL4, 1);
  fb.subi(kL4, kL4, 1);
  fb.bg("word_loop");
  fb.subcci(kL2, 1);
  fb.subi(kL2, kL2, 1);
  fb.bg("round_loop");
  fb.load_address(kO1, kStatusSym);
  fb.st(kL1, kO1, 0); // signature
  if (params.hardened) {
    // Hardened beacon: a link-independent build id.
    fb.li(kO2, kLeakHardenedBeacon);
    fb.st(kO2, kO1, 4);
  } else {
    // THE LEAK: %i7 is this activation's return address — a relocated
    // code address, i.e. the randomised layout itself.
    fb.st(kI7, kO1, 4);
  }
  fb.li(kO3, static_cast<std::int32_t>(params.words));
  fb.st(kO3, kO1, 8); // processed-words count
  fb.li(kO4, kStatusVersion);
  fb.st(kO4, kO1, 12); // record version
  fb.epilogue();
  return std::move(fb).build();
}

} // namespace

isa::Program build_leak_program(const LeakParams& params) {
  validate(params);
  Program program;
  program.functions.push_back(build_leak_main());
  program.functions.push_back(build_leak_step(params));
  program.entry = "leak_main";
  program.data.push_back(DataObject{
      .name = kInputSym, .size = params.words * 4, .align = 64, .init = {}});
  program.data.push_back(
      DataObject{.name = kStatusSym, .size = 16, .align = 64, .init = {}});
  return program;
}

LeakInputs make_leak_inputs(rng::Mwc& rng, const LeakParams& params) {
  validate(params);
  LeakInputs inputs;
  inputs.block.reserve(params.words);
  for (std::uint32_t i = 0; i < params.words; ++i) {
    inputs.block.push_back(rng.next_u32());
  }
  return inputs;
}

void stage_leak_inputs(mem::GuestMemory& memory,
                       mem::MemoryHierarchy& hierarchy,
                       const isa::LinkedImage& image,
                       const LeakInputs& inputs) {
  const std::uint32_t input_addr = image.symbol(kInputSym).addr;
  for (std::size_t i = 0; i < inputs.block.size(); ++i) {
    memory.write_u32(input_addr + static_cast<std::uint32_t>(i) * 4,
                     inputs.block[i]);
  }
  hierarchy.dma_written(input_addr,
                        static_cast<std::uint32_t>(inputs.block.size()) * 4);
  const std::uint32_t status_addr = image.symbol(kStatusSym).addr;
  for (std::uint32_t off = 0; off < 16; off += 4) {
    memory.write_u32(status_addr + off, 0);
  }
  hierarchy.dma_written(status_addr, 16);
}

LeakOutputs read_leak_outputs(const mem::GuestMemory& memory,
                              const isa::LinkedImage& image) {
  const std::uint32_t status_addr = image.symbol(kStatusSym).addr;
  LeakOutputs outputs;
  outputs.signature = memory.read_u32(status_addr);
  outputs.count = memory.read_u32(status_addr + 8);
  outputs.version = memory.read_u32(status_addr + 12);
  return outputs;
}

std::uint32_t read_leak_beacon(const mem::GuestMemory& memory,
                               const isa::LinkedImage& image) {
  return memory.read_u32(image.symbol(kStatusSym).addr + 4);
}

LeakOutputs reference_leak(const LeakParams& params, const LeakInputs& inputs) {
  validate(params);
  std::uint32_t sig = static_cast<std::uint32_t>(kSignatureSeed);
  for (std::uint32_t round = 0; round < params.rounds; ++round) {
    for (const std::uint32_t word : inputs.block) {
      sig = (sig ^ word) * 33 + 7;
    }
  }
  return LeakOutputs{sig, params.words,
                     static_cast<std::uint32_t>(kStatusVersion)};
}

} // namespace proxima::casestudy
