#include "stressor_task.hpp"

#include "isa/builder.hpp"

#include <stdexcept>
#include <vector>

namespace proxima::casestudy {

using namespace proxima::isa;

namespace {

constexpr const char* kBufferSym = "st_buffer";
constexpr const char* kSaltSym = "st_salt";
constexpr const char* kStatusSym = "st_status";

void validate(const StressorParams& params) {
  if (params.stride < 4 || params.stride % 4 != 0) {
    throw std::invalid_argument("stressor stride must be a multiple of 4");
  }
  if (params.buffer_bytes == 0 || params.buffer_bytes % params.stride != 0) {
    throw std::invalid_argument(
        "stressor buffer must be a non-zero multiple of the stride");
  }
  if (params.passes == 0) {
    throw std::invalid_argument("stressor needs at least one pass");
  }
}

Function build_stress_main() {
  FunctionBuilder fb("stress_main");
  fb.prologue(96);
  fb.call("stress_sweep");
  fb.halt();
  return std::move(fb).build();
}

Function build_stress_sweep(const StressorParams& params) {
  FunctionBuilder fb("stress_sweep");
  fb.prologue(96);
  fb.load_address(kL0, kSaltSym);
  fb.ld(kL1, kL0, 0); // sig = salt
  fb.li(kL2, static_cast<std::int32_t>(params.passes));
  fb.label("pass_loop");
  fb.load_address(kL3, kBufferSym); // cursor
  fb.li(kL4, static_cast<std::int32_t>(params.touches()));
  fb.label("sweep_loop");
  fb.ld(kO0, kL3, 0); // one read per L2 line: pure eviction traffic
  fb.op3(Opcode::kXor, kL1, kL1, kO0);
  fb.muli(kL1, kL1, 5);
  fb.addi(kL1, kL1, 1);
  fb.addi(kL3, kL3, static_cast<std::int32_t>(params.stride));
  fb.subcci(kL4, 1);
  fb.subi(kL4, kL4, 1);
  fb.bg("sweep_loop");
  fb.subcci(kL2, 1);
  fb.subi(kL2, kL2, 1);
  fb.bg("pass_loop");
  fb.load_address(kO1, kStatusSym);
  fb.st(kL1, kO1, 0);
  fb.epilogue();
  return std::move(fb).build();
}

} // namespace

std::uint32_t stressor_word(std::uint32_t index) {
  // Knuth multiplicative hash: cheap, and every word differs, so a partial
  // sweep can never alias a full one in the signature.
  return index * 2654435761u ^ 0x5a5a5a5au;
}

isa::Program build_stressor_program(const StressorParams& params) {
  validate(params);
  Program program;
  program.functions.push_back(build_stress_main());
  program.functions.push_back(build_stress_sweep(params));
  program.entry = "stress_main";

  std::vector<std::uint8_t> buffer;
  buffer.reserve(params.buffer_bytes);
  for (std::uint32_t word = 0; word < params.buffer_bytes / 4; ++word) {
    const std::uint32_t value = stressor_word(word);
    buffer.push_back(static_cast<std::uint8_t>(value >> 24));
    buffer.push_back(static_cast<std::uint8_t>(value >> 16));
    buffer.push_back(static_cast<std::uint8_t>(value >> 8));
    buffer.push_back(static_cast<std::uint8_t>(value));
  }
  program.data.push_back(DataObject{.name = kBufferSym,
                                    .size = params.buffer_bytes,
                                    .align = 64,
                                    .init = std::move(buffer)});
  program.data.push_back(
      DataObject{.name = kSaltSym, .size = 4, .align = 64, .init = {}});
  program.data.push_back(
      DataObject{.name = kStatusSym, .size = 4, .align = 64, .init = {}});
  return program;
}

void stage_stressor_inputs(mem::GuestMemory& memory,
                           mem::MemoryHierarchy& hierarchy,
                           const isa::LinkedImage& image, std::uint32_t salt) {
  const std::uint32_t salt_addr = image.symbol(kSaltSym).addr;
  memory.write_u32(salt_addr, salt);
  hierarchy.dma_written(salt_addr, 4);
  const std::uint32_t status_addr = image.symbol(kStatusSym).addr;
  memory.write_u32(status_addr, 0);
  hierarchy.dma_written(status_addr, 4);
}

StressorOutputs read_stressor_outputs(const mem::GuestMemory& memory,
                                      const isa::LinkedImage& image) {
  StressorOutputs outputs;
  outputs.signature = memory.read_u32(image.symbol(kStatusSym).addr);
  return outputs;
}

StressorOutputs reference_stressor(const StressorParams& params,
                                   std::uint32_t salt) {
  validate(params);
  std::uint32_t signature = salt;
  const std::uint32_t words_per_touch = params.stride / 4;
  for (std::uint32_t pass = 0; pass < params.passes; ++pass) {
    for (std::uint32_t touch = 0; touch < params.touches(); ++touch) {
      signature = (signature ^ stressor_word(touch * words_per_touch)) * 5 + 1;
    }
  }
  return StressorOutputs{signature};
}

} // namespace proxima::casestudy
