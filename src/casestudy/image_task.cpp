#include "image_task.hpp"

#include "isa/builder.hpp"

#include <bit>
#include <stdexcept>

namespace proxima::casestudy {

using namespace proxima::isa;

namespace {

constexpr const char* kFrameSym = "im_frame";
constexpr const char* kBrightSym = "im_bright";
constexpr const char* kWeightsSym = "im_weights";
constexpr const char* kWavefrontSym = "im_wavefront";
constexpr const char* kStatusSym = "im_status";

void append_f64(std::vector<std::uint8_t>& bytes, double value) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  for (int shift = 56; shift >= 0; shift -= 8) {
    bytes.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
}

void loop_step(FunctionBuilder& fb, std::uint8_t counter,
               const std::string& label) {
  fb.subcci(counter, 1);
  fb.subi(counter, counter, 1);
  fb.bg(label);
}

Function build_image_main() {
  FunctionBuilder fb("image_main");
  fb.prologue(96);
  fb.call("image_step");
  fb.halt();
  return std::move(fb).build();
}

Function build_lens_brightness(const ImageParams& params) {
  // Leaf: o0 = lens base -> o0 = pixel sum.
  FunctionBuilder fb("lens_brightness");
  fb.li(kO2, 0);
  fb.li(kO1, static_cast<std::int32_t>(params.lens_bytes()));
  fb.label("b_loop");
  fb.ldb(kO3, kO0, 0);
  fb.add(kO2, kO2, kO3);
  fb.addi(kO0, kO0, 1);
  loop_step(fb, kO1, "b_loop");
  fb.mov(kO0, kO2);
  fb.ret_leaf();
  return std::move(fb).build();
}

Function build_process_lens(const ImageParams& params) {
  // o0 = lens base, o1 = lens index.
  const std::int32_t px = static_cast<std::int32_t>(params.lens_px);
  const std::int32_t window = static_cast<std::int32_t>(params.window);
  const std::int32_t corner = (px - window) / 2; // window top-left coord

  FunctionBuilder fb("process_lens");
  fb.prologue(96);
  // ---- phase 1: coarse integer centroid over the whole lens ----
  fb.mov(kL0, kI0); // pixel cursor
  fb.li(kL1, 0);    // y
  fb.li(kL2, 0);    // sum_x
  fb.li(kL3, 0);    // sum_y
  fb.li(kL4, 0);    // total
  fb.li(kL6, px);   // bound
  fb.label("cy_loop");
  fb.li(kL5, 0); // x
  fb.label("cx_loop");
  fb.ldb(kO2, kL0, 0);
  fb.mul(kO3, kO2, kL5);
  fb.add(kL2, kL2, kO3);
  fb.mul(kO3, kO2, kL1);
  fb.add(kL3, kL3, kO3);
  fb.add(kL4, kL4, kO2);
  fb.addi(kL0, kL0, 1);
  fb.addi(kL5, kL5, 1);
  fb.subcc(kL5, kL6);
  fb.bl("cx_loop");
  fb.addi(kL1, kL1, 1);
  fb.subcc(kL1, kL6);
  fb.bl("cy_loop");
  // cx, cy (total > 0: only lit lenses reach here, but guard div-by-zero
  // by forcing total >= 1).
  fb.subcci(kL4, 0);
  fb.bg("have_total");
  fb.li(kL4, 1);
  fb.label("have_total");
  fb.op3(Opcode::kDiv, kO2, kL2, kL4); // cx
  fb.op3(Opcode::kDiv, kO3, kL3, kL4); // cy
  // ---- phase 2: fine FP sub-pixel offset over the centre window ----
  fb.addi(kL0, kI0, corner + corner * px); // window cursor
  fb.fitod(4, kG0);                        // ox accumulator
  fb.fitod(5, kG0);                        // oy accumulator
  fb.fitod(6, kG0);                        // weight total
  fb.li(kL1, 0);                           // wy
  fb.li(kL7, window);                      // bound
  fb.label("fy_loop");
  fb.li(kL5, 0); // wx
  fb.label("fx_loop");
  fb.ldb(kO4, kL0, 0);
  fb.fitod(1, kO4); // pixel weight
  fb.addi(kO5, kL5, corner);
  fb.sub(kO5, kO5, kO2); // xrel = corner + wx - cx
  fb.fitod(2, kO5);
  fb.fmuld(2, 2, 1);
  fb.faddd(4, 4, 2);
  fb.addi(kO5, kL1, corner);
  fb.sub(kO5, kO5, kO3); // yrel = corner + wy - cy
  fb.fitod(3, kO5);
  fb.fmuld(3, 3, 1);
  fb.faddd(5, 5, 3);
  fb.faddd(6, 6, 1);
  fb.addi(kL0, kL0, 1);
  fb.addi(kL5, kL5, 1);
  fb.subcc(kL5, kL7);
  fb.bl("fx_loop");
  fb.addi(kL0, kL0, px - window); // next window row
  fb.addi(kL1, kL1, 1);
  fb.subcc(kL1, kL7);
  fb.bl("fy_loop");
  // Normalise: ox = f4/f6, oy = f5/f6 (all-dark window -> offsets 0).
  fb.fitod(0, kG0);
  fb.fcmpd(6, 0);
  fb.branch(Opcode::kFbne, "fine_div");
  fb.op3(Opcode::kFmovd, 4, 0, 0);
  fb.op3(Opcode::kFmovd, 5, 0, 0);
  fb.ba("fine_done");
  fb.label("fine_div");
  fb.fdivd(4, 4, 6);
  fb.fdivd(5, 5, 6);
  fb.label("fine_done");
  fb.op3(Opcode::kFmovd, 0, 4, 0); // f0 = ox
  fb.op3(Opcode::kFmovd, 1, 5, 0); // f1 = oy
  fb.mov(kO0, kI1);                // lens index
  fb.call("accumulate_modes");
  fb.epilogue();
  return std::move(fb).build();
}

Function build_accumulate_modes(const ImageParams& params) {
  // o0 = lens index, f0 = ox, f1 = oy.
  FunctionBuilder fb("accumulate_modes");
  fb.prologue(96);
  fb.faddd(2, 0, 1); // combined offset
  fb.load_address(kL0, kWeightsSym);
  fb.muli(kO1, kI0, static_cast<std::int32_t>(params.modes * 8));
  fb.add(kL0, kL0, kO1);
  fb.load_address(kL1, kWavefrontSym);
  fb.li(kL2, static_cast<std::int32_t>(params.modes));
  fb.label("m_loop");
  fb.ldf(3, kL0, 0);
  fb.fmuld(3, 3, 2);
  fb.ldf(4, kL1, 0);
  fb.faddd(4, 4, 3);
  fb.stf(4, kL1, 0);
  fb.addi(kL0, kL0, 8);
  fb.addi(kL1, kL1, 8);
  loop_step(fb, kL2, "m_loop");
  fb.epilogue();
  return std::move(fb).build();
}

Function build_image_step(const ImageParams& params) {
  FunctionBuilder fb("image_step");
  fb.prologue(96);
  // ---- brightness pass ----
  fb.li(kL1, 0); // lens index
  fb.li(kL3, 0); // max brightness
  fb.load_address(kL4, kBrightSym);
  fb.li(kL5, static_cast<std::int32_t>(params.lens_count()));
  fb.label("stats_loop");
  fb.muli(kO0, kL1, static_cast<std::int32_t>(params.lens_bytes()));
  fb.load_address(kO1, kFrameSym);
  fb.add(kO0, kO1, kO0);
  fb.call("lens_brightness"); // leaf: runs in this window
  fb.slli(kO1, kL1, 2);
  fb.stx(kO0, kL4, kO1);
  fb.subcc(kO0, kL3);
  fb.ble("not_max");
  fb.mov(kL3, kO0);
  fb.label("not_max");
  fb.addi(kL1, kL1, 1);
  fb.subcc(kL1, kL5);
  fb.bl("stats_loop");
  // threshold = max / 2
  fb.srli(kL3, kL3, 1);
  // ---- zero the wavefront accumulator ----
  fb.fitod(0, kG0);
  fb.load_address(kO1, kWavefrontSym);
  fb.li(kO2, static_cast<std::int32_t>(params.modes));
  fb.label("zero_loop");
  fb.stf(0, kO1, 0);
  fb.addi(kO1, kO1, 8);
  loop_step(fb, kO2, "zero_loop");
  // ---- selection + processing pass (the ~70% most-lit lenses) ----
  fb.li(kL1, 0);
  fb.li(kL6, 0); // processed count
  fb.label("proc_loop");
  fb.slli(kO1, kL1, 2);
  fb.ldx(kO0, kL4, kO1);
  fb.subcc(kO0, kL3);
  fb.bleu("skip_lens");
  fb.muli(kO0, kL1, static_cast<std::int32_t>(params.lens_bytes()));
  fb.load_address(kO1, kFrameSym);
  fb.add(kO0, kO1, kO0);
  fb.mov(kO1, kL1);
  fb.call("process_lens");
  fb.addi(kL6, kL6, 1);
  fb.label("skip_lens");
  fb.addi(kL1, kL1, 1);
  fb.subcc(kL1, kL5);
  fb.bl("proc_loop");
  fb.load_address(kO1, kStatusSym);
  fb.st(kL6, kO1, 0);
  fb.st(kL3, kO1, 4);
  fb.epilogue();
  return std::move(fb).build();
}

} // namespace

double image_weight(std::uint32_t lens, std::uint32_t mode) {
  const std::int32_t hash =
      static_cast<std::int32_t>((lens * 13 + mode * 7) % 31) - 15;
  return static_cast<double>(hash) / 16.0;
}

isa::Program build_image_program(const ImageParams& params) {
  if (params.window == 0 || params.window >= params.lens_px ||
      params.window % 2 == 0) {
    throw std::invalid_argument("fine window must be odd and < lens size");
  }
  if (params.lens_bytes() > 8191) {
    throw std::invalid_argument("lens too large for immediate addressing");
  }
  Program program;
  program.functions.push_back(build_image_main());
  program.functions.push_back(build_image_step(params));
  program.functions.push_back(build_lens_brightness(params));
  program.functions.push_back(build_process_lens(params));
  program.functions.push_back(build_accumulate_modes(params));
  program.entry = "image_main";

  std::vector<std::uint8_t> weights;
  weights.reserve(params.lens_count() * params.modes * 8);
  for (std::uint32_t lens = 0; lens < params.lens_count(); ++lens) {
    for (std::uint32_t mode = 0; mode < params.modes; ++mode) {
      append_f64(weights, image_weight(lens, mode));
    }
  }
  program.data.push_back(DataObject{.name = kWeightsSym,
                                    .size = static_cast<std::uint32_t>(
                                        weights.size()),
                                    .align = 64,
                                    .init = std::move(weights)});
  program.data.push_back(DataObject{
      .name = kFrameSym, .size = params.frame_bytes(), .align = 64});
  program.data.push_back(DataObject{
      .name = kBrightSym, .size = params.lens_count() * 4, .align = 64});
  program.data.push_back(DataObject{
      .name = kWavefrontSym, .size = params.modes * 8, .align = 64});
  program.data.push_back(
      DataObject{.name = kStatusSym, .size = 16, .align = 64});
  return program;
}

ImageInputs make_image_inputs(rng::RandomSource& random,
                              const ImageParams& params) {
  ImageInputs inputs;
  inputs.frame.resize(params.frame_bytes());
  for (std::uint32_t lens = 0; lens < params.lens_count(); ++lens) {
    const bool lit = random.next_double() < params.lit_fraction;
    if (lit) {
      ++inputs.lit_lenses;
    }
    const std::uint32_t base = lens * params.lens_bytes();
    for (std::uint32_t p = 0; p < params.lens_bytes(); ++p) {
      inputs.frame[base + p] =
          lit ? static_cast<std::uint8_t>(100 + random.next_below(156))
              : static_cast<std::uint8_t>(random.next_below(20));
    }
  }
  return inputs;
}

void stage_image_inputs(mem::GuestMemory& memory,
                        mem::MemoryHierarchy& hierarchy,
                        const isa::LinkedImage& image,
                        const ImageInputs& inputs) {
  const std::uint32_t frame = image.symbol(kFrameSym).addr;
  memory.load(frame, inputs.frame);
  hierarchy.dma_written(frame, static_cast<std::uint32_t>(inputs.frame.size()));
  const std::uint32_t status = image.symbol(kStatusSym).addr;
  for (std::uint32_t i = 0; i < 16; i += 4) {
    memory.write_u32(status + i, 0);
  }
  hierarchy.dma_written(status, 16);
}

ImageOutputs read_image_outputs(const mem::GuestMemory& memory,
                                const isa::LinkedImage& image,
                                const ImageParams& params) {
  ImageOutputs outputs;
  const std::uint32_t status = image.symbol(kStatusSym).addr;
  outputs.processed_lenses = memory.read_u32(status);
  outputs.threshold = memory.read_u32(status + 4);
  const std::uint32_t wavefront = image.symbol(kWavefrontSym).addr;
  outputs.wavefront.resize(params.modes);
  for (std::uint32_t m = 0; m < params.modes; ++m) {
    outputs.wavefront[m] = memory.read_f64(wavefront + 8 * m);
  }
  return outputs;
}

ImageOutputs reference_image(const ImageParams& params,
                             const ImageInputs& inputs) {
  ImageOutputs outputs;
  const std::uint32_t lens_bytes = params.lens_bytes();
  // Brightness pass.
  std::vector<std::uint32_t> brightness(params.lens_count(), 0);
  std::uint32_t max_brightness = 0;
  for (std::uint32_t lens = 0; lens < params.lens_count(); ++lens) {
    std::uint32_t sum = 0;
    for (std::uint32_t p = 0; p < lens_bytes; ++p) {
      sum += inputs.frame[lens * lens_bytes + p];
    }
    brightness[lens] = sum;
    if (static_cast<std::int32_t>(sum) >
        static_cast<std::int32_t>(max_brightness)) {
      max_brightness = sum;
    }
  }
  outputs.threshold = max_brightness >> 1;
  outputs.wavefront.assign(params.modes, 0.0);
  // Selection + processing.
  const std::int32_t px = static_cast<std::int32_t>(params.lens_px);
  const std::int32_t window = static_cast<std::int32_t>(params.window);
  const std::int32_t corner = (px - window) / 2;
  for (std::uint32_t lens = 0; lens < params.lens_count(); ++lens) {
    if (brightness[lens] <= outputs.threshold) {
      continue;
    }
    ++outputs.processed_lenses;
    const std::uint8_t* pixels = inputs.frame.data() + lens * lens_bytes;
    // Coarse centroid.
    std::int32_t sum_x = 0;
    std::int32_t sum_y = 0;
    std::int32_t total = 0;
    for (std::int32_t y = 0; y < px; ++y) {
      for (std::int32_t x = 0; x < px; ++x) {
        const std::int32_t p = pixels[y * px + x];
        sum_x += p * x;
        sum_y += p * y;
        total += p;
      }
    }
    if (total <= 0) {
      total = 1;
    }
    const std::int32_t cx = sum_x / total;
    const std::int32_t cy = sum_y / total;
    // Fine window.
    double ox_acc = 0.0;
    double oy_acc = 0.0;
    double weight_total = 0.0;
    for (std::int32_t wy = 0; wy < window; ++wy) {
      for (std::int32_t wx = 0; wx < window; ++wx) {
        const double p = static_cast<double>(
            pixels[(corner + wy) * px + (corner + wx)]);
        ox_acc += static_cast<double>(corner + wx - cx) * p;
        oy_acc += static_cast<double>(corner + wy - cy) * p;
        weight_total += p;
      }
    }
    double ox = 0.0;
    double oy = 0.0;
    if (weight_total != 0.0) {
      ox = ox_acc / weight_total;
      oy = oy_acc / weight_total;
    }
    const double combined = ox + oy;
    for (std::uint32_t m = 0; m < params.modes; ++m) {
      outputs.wavefront[m] += image_weight(lens, m) * combined;
    }
  }
  return outputs;
}

} // namespace proxima::casestudy
