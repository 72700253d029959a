#include "control_task.hpp"

#include "isa/builder.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace proxima::casestudy {

using namespace proxima::isa;

namespace {

constexpr const char* kMatrixSym = "cs_matrix";
constexpr const char* kConstsSym = "cs_consts";
constexpr const char* kWavefrontSym = "cs_wavefront";
constexpr const char* kTelemetrySym = "cs_telemetry";
constexpr const char* kPacketsSym = "cs_packets";
constexpr const char* kCommandsSym = "cs_commands";
constexpr const char* kStatusSym = "cs_status";

constexpr std::uint32_t kL2WayBytes = 32 * 1024;
constexpr std::uint32_t kBlockBytes = 1024;
constexpr std::uint32_t kStatusBytes = 32;

// Every 8th replayed word (one packet) the recovery routine checkpoints
// its progress twice: to a stack slot (watchdog resume point) and to the
// telemetry mirror cell the spacecraft polls.  Two interleaved
// write-allocate streams thrash a direct-mapped L2 *only* when the two
// cells share a set — a 1-in-1024 placement.  kCotsBad pins exactly that
// congruence; DSR's random stack offsets dissolve it almost surely.
constexpr const char* kMirrorSym = "cs_mirror";
constexpr std::int32_t kProgressSlot = 64; // [sp + 64] inside the frame

// Fixed seeds for the persistent instrument state: the image init content
// and the host mirror are generated from the same streams.
constexpr std::uint64_t kTelemetryStateSeed = 0x7e1e6e7247;
constexpr std::uint64_t kPacketStateSeed = 0x9ac4e7;

void append_f64(std::vector<std::uint8_t>& bytes, double value) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  for (int shift = 56; shift >= 0; shift -= 8) {
    bytes.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
}

std::vector<std::uint8_t> telemetry_init_bytes(const ControlParams& params) {
  rng::SplitMix64 sm(kTelemetryStateSeed);
  std::vector<std::uint8_t> bytes(params.telemetry_bytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (i % 8 == 0) {
      const std::uint64_t word = sm.next();
      for (std::size_t b = 0; b < 8 && i + b < bytes.size(); ++b) {
        bytes[i + b] = static_cast<std::uint8_t>(word >> (56 - 8 * b));
      }
    }
  }
  return bytes;
}

std::vector<std::uint32_t> packet_init_words(const ControlParams& params) {
  rng::SplitMix64 sm(kPacketStateSeed);
  std::vector<std::uint32_t> words(params.packet_words, 0);
  for (std::uint32_t p = 0; p < params.packet_count(); ++p) {
    const std::uint32_t base = p * 8;
    words[base] = 0xa5000000u | p;
    std::uint32_t checksum = 0;
    for (std::uint32_t w = 1; w <= 6; ++w) {
      const std::uint32_t value = static_cast<std::uint32_t>(sm.next());
      words[base + w] = value;
      checksum ^= value;
    }
    words[base + 7] = checksum;
  }
  return words;
}

std::vector<std::uint8_t> matrix_init_bytes(const ControlParams& params) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(params.actuators * params.modes * 8);
  for (std::uint32_t a = 0; a < params.actuators; ++a) {
    for (std::uint32_t m = 0; m < params.modes; ++m) {
      append_f64(bytes, modes_matrix_entry(params, a, m));
    }
  }
  return bytes;
}

/// Countdown idiom: flags from (reg-1), then decrement, loop while > 0.
void loop_step(FunctionBuilder& fb, std::uint8_t counter,
               const std::string& label) {
  fb.subcci(counter, 1);
  fb.subi(counter, counter, 1);
  fb.bg(label);
}

Function build_control_main() {
  FunctionBuilder fb("control_main");
  fb.prologue(96);
  fb.call("control_step");
  fb.halt(); // one activation per partition start
  return std::move(fb).build();
}

Function build_control_step() {
  FunctionBuilder fb("control_step");
  fb.prologue(96);
  fb.call("elaborate_commands");
  fb.call("verify_matrix");     // integrity check right after use
  fb.call("process_telemetry"); // 12 KiB sweep: displaces the matrix in DL1
  fb.call("scan_packets");      // validation (+ rare recovery)
  fb.call("verify_matrix");     // post-interface integrity check
  fb.epilogue();
  return std::move(fb).build();
}

Function build_elaborate_commands(const ControlParams& params) {
  FunctionBuilder fb("elaborate_commands");
  fb.prologue(96);
  fb.load_address(kL0, kMatrixSym);
  fb.load_address(kL1, kWavefrontSym);
  fb.load_address(kL2, kCommandsSym);
  fb.load_address(kO5, kConstsSym);
  fb.ldf(10, kO5, 0);  // +limit
  fb.ldf(11, kO5, 8);  // -limit
  fb.li(kL3, static_cast<std::int32_t>(params.actuators));
  fb.label("act_loop");
  {
    fb.fitod(0, kG0); // accumulator = 0.0
    fb.li(kL4, static_cast<std::int32_t>(params.modes));
    fb.mov(kO0, kL1); // wavefront cursor
    fb.label("mac_loop");
    fb.ldf(1, kL0, 0);
    fb.ldf(2, kO0, 0);
    fb.fmuld(1, 1, 2);
    fb.faddd(0, 0, 1);
    fb.addi(kL0, kL0, 8);
    fb.addi(kO0, kO0, 8);
    loop_step(fb, kL4, "mac_loop");
    // Saturate to [-limit, +limit] (input-dependent branches).
    fb.fcmpd(0, 10);
    fb.branch(Opcode::kFble, "sat_hi_ok");
    fb.op3(Opcode::kFmovd, 0, 10, 0);
    fb.label("sat_hi_ok");
    fb.fcmpd(0, 11);
    fb.branch(Opcode::kFbge, "sat_lo_ok");
    fb.op3(Opcode::kFmovd, 0, 11, 0);
    fb.label("sat_lo_ok");
    fb.stf(0, kL2, 0);
    fb.addi(kL2, kL2, 8);
    loop_step(fb, kL3, "act_loop");
  }
  // FIR smoothing: y[a] = 0.75*y[a] + 0.25*y_sat[a-1], a = 1..A-1.
  fb.load_address(kL2, kCommandsSym);
  fb.ldf(12, kO5, 16); // 0.75
  fb.ldf(13, kO5, 24); // 0.25
  fb.ldf(4, kL2, 0);   // previous (pre-FIR) value
  fb.li(kL3, static_cast<std::int32_t>(params.actuators) - 1);
  fb.label("fir_loop");
  fb.addi(kL2, kL2, 8);
  fb.ldf(1, kL2, 0);
  fb.fmuld(2, 1, 12);
  fb.fmuld(3, 4, 13);
  fb.faddd(2, 2, 3);
  fb.stf(2, kL2, 0);
  fb.op3(Opcode::kFmovd, 4, 1, 0);
  loop_step(fb, kL3, "fir_loop");
  fb.epilogue();
  return std::move(fb).build();
}

/// Leaf telemetry mixers: o0 = chunk base, o1 = running state;
/// returns the new state in o0.  Three code variants (the interface
/// handlers of a real flight application are many and similar).
Function build_chunk_sum(const ControlParams& params, char variant) {
  FunctionBuilder fb(std::string("chunk_sum_") + variant);
  fb.li(kO2, static_cast<std::int32_t>(params.telemetry_chunk));
  fb.label("loop");
  fb.ldb(kO3, kO0, 0);
  switch (variant) {
  case 'a': // s = rotl(s + b, 1)
    fb.add(kO1, kO1, kO3);
    fb.slli(kO4, kO1, 1);
    fb.srli(kO5, kO1, 31);
    fb.op3(Opcode::kOr, kO1, kO4, kO5);
    break;
  case 'b': // s = rotl(s, 3) ^ b
    fb.slli(kO4, kO1, 3);
    fb.srli(kO5, kO1, 29);
    fb.op3(Opcode::kOr, kO1, kO4, kO5);
    fb.op3(Opcode::kXor, kO1, kO1, kO3);
    break;
  default: // 'c': s = rotl(s + 2*b, 5)
    fb.slli(kO4, kO3, 1);
    fb.add(kO1, kO1, kO4);
    fb.slli(kO4, kO1, 5);
    fb.srli(kO5, kO1, 27);
    fb.op3(Opcode::kOr, kO1, kO4, kO5);
    break;
  }
  fb.addi(kO0, kO0, 1);
  loop_step(fb, kO2, "loop");
  fb.mov(kO0, kO1);
  fb.ret_leaf();
  return std::move(fb).build();
}

Function build_process_telemetry(const ControlParams& params) {
  FunctionBuilder fb("process_telemetry");
  fb.prologue(96);
  // Byte window: chunk calls dispatched over the three mixing variants.
  fb.load_address(kL0, kTelemetrySym);
  fb.li(kL1, static_cast<std::int32_t>(params.telemetry_window /
                                       params.telemetry_chunk));
  fb.li(kL2, 0); // chunk index
  fb.li(kL3, 0); // state
  fb.label("chunk_loop");
  fb.mov(kO0, kL0);
  fb.mov(kO1, kL3);
  fb.opi(Opcode::kDivi, kO2, kL2, 3);
  fb.muli(kO3, kO2, 3);
  fb.sub(kO2, kL2, kO3); // chunk index mod 3
  fb.subcci(kO2, 0);
  fb.be("use_a");
  fb.subcci(kO2, 1);
  fb.be("use_b");
  fb.call("chunk_sum_c");
  fb.ba("chunk_done");
  fb.label("use_a");
  fb.call("chunk_sum_a");
  fb.ba("chunk_done");
  fb.label("use_b");
  fb.call("chunk_sum_b");
  fb.label("chunk_done");
  fb.mov(kL3, kO0);
  fb.addi(kL0, kL0, static_cast<std::int32_t>(params.telemetry_chunk));
  fb.addi(kL2, kL2, 1);
  fb.subcc(kL2, kL1);
  fb.bl("chunk_loop");
  // Word XOR pass over the full store.
  fb.load_address(kL0, kTelemetrySym);
  fb.li(kL1, static_cast<std::int32_t>(params.telemetry_bytes / 4));
  fb.li(kO3, 0);
  fb.label("word_loop");
  fb.ld(kO0, kL0, 0);
  fb.op3(Opcode::kXor, kO3, kO3, kO0);
  fb.addi(kL0, kL0, 4);
  loop_step(fb, kL1, "word_loop");
  fb.op3(Opcode::kXor, kL3, kL3, kO3);
  fb.load_address(kO1, kStatusSym);
  fb.st(kL3, kO1, 0);
  fb.epilogue();
  return std::move(fb).build();
}

Function build_verify_matrix(const ControlParams& params) {
  FunctionBuilder fb("verify_matrix");
  fb.prologue(96);
  fb.load_address(kL0, kMatrixSym);
  fb.li(kL1, static_cast<std::int32_t>(params.actuators * params.modes * 2));
  fb.li(kL2, 0);
  fb.label("vloop");
  fb.ld(kO0, kL0, 0);
  fb.op3(Opcode::kXor, kL2, kL2, kO0);
  fb.addi(kL0, kL0, 4);
  loop_step(fb, kL1, "vloop");
  fb.load_address(kO1, kStatusSym);
  fb.st(kL2, kO1, 16);
  fb.epilogue();
  return std::move(fb).build();
}

/// Leaf packet validators: o0 = packet base; returns the payload XOR in
/// o0.  Four handler variants selected by the packet type field.
Function build_validator(int type) {
  FunctionBuilder fb("validate_t" + std::to_string(type));
  // All four compute the same XOR over words +4..+24, in different orders
  // (XOR is commutative) — distinct code bodies, identical results.
  static constexpr std::int32_t kOrders[4][6] = {
      {4, 8, 12, 16, 20, 24},
      {24, 20, 16, 12, 8, 4},
      {4, 16, 8, 20, 12, 24},
      {12, 4, 20, 24, 8, 16},
  };
  fb.ld(kO1, kO0, kOrders[type][0]);
  for (int i = 1; i < 6; ++i) {
    fb.ld(kO2, kO0, kOrders[type][i]);
    fb.op3(Opcode::kXor, kO1, kO1, kO2);
  }
  fb.mov(kO0, kO1);
  fb.ret_leaf();
  return std::move(fb).build();
}

Function build_scan_packets(const ControlParams& params) {
  FunctionBuilder fb("scan_packets");
  fb.prologue(96);
  fb.load_address(kL0, kPacketsSym);
  fb.li(kL1, static_cast<std::int32_t>(params.packet_count()));
  fb.li(kL2, 0); // valid packets
  fb.li(kL5, 0); // recoveries
  fb.label("pkt_loop");
  fb.ld(kO1, kL0, 0); // header
  fb.andi(kO2, kO1, 3);
  fb.mov(kO0, kL0);
  fb.subcci(kO2, 1);
  fb.bl("use_t0"); // type 0
  fb.be("use_t1"); // type 1
  fb.subcci(kO2, 3);
  fb.bl("use_t2"); // type 2
  fb.call("validate_t3");
  fb.ba("have_ck");
  fb.label("use_t2");
  fb.call("validate_t2");
  fb.ba("have_ck");
  fb.label("use_t1");
  fb.call("validate_t1");
  fb.ba("have_ck");
  fb.label("use_t0");
  fb.call("validate_t0");
  fb.label("have_ck");
  fb.ld(kO1, kL0, 28); // stored checksum
  fb.subcc(kO0, kO1);
  fb.be("pkt_ok");
  // Corrupt packet: replay its 1 KiB block through the recovery path.
  fb.li(kO2, -static_cast<std::int32_t>(kBlockBytes));
  fb.op3(Opcode::kAnd, kO0, kL0, kO2); // block base (packets 1K-aligned)
  fb.call("recover_packets");
  fb.addi(kL5, kL5, 1);
  fb.ba("pkt_next");
  fb.label("pkt_ok");
  fb.addi(kL2, kL2, 1);
  fb.label("pkt_next");
  fb.addi(kL0, kL0, 32);
  loop_step(fb, kL1, "pkt_loop");
  fb.load_address(kO1, kStatusSym);
  fb.st(kL2, kO1, 4);
  fb.st(kL5, kO1, 8);
  fb.epilogue();
  return std::move(fb).build();
}

Function build_recover_packets(const ControlParams& params,
                               const ControlStackInfo& stack) {
  FunctionBuilder fb("recover_packets");
  // Frame sized so the COTS scratch ring lands 1 KiB-aligned (see
  // ControlStackInfo): 96-byte save area + 4 KiB scratch ring + padding.
  fb.prologue(stack.recover_frame);
  fb.li(kL4, static_cast<std::int32_t>(params.recovery_passes));
  fb.li(kL3, 0); // accumulator
  fb.li(kL6, 0); // ring offset: each pass replays into a fresh 1 KiB slot
  fb.load_address(kL5, kMirrorSym); // spacecraft-visible progress mirror
  fb.label("pass_loop");
  fb.mov(kL0, kI0);      // source: corrupt block base
  fb.addi(kL1, kSp, 96); // scratch ring base on the (randomised) stack
  fb.add(kL1, kL1, kL6);
  fb.li(kL2, static_cast<std::int32_t>(params.block_words()));
  fb.label("replay_loop");
  fb.ld(kO0, kL0, 0);
  fb.st(kO0, kL1, 0);
  fb.ld(kO1, kL1, 0);
  fb.add(kL3, kL3, kO1);
  // Per-packet checkpoint: resume point on the stack + telemetry mirror.
  fb.andi(kO4, kL2, 7);
  fb.subcci(kO4, 1);
  fb.bne("no_ckpt");
  fb.st(kL3, kSp, kProgressSlot);
  fb.st(kL3, kL5, 0);
  fb.label("no_ckpt");
  fb.addi(kL0, kL0, 4);
  fb.addi(kL1, kL1, 4);
  loop_step(fb, kL2, "replay_loop");
  fb.addi(kL6, kL6, static_cast<std::int32_t>(kBlockBytes));
  fb.andi(kL6, kL6,
          static_cast<std::int32_t>(stack.scratch_ring_bytes - 1));
  loop_step(fb, kL4, "pass_loop");
  fb.load_address(kO1, kStatusSym);
  fb.st(kL3, kO1, 12);
  fb.epilogue();
  return std::move(fb).build();
}

} // namespace

double modes_matrix_entry(const ControlParams& params, std::uint32_t actuator,
                          std::uint32_t mode) {
  (void)params;
  const std::int32_t hash =
      static_cast<std::int32_t>((actuator * 31 + mode * 17) % 97) - 48;
  return static_cast<double>(hash) / 64.0;
}

isa::Program build_control_program(const ControlParams& params) {
  if (params.telemetry_bytes % 4 != 0 ||
      params.telemetry_window > params.telemetry_bytes ||
      params.telemetry_window % params.telemetry_chunk != 0 ||
      params.telemetry_chunk == 0 ||
      params.telemetry_bytes % params.telemetry_chunk != 0) {
    throw std::invalid_argument("inconsistent telemetry geometry");
  }
  if (params.packet_words % params.block_words() != 0) {
    throw std::invalid_argument("packet words must fill whole blocks");
  }
  if (params.protocol_block >= params.block_count()) {
    throw std::invalid_argument("protocol block outside the packet buffer");
  }
  const ControlStackInfo stack;

  Program program;
  program.functions.push_back(build_control_main());
  program.functions.push_back(build_control_step());
  program.functions.push_back(build_elaborate_commands(params));
  program.functions.push_back(build_process_telemetry(params));
  program.functions.push_back(build_chunk_sum(params, 'a'));
  program.functions.push_back(build_chunk_sum(params, 'b'));
  program.functions.push_back(build_chunk_sum(params, 'c'));
  program.functions.push_back(build_verify_matrix(params));
  program.functions.push_back(build_scan_packets(params));
  for (int t = 0; t < 4; ++t) {
    program.functions.push_back(build_validator(t));
  }
  program.functions.push_back(build_recover_packets(params, stack));
  program.entry = "control_main";

  std::vector<std::uint8_t> matrix_bytes = matrix_init_bytes(params);
  program.data.push_back(DataObject{.name = kMatrixSym,
                                    .size = static_cast<std::uint32_t>(
                                        matrix_bytes.size()),
                                    .align = 64,
                                    .init = std::move(matrix_bytes)});

  std::vector<std::uint8_t> consts;
  append_f64(consts, params.command_limit);
  append_f64(consts, -params.command_limit);
  append_f64(consts, 0.75);
  append_f64(consts, 0.25);
  program.data.push_back(DataObject{
      .name = kConstsSym, .size = 32, .align = 64, .init = std::move(consts)});

  program.data.push_back(DataObject{
      .name = kWavefrontSym, .size = params.modes * 8, .align = 64});
  program.data.push_back(DataObject{.name = kTelemetrySym,
                                    .size = params.telemetry_bytes,
                                    .align = 64,
                                    .init = telemetry_init_bytes(params)});
  std::vector<std::uint8_t> packet_bytes;
  packet_bytes.reserve(params.packet_words * 4);
  for (const std::uint32_t word : packet_init_words(params)) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      packet_bytes.push_back(static_cast<std::uint8_t>(word >> shift));
    }
  }
  program.data.push_back(DataObject{.name = kPacketsSym,
                                    .size = params.packet_words * 4,
                                    .align = kBlockBytes,
                                    .init = std::move(packet_bytes)});
  program.data.push_back(DataObject{
      .name = kCommandsSym, .size = params.actuators * 8, .align = 64});
  program.data.push_back(
      DataObject{.name = kStatusSym, .size = kStatusBytes, .align = 64});
  program.data.push_back(
      DataObject{.name = kMirrorSym, .size = 64, .align = 32});
  return program;
}

isa::LinkOptions control_layout(const ControlParams& params, Layout layout,
                                std::uint32_t stack_top) {
  (void)params;
  const ControlStackInfo stack;
  if (stack_top % kL2WayBytes != 0) {
    throw std::invalid_argument(
        "stack top must be 32K-aligned so the set arithmetic of the "
        "engineered layout holds");
  }
  const std::uint32_t ring = stack.scratch_addr(stack_top);
  const std::uint32_t ring_mod = ring % kL2WayBytes; // 27648 by construction
  // The COTS recovery progress word: its L2 set is the bad-and-rare target.
  const std::uint32_t progress_line =
      (stack.progress_addr(stack_top) % kL2WayBytes) & ~31u; // 27616

  // The persistent data (12K matrix + 12K telemetry + 8K packets) fills the
  // 32 KiB L2 way exactly; placement decides what the recovery scratch ring
  // aliases with.  R is a 32K-aligned region away from the default bases.
  LinkOptions options;
  const std::uint32_t region = 0x4019'0000; // 32K-aligned
  switch (layout) {
  case Layout::kCotsBad:
    // The paper's bad-and-rare layout: the matrix occupies the way's last
    // 12 KiB — exactly where the (deterministic) scratch ring lives.  A
    // corrupt-input activation dirties 4 KiB of matrix-congruent sets, and
    // the following verify_matrix sweep pays for every line.
    options.placement[kTelemetrySym] = region + 0;       // sets 0..12287
    options.placement[kPacketsSym] = region + 12288;     // 12288..20479
    options.placement[kMatrixSym] = region + 20480;      // 20480..32767
    // Hot small data parked inside the ring's set range: untouched except
    // during recoveries.
    options.placement[kConstsSym] = region + 0x8000 + ring_mod + 1024;
    options.placement[kWavefrontSym] = region + 0x8000 + ring_mod + 1088;
    options.placement[kCommandsSym] = region + 0x8000 + ring_mod + 1472;
    options.placement[kStatusSym] = region + 0x8000 + ring_mod + 1728;
    // The telemetry mirror cell shares its L2 set with the (deterministic)
    // recovery progress word: a 1-in-1024 placement — bad and rare.
    options.placement[kMirrorSym] = region + 0x10000 + progress_line;
    break;
  case Layout::kNeutral:
    // Same buffers, rotated so the ring aliases the packet buffer instead
    // (read once per activation): the corrupt-run damage is far smaller.
    options.placement[kMatrixSym] = region + 31744; // wraps: 31744..11263
    options.placement[kTelemetrySym] = region + 0x8000 + 11264;
    options.placement[kPacketsSym] = region + 0x8000 + 23552;
    options.placement[kConstsSym] = region + 0x18000 + 11264;
    options.placement[kWavefrontSym] = region + 0x18000 + 11328;
    options.placement[kCommandsSym] = region + 0x18000 + 11712;
    options.placement[kStatusSym] = region + 0x18000 + 11968;
    options.placement[kMirrorSym] = region + 0x18000 + 12032;
    break;
  }
  // COTS code sits over the telemetry sets (swept twice per activation):
  // every run's cold instruction fetches must refill from DRAM, giving the
  // slightly higher steady-state miss ratio Table I shows for the COTS
  // binary.  The neutral layout parks code over the packet sets instead.
  options.code_base =
      layout == Layout::kCotsBad ? 0x4000'0000 : 0x4000'5C00;
  return options;
}

ControlInputs initial_control_inputs(const ControlParams& params) {
  ControlInputs inputs;
  inputs.wavefront.assign(params.modes, 0.0);
  inputs.telemetry = telemetry_init_bytes(params);
  inputs.packets = packet_init_words(params);
  inputs.corrupt = false;
  inputs.telemetry_dirty_bytes = 0;
  inputs.packets_dirty = false;
  inputs.chunk_cursor = 0;
  return inputs;
}

void mark_control_inputs_fully_dirty(ControlInputs& inputs) {
  inputs.telemetry_dirty_offset = 0;
  inputs.telemetry_dirty_bytes =
      static_cast<std::uint32_t>(inputs.telemetry.size());
  inputs.packets_dirty = true;
}

void refresh_control_inputs(rng::RandomSource& random,
                            const ControlParams& params, ControlInputs& io) {
  for (double& w : io.wavefront) {
    w = rng::sample_normal(random, 0.0, 1.0);
  }
  // One fresh telemetry chunk, rotating through the store.
  io.telemetry_dirty_offset = io.chunk_cursor;
  io.telemetry_dirty_bytes = params.telemetry_chunk;
  for (std::uint32_t i = 0; i < params.telemetry_chunk; i += 4) {
    const std::uint32_t word = random.next_u32();
    for (std::uint32_t b = 0; b < 4; ++b) {
      io.telemetry[io.chunk_cursor + i + b] =
          static_cast<std::uint8_t>(word >> (24 - 8 * b));
    }
  }
  io.chunk_cursor =
      (io.chunk_cursor + params.telemetry_chunk) % params.telemetry_bytes;
  // Re-stage the protocol's mode-change block with fresh packets.
  const std::uint32_t block_first_word =
      params.protocol_block * params.block_words();
  const std::uint32_t packets_per_block = params.block_words() / 8;
  const std::uint32_t first_packet = block_first_word / 8;
  for (std::uint32_t p = 0; p < packets_per_block; ++p) {
    const std::uint32_t base = (first_packet + p) * 8;
    io.packets[base] = 0xa5000000u | (first_packet + p);
    std::uint32_t checksum = 0;
    for (std::uint32_t w = 1; w <= 6; ++w) {
      const std::uint32_t value = random.next_u32();
      io.packets[base + w] = value;
      checksum ^= value;
    }
    io.packets[base + 7] = checksum;
  }
  io.packets_dirty = true;
  io.corrupt = random.next_double() < params.corrupt_rate;
  if (io.corrupt) {
    const std::uint32_t victim =
        first_packet + random.next_below(packets_per_block);
    io.packets[victim * 8 + 3] ^= 0x10u; // payload bit flip
  }
}

void stage_control_inputs(mem::GuestMemory& memory,
                          mem::MemoryHierarchy& hierarchy,
                          const isa::LinkedImage& image,
                          const ControlInputs& inputs) {
  const std::uint32_t wf = image.symbol(kWavefrontSym).addr;
  for (std::size_t m = 0; m < inputs.wavefront.size(); ++m) {
    memory.write_f64(wf + static_cast<std::uint32_t>(8 * m),
                     inputs.wavefront[m]);
  }
  hierarchy.dma_written(
      wf, static_cast<std::uint32_t>(8 * inputs.wavefront.size()));

  if (inputs.telemetry_dirty_bytes != 0) {
    const std::uint32_t base =
        image.symbol(kTelemetrySym).addr + inputs.telemetry_dirty_offset;
    for (std::uint32_t i = 0; i < inputs.telemetry_dirty_bytes; ++i) {
      memory.write_u8(base + i,
                      inputs.telemetry[inputs.telemetry_dirty_offset + i]);
    }
    hierarchy.dma_written(base, inputs.telemetry_dirty_bytes);
  }

  if (inputs.packets_dirty) {
    // Only the protocol block is re-staged (the rest is persistent state);
    // locate it from the dirty packets themselves.
    const std::uint32_t packets_addr = image.symbol(kPacketsSym).addr;
    // Find the block by scanning for the refreshed header range: the
    // protocol block is fixed, so recompute its extent directly.
    // (All packets in the buffer share the layout; write the whole block.)
    // The caller's ControlParams are implicit in vector sizes.
    const std::uint32_t block_words = 256;
    const std::uint32_t blocks =
        static_cast<std::uint32_t>(inputs.packets.size()) / block_words;
    // The refreshed block is the one whose header timestamps changed; we
    // simply re-write the block that the params designate.  To stay
    // self-contained, rewrite every block whose first header matches the
    // refresh pattern — cheap: compare against memory.
    for (std::uint32_t blk = 0; blk < blocks; ++blk) {
      const std::uint32_t first = blk * block_words;
      bool differs = false;
      for (std::uint32_t w = 0; w < block_words && !differs; ++w) {
        if (memory.read_u32(packets_addr + 4 * (first + w)) !=
            inputs.packets[first + w]) {
          differs = true;
        }
      }
      if (!differs) {
        continue;
      }
      for (std::uint32_t w = 0; w < block_words; ++w) {
        memory.write_u32(packets_addr + 4 * (first + w),
                         inputs.packets[first + w]);
      }
      hierarchy.dma_written(packets_addr + 4 * first, block_words * 4);
    }
  }

  // Fresh run: clear outputs.
  const std::uint32_t status = image.symbol(kStatusSym).addr;
  for (std::uint32_t i = 0; i < kStatusBytes; i += 4) {
    memory.write_u32(status + i, 0);
  }
  hierarchy.dma_written(status, kStatusBytes);
  const std::uint32_t mirror = image.symbol(kMirrorSym).addr;
  memory.write_u32(mirror, 0);
  hierarchy.dma_written(mirror, 4);
}

ControlOutputs read_control_outputs(const mem::GuestMemory& memory,
                                    const isa::LinkedImage& image,
                                    const ControlParams& params) {
  ControlOutputs outputs;
  const std::uint32_t commands = image.symbol(kCommandsSym).addr;
  outputs.commands.resize(params.actuators);
  for (std::uint32_t a = 0; a < params.actuators; ++a) {
    outputs.commands[a] = memory.read_f64(commands + 8 * a);
  }
  const std::uint32_t status = image.symbol(kStatusSym).addr;
  outputs.telemetry_signature = memory.read_u32(status);
  outputs.packets_ok = memory.read_u32(status + 4);
  outputs.recoveries = memory.read_u32(status + 8);
  outputs.recovery_accumulator = memory.read_u32(status + 12);
  outputs.matrix_signature = memory.read_u32(status + 16);
  outputs.recovery_mirror = memory.read_u32(image.symbol(kMirrorSym).addr);
  return outputs;
}

ControlOutputs reference_control(const ControlParams& params,
                                 const ControlInputs& inputs) {
  ControlOutputs outputs;
  // elaborate_commands: MAC, saturation, FIR — in guest operation order.
  outputs.commands.resize(params.actuators);
  for (std::uint32_t a = 0; a < params.actuators; ++a) {
    double acc = 0.0;
    for (std::uint32_t m = 0; m < params.modes; ++m) {
      acc += modes_matrix_entry(params, a, m) * inputs.wavefront[m];
    }
    if (!(acc <= params.command_limit)) {
      acc = params.command_limit;
    }
    if (!(acc >= -params.command_limit)) {
      acc = -params.command_limit;
    }
    outputs.commands[a] = acc;
  }
  double previous = outputs.commands[0];
  for (std::uint32_t a = 1; a < params.actuators; ++a) {
    const double original = outputs.commands[a];
    outputs.commands[a] = original * 0.75 + previous * 0.25;
    previous = original;
  }
  // process_telemetry: chunk mixers over the window, then the word pass.
  std::uint32_t state = 0;
  const std::uint32_t chunks =
      params.telemetry_window / params.telemetry_chunk;
  const auto rotl = [](std::uint32_t v, int k) {
    return (v << k) | (v >> (32 - k));
  };
  for (std::uint32_t c = 0; c < chunks; ++c) {
    const std::uint32_t base = c * params.telemetry_chunk;
    switch (c % 3) {
    case 0:
      for (std::uint32_t i = 0; i < params.telemetry_chunk; ++i) {
        state = rotl(state + inputs.telemetry[base + i], 1);
      }
      break;
    case 1:
      for (std::uint32_t i = 0; i < params.telemetry_chunk; ++i) {
        state = rotl(state, 3) ^ inputs.telemetry[base + i];
      }
      break;
    default:
      for (std::uint32_t i = 0; i < params.telemetry_chunk; ++i) {
        state = rotl(state +
                         (static_cast<std::uint32_t>(
                              inputs.telemetry[base + i])
                          << 1),
                     5);
      }
      break;
    }
  }
  std::uint32_t words_xor = 0;
  for (std::size_t i = 0; i < inputs.telemetry.size(); i += 4) {
    std::uint32_t word = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      word = (word << 8) | inputs.telemetry[i + b];
    }
    words_xor ^= word;
  }
  outputs.telemetry_signature = state ^ words_xor;
  // verify_matrix: XOR of the matrix words (both calls produce the same).
  std::uint32_t matrix_sig = 0;
  for (std::uint32_t a = 0; a < params.actuators; ++a) {
    for (std::uint32_t m = 0; m < params.modes; ++m) {
      const std::uint64_t bits =
          std::bit_cast<std::uint64_t>(modes_matrix_entry(params, a, m));
      matrix_sig ^= static_cast<std::uint32_t>(bits >> 32);
      matrix_sig ^= static_cast<std::uint32_t>(bits);
    }
  }
  outputs.matrix_signature = matrix_sig;
  // scan_packets / recover_packets.
  outputs.packets_ok = 0;
  outputs.recoveries = 0;
  outputs.recovery_accumulator = 0;
  for (std::uint32_t p = 0; p < params.packet_count(); ++p) {
    const std::uint32_t base = p * 8;
    std::uint32_t checksum = 0;
    for (std::uint32_t w = 1; w <= 6; ++w) {
      checksum ^= inputs.packets[base + w];
    }
    if (checksum == inputs.packets[base + 7]) {
      ++outputs.packets_ok;
    } else {
      ++outputs.recoveries;
      const std::uint32_t block_start =
          (base / params.block_words()) * params.block_words();
      std::uint32_t acc = 0;
      for (std::uint32_t pass = 0; pass < params.recovery_passes; ++pass) {
        for (std::uint32_t w = 0; w < params.block_words(); ++w) {
          acc += inputs.packets[block_start + w];
          if ((w & 7u) == 7u) {
            // Per-packet checkpoint: the mirror holds the running total.
            outputs.recovery_mirror = acc;
          }
        }
      }
      outputs.recovery_accumulator = acc;
    }
  }
  return outputs;
}

} // namespace proxima::casestudy
