// The low-criticality image-processing task of the space case study
// (Section IV): "computes the wave front error using data from a collection
// of sensors ... The image processing computes the passive deformation of a
// mirror in a satellite instrument and comprises 2 phases.  During the
// former, a coarse offset is computed and while during the latter the
// offset is computed in a finer granularity."
//
// Inputs are "composed of 12x12 array of lenses of 34x34 pixels each.  Not
// every lens is processed, but only the most lightened ones which are
// around 70% of the total lenses", which makes the task duration directly
// input-dependent — the property that makes its timing analysis
// challenging.  The task is "both CPU intensive (significant amount of
// floating point operations) and memory intensive (many reads and writes to
// the pixels from the lenses)".
//
// Structure:
//   image_step       — per-frame unit of work
//   lens_brightness  — leaf: pixel sum of one lens
//   process_lens     — coarse integer centroid + fine FP sub-pixel offset
//   accumulate_modes — fold a lens offset into the wavefront-error vector
#pragma once

#include "isa/linker.hpp"
#include "isa/program.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"
#include "rng/random_source.hpp"

#include <cstdint>
#include <vector>

namespace proxima::casestudy {

struct ImageParams {
  std::uint32_t grid = 12;     // grid x grid lenses
  std::uint32_t lens_px = 34;  // lens_px x lens_px pixels per lens
  std::uint32_t modes = 48;    // wavefront modes
  std::uint32_t window = 9;    // fine-phase window (odd, < lens_px)
  double lit_fraction = 0.70;  // fraction of illuminated lenses

  std::uint32_t lens_count() const { return grid * grid; }
  std::uint32_t lens_bytes() const { return lens_px * lens_px; }
  std::uint32_t frame_bytes() const { return lens_count() * lens_bytes(); }
};

/// Build the image program.  Entry "image_main"; UoA "image_step".
isa::Program build_image_program(const ImageParams& params = {});

/// A sensor frame (host side stand-in for the instrument's optics).
struct ImageInputs {
  std::vector<std::uint8_t> frame; // frame_bytes()
  std::uint32_t lit_lenses = 0;    // ground truth (for tests)
};

ImageInputs make_image_inputs(rng::RandomSource& random,
                              const ImageParams& params);

/// Write the frame and clear the status record DMA-style, invalidating
/// each written range in `hierarchy` (LEON3 DMA is not cache-coherent).
void stage_image_inputs(mem::GuestMemory& memory,
                        mem::MemoryHierarchy& hierarchy,
                        const isa::LinkedImage& image,
                        const ImageInputs& inputs);

struct ImageOutputs {
  std::uint32_t processed_lenses = 0;
  std::uint32_t threshold = 0;
  std::vector<double> wavefront; // modes entries

  friend bool operator==(const ImageOutputs&, const ImageOutputs&) = default;
};

ImageOutputs read_image_outputs(const mem::GuestMemory& memory,
                                const isa::LinkedImage& image,
                                const ImageParams& params);

/// Host-side golden model, bit-exact mirror of the guest computation.
ImageOutputs reference_image(const ImageParams& params,
                             const ImageInputs& inputs);

/// Deterministic lens-to-mode influence weights embedded by the generator.
double image_weight(std::uint32_t lens, std::uint32_t mode);

} // namespace proxima::casestudy
