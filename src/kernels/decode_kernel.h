// celldecode on the SPE: SIC block rows (dequant + separable float IDCT +
// store) moved off the PPE.
//
// The PPE keeps what is serial: the disk read, the Huffman pass and a
// validating token scan that indexes every (channel, block row). What
// remains is data-parallel per block row, so it runs here, one block row
// of all three channels per call: a DMA list gets the row's three
// channel token windows, the SPU parses the tokens, dequantizes and runs
// the IDCT on vec_float4 lanes, and a second DMA list puts the eight
// finished interleaved RGB rows. The overlap is across calls: a stream's
// block rows spread over every extract lane of the steal loop.
//
// Pixels are bit-identical to img::sic_decode: the IDCT keeps the PPE
// decoder's float association (even and odd sums in the same order, the
// DC-only block as (dc * q * c00) * c00), and the store rounds half away
// from zero like std::lround (truncate, then compare the fraction).
#pragma once

#include <cstdint>
#include <vector>

#include "img/codec.h"
#include "kernels/messages.h"
#include "port/dispatcher.h"
#include "port/message.h"
#include "support/aligned.h"

namespace cellport::kernels {

/// The SPU_Run_Decode messages of one scanned image (img::SicDecoder
/// index mode, done): its quant table and one message per block row.
/// The buffers are reused from image to image; only one image's tasks
/// may be in flight at a time.
class DecodeTasks {
 public:
  /// Builds one task per block row of `dec`, writing into dec.image().
  /// False (and no task) when a block row does not fit the kernel's LS
  /// budget (kDecodeRowLsBytes) or a pixel row exceeds one DMA element:
  /// such an image decodes on the PPE.
  bool prepare(img::SicDecoder& dec);
  /// The message address of each task: eas()[by] decodes block row by.
  const std::vector<std::uint64_t>& eas() const { return eas_; }

 private:
  cellport::AlignedBuffer<std::int32_t> quant_;
  std::vector<port::WrappedMessage<DecodeMsg>> msgs_;
  std::vector<std::uint64_t> eas_;
};

/// Registers the decode entry point under SPU_Run_Decode, so block-row
/// tasks ride whichever extract SPEs the scenario already scheduled.
void register_decode(port::KernelModule& module);

}  // namespace cellport::kernels
