#include "textflag.h"
#include "funcdata.h"

// AVX2 leaves of the GEMM kernels (see gemm_amd64.go). gemm_amd64.go
// calls them only when hasAVX2 reported AVX2 with OS-saved YMM state, and
// runs the Go loops of gemm.go otherwise. Every lane runs the scalar
// sequence of the Go loops it replaces: one rounded VMULPS, then one
// rounded VADDPS, never a fused multiply-add, so the results are bitwise
// identical. Every instruction is VEX-encoded, and every leaf ends with
// VZEROUPPER, so no SSE code after it pays a transition penalty.

// func hasAVX2() bool
//
// CPUID leaf 1 must report OSXSAVE and AVX, XGETBV must show the OS saving
// the XMM and YMM state (XCR0 bits 1 and 2), and CPUID leaf 7 must report
// AVX2 (EBX bit 5).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  done
	MOVB $1, ret+0(FP)

done:
	RET

// func axpyAVX2(dst, x []float32, a float32)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSS a+48(FP), Y0
	MOVQ         CX, BX
	SHRQ         $3, BX
	JZ           tail

loop8:
	VMULPS  (SI), Y0, Y1
	VMOVUPS (DI), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    BX
	JNZ     loop8

tail:
	ANDQ $7, CX
	JZ   done

loop1:
	VMULSS (SI), X0, X1
	VMOVSS (DI), X2
	VADDSS X1, X2, X2
	VMOVSS X2, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET

// MADD16 adds one k step's products into one row of a 4×16 block: the
// row's a value at OFF(R12) broadcast, times the b row in Y8:Y9, added
// into the row's accumulators LO:HI.
#define MADD16(OFF, LO, HI) \
	VBROADCASTSS OFF(R12), Y12; \
	VMULPS       Y8, Y12, Y13;  \
	VMULPS       Y9, Y12, Y12;  \
	VADDPS       Y13, LO, LO;   \
	VADDPS       Y12, HI, HI

// MADD8 is MADD16 for a 4×8 block: b row in Y8, one accumulator per row.
#define MADD8(OFF, ACC) \
	VBROADCASTSS OFF(R12), Y12; \
	VMULPS       Y8, Y12, Y12;  \
	VADDPS       Y12, ACC, ACC

// ZEROMASK sets CX to the mask of this step's four a values at (R12) that
// are ±0, bit r for row r, and jumps to MASKED if any is.
#define ZEROMASK(MASKED) \
	VMOVUPS   (R12), X10;          \
	VXORPS    X11, X11, X11;       \
	VCMPPS    $0, X11, X10, X11;   \
	VMOVMSKPS X11, CX;             \
	TESTL     CX, CX;              \
	JNZ       MASKED

// func panel4x16(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, k, n8 int)
//
// For each pair of n8's blocks of eight columns, Y0..Y7 hold the 4×16
// block of dst (row r in Y(2r):Y(2r+1)) across all k steps; an odd last
// block takes the same steps on a 4×8 block (row r in Y(2r)). Step t reads
// the four a values a[t·lda : t·lda+4] and the b row b[t·ldb : ...], block
// offset added. A step with a ±0 a value takes the masked path, which
// leaves that row alone. Strides are in floats.
TEXT ·panel4x16(SB), NOSPLIT, $0-112
	MOVQ  dst_base+0(FP), DI
	MOVQ  ldd+24(FP), R8
	MOVQ  a_base+32(FP), SI
	MOVQ  lda+56(FP), R9
	MOVQ  b_base+64(FP), DX
	MOVQ  ldb+88(FP), R10
	MOVQ  n8+104(FP), BX
	SHLQ  $2, R8
	SHLQ  $2, R9
	SHLQ  $2, R10
	LEAQ  (R8)(R8*2), R11 // byte offset of dst row 3
	CMPQ  BX, $2
	JLT   half

block16:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS 32(DI)(R8*1), Y3
	VMOVUPS (DI)(R8*2), Y4
	VMOVUPS 32(DI)(R8*2), Y5
	VMOVUPS (DI)(R11*1), Y6
	VMOVUPS 32(DI)(R11*1), Y7
	MOVQ    SI, R12 // a values of step t
	MOVQ    DX, R13 // b row of step t
	MOVQ    k+96(FP), AX
	TESTQ   AX, AX
	JZ      store16

step16:
	VMOVUPS (R13), Y8
	VMOVUPS 32(R13), Y9
	ZEROMASK(masked16)
	MADD16(0, Y0, Y1)
	MADD16(4, Y2, Y3)
	MADD16(8, Y4, Y5)
	MADD16(12, Y6, Y7)

next16:
	ADDQ R9, R12
	ADDQ R10, R13
	DECQ AX
	JNZ  step16

store16:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y3, 32(DI)(R8*1)
	VMOVUPS Y4, (DI)(R8*2)
	VMOVUPS Y5, 32(DI)(R8*2)
	VMOVUPS Y6, (DI)(R11*1)
	VMOVUPS Y7, 32(DI)(R11*1)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $2, BX
	CMPQ    BX, $2
	JGE     block16

half:
	TESTQ   BX, BX
	JZ      done
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS (DI)(R8*2), Y4
	VMOVUPS (DI)(R11*1), Y6
	MOVQ    SI, R12
	MOVQ    DX, R13
	MOVQ    k+96(FP), AX
	TESTQ   AX, AX
	JZ      store8

step8:
	VMOVUPS (R13), Y8
	ZEROMASK(masked8)
	MADD8(0, Y0)
	MADD8(4, Y2)
	MADD8(8, Y4)
	MADD8(12, Y6)

next8:
	ADDQ R9, R12
	ADDQ R10, R13
	DECQ AX
	JNZ  step8

store8:
	VMOVUPS Y0, (DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y4, (DI)(R8*2)
	VMOVUPS Y6, (DI)(R11*1)

done:
	VZEROUPPER
	RET

masked16:
	TESTL $1, CX
	JNZ   skip16r0
	MADD16(0, Y0, Y1)

skip16r0:
	TESTL $2, CX
	JNZ   skip16r1
	MADD16(4, Y2, Y3)

skip16r1:
	TESTL $4, CX
	JNZ   skip16r2
	MADD16(8, Y4, Y5)

skip16r2:
	TESTL $8, CX
	JNZ   next16
	MADD16(12, Y6, Y7)
	JMP   next16

masked8:
	TESTL $1, CX
	JNZ   skip8r0
	MADD8(0, Y0)

skip8r0:
	TESTL $2, CX
	JNZ   skip8r1
	MADD8(4, Y2)

skip8r1:
	TESTL $4, CX
	JNZ   skip8r2
	MADD8(8, Y4)

skip8r2:
	TESTL $8, CX
	JNZ   next8
	MADD8(12, Y6)
	JMP   next8

// func panel4x16Packed(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, k, n8 int)
//
// panel4x16 over four rows of a stored row-major (row r at a[r·lda:],
// k ≤ packK steps): it packs them transposed, four a values per step, into
// its own frame, which Go does not zero, and calls panel4x16 on the copy.
TEXT ·panel4x16Packed(SB), $4208-112
	NO_LOCAL_POINTERS
	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), R9
	MOVQ k+96(FP), CX
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R8 // byte offset of a row 3
	LEAQ 112(SP), DI    // the packed panel, past panel4x16's arguments
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   call

pack:
	MOVL (SI), R10
	MOVL (SI)(R9*1), R11
	MOVL (SI)(R9*2), R12
	MOVL (SI)(R8*1), R13
	MOVL R10, (DI)
	MOVL R11, 4(DI)
	MOVL R12, 8(DI)
	MOVL R13, 12(DI)
	ADDQ $4, SI
	ADDQ $16, DI
	DECQ AX
	JNZ  pack

call:
	MOVQ dst_base+0(FP), AX
	MOVQ AX, 0(SP)
	MOVQ dst_len+8(FP), AX
	MOVQ AX, 8(SP)
	MOVQ dst_cap+16(FP), AX
	MOVQ AX, 16(SP)
	MOVQ ldd+24(FP), AX
	MOVQ AX, 24(SP)
	LEAQ 112(SP), AX
	MOVQ AX, 32(SP)
	MOVQ CX, AX
	SHLQ $2, AX
	MOVQ AX, 40(SP)
	MOVQ AX, 48(SP)
	MOVQ $4, 56(SP)
	MOVQ b_base+64(FP), AX
	MOVQ AX, 64(SP)
	MOVQ b_len+72(FP), AX
	MOVQ AX, 72(SP)
	MOVQ b_cap+80(FP), AX
	MOVQ AX, 80(SP)
	MOVQ ldb+88(FP), AX
	MOVQ AX, 88(SP)
	MOVQ CX, 96(SP)
	MOVQ n8+104(FP), AX
	MOVQ AX, 104(SP)
	CALL ·panel4x16(SB)
	RET

// btK is the number of k steps panelBT's frame holds: 8 floats each.
#define btK 256

// ADDROW adds the four sums in SRC into the dst row at R9, then moves R9
// to the next row, or jumps to stored once R14 rows are done.
#define ADDROW(SRC) \
	VMOVUPS (R9), X4;    \
	VADDPS  SRC, X4, X4; \
	VMOVUPS X4, (R9);    \
	DECQ    R14;         \
	JZ      stored;      \
	ADDQ    R8, R9

// func panelBT(dst []float32, ldd int, a []float32, lda, h int, b []float32, ldb, k, n4 int)
//
// For each of n4 groups of four b rows (b_j at b[j·ldb:]), Y0..Y3 start at
// +0 and accumulate the group's dot products with h ≤ 8 rows of a (row r
// at a[r·lda:]): lane r of Y_l is a_r·b_l. The rows of a are packed once,
// transposed, into a k×8 panel in the frame (rows past h repeat row h−1,
// and their lanes are discarded), so each step is one load of the panel,
// four broadcasts of b_l[t], four VMULPS and four VADDPS. At the end of a
// group the four accumulators are transposed and added into dst, row r
// columns j..j+3. When k exceeds the panel's btK steps, each group packs
// and runs the steps btK at a time, its accumulators held in registers.
TEXT ·panelBT(SB), $8192-120
	NO_LOCAL_POINTERS
	MOVQ  dst_base+0(FP), DI
	MOVQ  b_base+72(FP), DX
	MOVQ  ldb+96(FP), R10
	SHLQ  $2, R10
	LEAQ  (R10)(R10*2), R11 // byte offset of b row 3
	MOVQ  n4+112(FP), BX
	TESTQ BX, BX
	JZ    done

group:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   CX, CX // k0, the chunk's first step

chunk:
	MOVQ k+104(FP), AX
	SUBQ CX, AX
	CMPQ AX, $btK
	JLE  sized
	MOVQ $btK, AX // AX = kc, the chunk's steps

sized:
	// Later groups reuse the panel when one chunk holds every step.
	CMPQ BX, n4+112(FP)
	JEQ  pack
	CMPQ k+104(FP), $btK
	JLE  run

pack:
	MOVQ a_base+32(FP), SI
	LEAQ (SI)(CX*4), SI // row 0, step k0
	LEAQ 0(SP), R12     // lane 0 of the panel
	XORQ R14, R14       // r

packrow:
	MOVQ  SI, R9
	MOVQ  R12, R13
	MOVQ  AX, R8
	TESTQ R8, R8
	JZ    packnext

packstep:
	VMOVSS (R9), X4
	VMOVSS X4, (R13)
	ADDQ $4, R9
	ADDQ $32, R13
	DECQ R8
	JNZ  packstep

packnext:
	ADDQ $4, R12
	INCQ R14
	CMPQ R14, $8
	JEQ  run
	CMPQ R14, h+64(FP)
	JGE  packrow // past h: repeat the last row
	MOVQ lda+56(FP), R9
	LEAQ (SI)(R9*4), SI
	JMP  packrow

run:
	LEAQ  0(SP), R12
	LEAQ  (DX)(CX*4), R13 // b row j, step k0
	MOVQ  AX, SI
	TESTQ SI, SI
	JZ    chunkdone

step:
	VMOVUPS      (R12), Y4
	VBROADCASTSS (R13), Y5
	VBROADCASTSS (R13)(R10*1), Y6
	VBROADCASTSS (R13)(R10*2), Y7
	VBROADCASTSS (R13)(R11*1), Y8
	VMULPS       Y4, Y5, Y5
	VMULPS       Y4, Y6, Y6
	VMULPS       Y4, Y7, Y7
	VMULPS       Y4, Y8, Y8
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3
	ADDQ         $32, R12
	ADDQ         $4, R13
	DECQ         SI
	JNZ          step

chunkdone:
	ADDQ AX, CX
	CMPQ CX, k+104(FP)
	JLT  chunk

	// Transpose: row r of the block is the low half of Y_r, row r+4 the
	// high half.
	VUNPCKLPS Y1, Y0, Y4
	VUNPCKHPS Y1, Y0, Y5
	VUNPCKLPS Y3, Y2, Y6
	VUNPCKHPS Y3, Y2, Y7
	VSHUFPS   $0x44, Y6, Y4, Y0
	VSHUFPS   $0xEE, Y6, Y4, Y1
	VSHUFPS   $0x44, Y7, Y5, Y2
	VSHUFPS   $0xEE, Y7, Y5, Y3
	MOVQ      ldd+24(FP), R8
	SHLQ      $2, R8
	MOVQ      h+64(FP), R14
	MOVQ      DI, R9
	ADDROW(X0)
	ADDROW(X1)
	ADDROW(X2)
	ADDROW(X3)
	VEXTRACTF128 $1, Y0, X0
	ADDROW(X0)
	VEXTRACTF128 $1, Y1, X1
	ADDROW(X1)
	VEXTRACTF128 $1, Y2, X2
	ADDROW(X2)
	VEXTRACTF128 $1, Y3, X3
	ADDROW(X3)

stored:
	ADDQ $16, DI
	LEAQ (DX)(R10*4), DX
	DECQ BX
	JNZ  group

done:
	VZEROUPPER
	RET
