#include "textflag.h"
#include "funcdata.h"

// SIMD leaves of the GEMM and elementwise kernels (see gemm_amd64.go).
// gemm_amd64.go calls the AVX2 leaves only when hasAVX2 reported AVX2 with
// OS-saved YMM state, the AVX-512 ones only when hasAVX512 also reported
// AVX512F with OS-saved ZMM state, and runs the Go loops of gemm.go,
// ops.go and tensor.go otherwise. Every lane runs the scalar sequence of
// the Go loops it replaces: one rounded VMULPS, then one rounded VADDPS,
// never a fused multiply-add, so the results are bitwise identical. Every
// instruction is VEX- or EVEX-encoded, the AVX-512 leaves use Z0..Z15
// only, and every leaf ends with VZEROUPPER, so no SSE code after it pays
// a transition penalty.

// The packed panels' macros stand before the first TEXT: go vet reads a
// #define as code of the TEXT above it and would check their FP and SP
// operands against that function's frame.

// PACK4 copies step t of four rows of a (row r at (SI)(r·R9), row 3 at
// (SI)(R8*1)) into the packed panel at DI, then moves SI and DI on one
// step.
#define PACK4 \
	MOVL (SI), R10;        \
	MOVL (SI)(R9*1), R11;  \
	MOVL (SI)(R9*2), R12;  \
	MOVL (SI)(R8*1), R13;  \
	MOVL R10, (DI);        \
	MOVL R11, 4(DI);       \
	MOVL R12, 8(DI);       \
	MOVL R13, 12(DI);      \
	ADDQ $4, SI;           \
	ADDQ $16, DI

// PACKEDARGS writes, from 0(SP), the panel's arguments for the packed copy
// of CX steps at 112(SP): the caller's dst, ldd, b, ldb and n8, and the
// copy as a, with lda 4.
#define PACKEDARGS \
	MOVQ dst_base+0(FP), AX; \
	MOVQ AX, 0(SP);          \
	MOVQ dst_len+8(FP), AX;  \
	MOVQ AX, 8(SP);          \
	MOVQ dst_cap+16(FP), AX; \
	MOVQ AX, 16(SP);         \
	MOVQ ldd+24(FP), AX;     \
	MOVQ AX, 24(SP);         \
	LEAQ 112(SP), AX;        \
	MOVQ AX, 32(SP);         \
	MOVQ CX, AX;             \
	SHLQ $2, AX;             \
	MOVQ AX, 40(SP);         \
	MOVQ AX, 48(SP);         \
	MOVQ $4, 56(SP);         \
	MOVQ b_base+64(FP), AX;  \
	MOVQ AX, 64(SP);         \
	MOVQ b_len+72(FP), AX;   \
	MOVQ AX, 72(SP);         \
	MOVQ b_cap+80(FP), AX;   \
	MOVQ AX, 80(SP);         \
	MOVQ ldb+88(FP), AX;     \
	MOVQ AX, 88(SP);         \
	MOVQ CX, 96(SP);         \
	MOVQ n8+104(FP), AX;     \
	MOVQ AX, 104(SP)

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

// func hasAVX512() bool
//
// CPUID leaf 1 must report OSXSAVE, XGETBV must show the OS saving the
// XMM, YMM, opmask and ZMM state (XCR0 bits 1, 2, 5, 6 and 7), and CPUID
// leaf 7 must report AVX512F (EBX bit 16).
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX // OSXSAVE
	JCC  done
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
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

// MADD32 is MADD16 on ZMM registers for a 4×32 block: b row in Z8:Z9.
#define MADD32(OFF, LO, HI) \
	VBROADCASTSS OFF(R12), Z12; \
	VMULPS       Z8, Z12, Z13;  \
	VMULPS       Z9, Z12, Z12;  \
	VADDPS       Z13, LO, LO;   \
	VADDPS       Z12, HI, HI

// MADDZ16 is MADD8 on ZMM registers for a 4×16 block: b row in Z8.
#define MADDZ16(OFF, ACC) \
	VBROADCASTSS OFF(R12), Z12; \
	VMULPS       Z8, Z12, Z12;  \
	VADDPS       Z12, ACC, ACC

// func panel4x32(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, k, n8 int)
//
// panel4x16 on AVX-512 registers, with the arguments of panel4x16. For
// each group of four of n8's blocks of eight columns, Z0..Z7 hold the
// 4×32 block of dst (row r in Z(2r):Z(2r+1)) across all k steps; two
// blocks left over take the same steps on a 4×16 block (row r in Z(2r)),
// and a last odd block tail-calls panel4x16. Each step is panel4x16's:
// the same loads, the same ±0 mask and masked path, one VMULPS and one
// VADDPS per accumulator.
TEXT ·panel4x32(SB), NOSPLIT, $0-112
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
	CMPQ  BX, $4
	JLT   half

block32:
	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS (DI)(R8*1), Z2
	VMOVUPS 64(DI)(R8*1), Z3
	VMOVUPS (DI)(R8*2), Z4
	VMOVUPS 64(DI)(R8*2), Z5
	VMOVUPS (DI)(R11*1), Z6
	VMOVUPS 64(DI)(R11*1), Z7
	MOVQ    SI, R12 // a values of step t
	MOVQ    DX, R13 // b row of step t
	MOVQ    k+96(FP), AX
	TESTQ   AX, AX
	JZ      store32

step32:
	VMOVUPS (R13), Z8
	VMOVUPS 64(R13), Z9
	ZEROMASK(masked32)
	MADD32(0, Z0, Z1)
	MADD32(4, Z2, Z3)
	MADD32(8, Z4, Z5)
	MADD32(12, Z6, Z7)

next32:
	ADDQ R9, R12
	ADDQ R10, R13
	DECQ AX
	JNZ  step32

store32:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, (DI)(R8*1)
	VMOVUPS Z3, 64(DI)(R8*1)
	VMOVUPS Z4, (DI)(R8*2)
	VMOVUPS Z5, 64(DI)(R8*2)
	VMOVUPS Z6, (DI)(R11*1)
	VMOVUPS Z7, 64(DI)(R11*1)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $4, BX
	CMPQ    BX, $4
	JGE     block32

half:
	CMPQ    BX, $2
	JLT     last
	VMOVUPS (DI), Z0
	VMOVUPS (DI)(R8*1), Z2
	VMOVUPS (DI)(R8*2), Z4
	VMOVUPS (DI)(R11*1), Z6
	MOVQ    SI, R12
	MOVQ    DX, R13
	MOVQ    k+96(FP), AX
	TESTQ   AX, AX
	JZ      store16

step16:
	VMOVUPS (R13), Z8
	ZEROMASK(masked16)
	MADDZ16(0, Z0)
	MADDZ16(4, Z2)
	MADDZ16(8, Z4)
	MADDZ16(12, Z6)

next16:
	ADDQ R9, R12
	ADDQ R10, R13
	DECQ AX
	JNZ  step16

store16:
	VMOVUPS Z0, (DI)
	VMOVUPS Z2, (DI)(R8*1)
	VMOVUPS Z4, (DI)(R8*2)
	VMOVUPS Z6, (DI)(R11*1)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $2, BX

last:
	VZEROUPPER
	TESTQ BX, BX
	JZ    done
	MOVQ  DI, dst_base+0(FP)
	MOVQ  DX, b_base+64(FP)
	MOVQ  BX, n8+104(FP)
	JMP   ·panel4x16(SB)

done:
	RET

masked32:
	TESTL $1, CX
	JNZ   skip32r0
	MADD32(0, Z0, Z1)

skip32r0:
	TESTL $2, CX
	JNZ   skip32r1
	MADD32(4, Z2, Z3)

skip32r1:
	TESTL $4, CX
	JNZ   skip32r2
	MADD32(8, Z4, Z5)

skip32r2:
	TESTL $8, CX
	JNZ   next32
	MADD32(12, Z6, Z7)
	JMP   next32

masked16:
	TESTL $1, CX
	JNZ   skip16r0
	MADDZ16(0, Z0)

skip16r0:
	TESTL $2, CX
	JNZ   skip16r1
	MADDZ16(4, Z2)

skip16r1:
	TESTL $4, CX
	JNZ   skip16r2
	MADDZ16(8, Z4)

skip16r2:
	TESTL $8, CX
	JNZ   next16
	MADDZ16(12, Z6)
	JMP   next16

// func panel4x16Packed(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, k, n8 int)
//
// panel4x16 over four rows of a stored row-major (row r at a[r·lda:],
// k ≤ packK steps): it packs them transposed, four a values per step, into
// its own frame, which Go does not zero, and calls panel4x16 on the copy.
TEXT ·panel4x16Packed(SB), $4208-112
	NO_LOCAL_POINTERS
	MOVQ  a_base+32(FP), SI
	MOVQ  lda+56(FP), R9
	MOVQ  k+96(FP), CX
	SHLQ  $2, R9
	LEAQ  (R9)(R9*2), R8 // byte offset of a row 3
	LEAQ  112(SP), DI    // the packed panel, past panel4x16's arguments
	MOVQ  CX, AX
	TESTQ AX, AX
	JZ    call

pack:
	PACK4
	DECQ AX
	JNZ  pack

call:
	PACKEDARGS
	CALL ·panel4x16(SB)
	RET

// func panel4x32Packed(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, k, n8 int)
//
// panel4x16Packed calling panel4x32.
TEXT ·panel4x32Packed(SB), $4208-112
	NO_LOCAL_POINTERS
	MOVQ  a_base+32(FP), SI
	MOVQ  lda+56(FP), R9
	MOVQ  k+96(FP), CX
	SHLQ  $2, R9
	LEAQ  (R9)(R9*2), R8
	LEAQ  112(SP), DI
	MOVQ  CX, AX
	TESTQ AX, AX
	JZ    call

pack:
	PACK4
	DECQ AX
	JNZ  pack

call:
	PACKEDARGS
	CALL ·panel4x32(SB)
	RET

// btK is the number of k steps panelBT's frame holds: 8 floats each.
#define btK 256

// ADDROW adds the eight sums in SRC into the dst row at R9, then moves R9
// to the next row, or jumps to stored once R14 rows are done.
#define ADDROW(SRC) \
	VMOVUPS (R9), Y0;    \
	VADDPS  SRC, Y0, Y0; \
	VMOVUPS Y0, (R9);    \
	DECQ    R14;         \
	JZ      stored;      \
	ADDQ    R8, R9

// MULADD4 multiplies the panel row in Y8 by the broadcasts of four b
// values, b_l[t] at (BASE), (BASE)(R10*1), (BASE)(R10*2) and
// (BASE)(R11*1), and adds the products into A0..A3.
#define MULADD4(BASE, A0, A1, A2, A3) \
	VBROADCASTSS (BASE), Y9;          \
	VBROADCASTSS (BASE)(R10*1), Y10;  \
	VBROADCASTSS (BASE)(R10*2), Y11;  \
	VBROADCASTSS (BASE)(R11*1), Y12;  \
	VMULPS       Y8, Y9, Y9;          \
	VMULPS       Y8, Y10, Y10;        \
	VMULPS       Y8, Y11, Y11;        \
	VMULPS       Y8, Y12, Y12;        \
	VADDPS       Y9, A0, A0;          \
	VADDPS       Y10, A1, A1;         \
	VADDPS       Y11, A2, A2;         \
	VADDPS       Y12, A3, A3

// TRANSPOSE4 transposes the 4×4 blocks of A0..A3 in each 128-bit half
// (Y8..Y11 are scratch): afterwards the low half of A_r holds lane r of
// A0..A3 and the high half lane r+4.
#define TRANSPOSE4(A0, A1, A2, A3) \
	VUNPCKLPS A1, A0, Y8;       \
	VUNPCKHPS A1, A0, Y9;       \
	VUNPCKLPS A3, A2, Y10;      \
	VUNPCKHPS A3, A2, Y11;      \
	VSHUFPS   $0x44, Y10, Y8, A0; \
	VSHUFPS   $0xEE, Y10, Y8, A1; \
	VSHUFPS   $0x44, Y11, Y9, A2; \
	VSHUFPS   $0xEE, Y11, Y9, A3

// func panelBT(dst []float32, ldd int, a []float32, lda, h int, b []float32, ldb, k, n8 int)
//
// For each of n8 groups of eight b rows (b_j at b[j·ldb:]), Y0..Y7 start
// at +0 and accumulate the group's dot products with h ≤ 8 rows of a (row
// r at a[r·lda:]): lane r of Y_l is a_r·b_l. The rows of a are packed
// once, transposed, into a k×8 panel in the frame (rows past h repeat row
// h−1, and their lanes are discarded), so each step is one load of the
// panel, eight broadcasts of b_l[t], eight VMULPS and eight VADDPS. At the
// end of a group the accumulators are transposed, four at a time, and
// added into dst, row r columns j..j+7. When k exceeds the panel's btK
// steps, each group packs and runs the steps btK at a time, its
// accumulators held in registers.
TEXT ·panelBT(SB), $8192-120
	NO_LOCAL_POINTERS
	MOVQ  dst_base+0(FP), DI
	MOVQ  b_base+72(FP), DX
	MOVQ  ldb+96(FP), R10
	SHLQ  $2, R10
	LEAQ  (R10)(R10*2), R11 // byte offset of b row 3
	MOVQ  n8+112(FP), BX
	TESTQ BX, BX
	JZ    done

group:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   CX, CX // k0, the chunk's first step

chunk:
	MOVQ k+104(FP), AX
	SUBQ CX, AX
	CMPQ AX, $btK
	JLE  sized
	MOVQ $btK, AX // AX = kc, the chunk's steps

sized:
	// Later groups reuse the panel when one chunk holds every step.
	CMPQ BX, n8+112(FP)
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
	VMOVSS (R9), X8
	VMOVSS X8, (R13)
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
	LEAQ  (R13)(R10*4), R14 // b row j+4, step k0
	MOVQ  AX, SI
	TESTQ SI, SI
	JZ    chunkdone

step:
	VMOVUPS (R12), Y8
	MULADD4(R13, Y0, Y1, Y2, Y3)
	MULADD4(R14, Y4, Y5, Y6, Y7)
	ADDQ    $32, R12
	ADDQ    $4, R13
	ADDQ    $4, R14
	DECQ    SI
	JNZ     step

chunkdone:
	ADDQ AX, CX
	CMPQ CX, k+104(FP)
	JLT  chunk

	// Row r of the block is the low half of Y_r then of Y_(r+4); row r+4
	// the high halves.
	TRANSPOSE4(Y0, Y1, Y2, Y3)
	TRANSPOSE4(Y4, Y5, Y6, Y7)
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	MOVQ       ldd+24(FP), R8
	SHLQ       $2, R8
	MOVQ       h+64(FP), R14
	MOVQ       DI, R9
	ADDROW(Y8)
	ADDROW(Y9)
	ADDROW(Y10)
	ADDROW(Y11)
	ADDROW(Y12)
	ADDROW(Y13)
	ADDROW(Y14)
	ADDROW(Y15)

stored:
	ADDQ $32, DI
	LEAQ (DX)(R10*8), DX
	DECQ BX
	JNZ  group

done:
	VZEROUPPER
	RET

// The elementwise leaves below run 8 floats per VEX instruction, then a
// scalar tail, over len(dst) elements; the callers pass operands exactly
// as long as dst. Each keeps the operand order of the Go loop it replaces.

// func mulAVX2(dst, a, b []float32)
TEXT ·mulAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   tail

loop8:
	VMOVUPS (SI)(AX*4), Y0
	VMULPS  (DX)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     loop8

tail:
	CMPQ AX, CX
	JGE  done

loop1:
	VMOVSS (SI)(AX*4), X0
	VMULSS (DX)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	CMPQ   AX, CX
	JLT    loop1

done:
	VZEROUPPER
	RET

// func mulAddAVX2(dst, a, b []float32)
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   tail

loop8:
	VMOVUPS (SI)(AX*4), Y0
	VMULPS  (DX)(AX*4), Y0, Y0
	VMOVUPS (DI)(AX*4), Y1
	VADDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     loop8

tail:
	CMPQ AX, CX
	JGE  done

loop1:
	VMOVSS (SI)(AX*4), X0
	VMULSS (DX)(AX*4), X0, X0
	VMOVSS (DI)(AX*4), X1
	VADDSS X0, X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ   AX
	CMPQ   AX, CX
	JLT    loop1

done:
	VZEROUPPER
	RET

// func addAVX2(dst, src []float32)
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   tail

loop8:
	VMOVUPS (DI)(AX*4), Y0
	VADDPS  (SI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     loop8

tail:
	CMPQ AX, CX
	JGE  done

loop1:
	VMOVSS (DI)(AX*4), X0
	VADDSS (SI)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	CMPQ   AX, CX
	JLT    loop1

done:
	VZEROUPPER
	RET

// func scaleAVX2(dst []float32, a float32)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-28
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSS a+24(FP), Y1
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-8, BX
	JZ           tail

loop8:
	VMOVUPS (DI)(AX*4), Y0
	VMULPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     loop8

tail:
	CMPQ AX, CX
	JGE  done

loop1:
	VMOVSS (DI)(AX*4), X0
	VMULSS X1, X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	CMPQ   AX, CX
	JLT    loop1

done:
	VZEROUPPER
	RET
