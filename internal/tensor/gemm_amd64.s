#include "textflag.h"

// SSE leaves of the GEMM kernels (see gemm_amd64.go). Only SSE/SSE2
// instructions, the GOAMD64=v1 baseline, so no CPUID dispatch is needed.
// Every lane runs the scalar sequence of the Go loops it replaces: one
// rounded MULPS/MULSS, then one rounded ADDPS/ADDSS, with no fused
// multiply-add, so the results are bitwise identical.

// func axpySSE(dst, x []float32, a float32)
TEXT ·axpySSE(SB), NOSPLIT, $0-52
	MOVQ   dst_base+0(FP), DI
	MOVQ   x_base+24(FP), SI
	MOVQ   x_len+32(FP), CX
	MOVSS  a+48(FP), X0
	SHUFPS $0x00, X0, X0 // broadcast a to all four lanes
	MOVQ   CX, BX
	SHRQ   $3, BX
	JZ     tail

loop8:
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MULPS  X0, X1
	MULPS  X0, X2
	MOVUPS (DI), X3
	MOVUPS 16(DI), X4
	ADDPS  X1, X3
	ADDPS  X2, X4
	MOVUPS X3, (DI)
	MOVUPS X4, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	DECQ   BX
	JNZ    loop8

tail:
	ANDQ $7, CX
	JZ   done

loop1:
	MOVSS (SI), X1
	MULSS X0, X1
	ADDSS (DI), X1
	MOVSS X1, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   loop1

done:
	RET

// ROW4 adds row r's products for four k steps into its accumulator ACC:
// X10 = a_r[k:k+4], then lane t of X10 times column vector C_t (X4, X6,
// X8, X9 for t = 0..3), added in ascending t.
#define ROW4(AR, ACC) \
	MOVUPS (AR)(AX*1), X10; \
	PSHUFD $0x00, X10, X11; \
	PSHUFD $0x55, X10, X12; \
	PSHUFD $0xAA, X10, X13; \
	PSHUFD $0xFF, X10, X14; \
	MULPS  X4, X11;         \
	MULPS  X6, X12;         \
	MULPS  X8, X13;         \
	MULPS  X9, X14;         \
	ADDPS  X11, ACC;        \
	ADDPS  X12, ACC;        \
	ADDPS  X13, ACC;        \
	ADDPS  X14, ACC

// ROW1 adds row r's product for one k step: a_r[k] times the column
// vector in X4.
#define ROW1(AR, ACC) \
	MOVSS  (AR)(AX*1), X10; \
	SHUFPS $0x00, X10, X10; \
	MULPS  X4, X10;         \
	ADDPS  X10, ACC

// func dotPanel4(acc *[16]float32, a0, a1, a2, a3, b0, b1, b2, b3 []float32)
//
// X0..X3 accumulate rows a0..a3; lane l of each holds the dot product
// with b_l. Four k steps at a time, the rows b0..b3 are transposed in
// registers into column vectors C_t = (b0[k+t], b1[k+t], b2[k+t],
// b3[k+t]); leftover k steps gather one column vector each.
TEXT ·dotPanel4(SB), NOSPLIT, $0-200
	MOVQ  acc+0(FP), DI
	MOVQ  a0_base+8(FP), R8
	MOVQ  a0_len+16(FP), CX
	MOVQ  a1_base+32(FP), R9
	MOVQ  a2_base+56(FP), R10
	MOVQ  a3_base+80(FP), R11
	MOVQ  b0_base+104(FP), R12
	MOVQ  b1_base+128(FP), R13
	MOVQ  b2_base+152(FP), SI
	MOVQ  b3_base+176(FP), DX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX // byte offset of step k
	MOVQ  CX, BX
	SHRQ  $2, BX
	JZ    tail

loop4:
	MOVUPS   (R12)(AX*1), X4
	MOVUPS   (R13)(AX*1), X5
	MOVUPS   (SI)(AX*1), X6
	MOVUPS   (DX)(AX*1), X7
	MOVAPS   X4, X8
	UNPCKLPS X5, X4 // b0[k] b1[k] b0[k+1] b1[k+1]
	UNPCKHPS X5, X8 // b0[k+2] b1[k+2] b0[k+3] b1[k+3]
	MOVAPS   X6, X9
	UNPCKLPS X7, X6 // b2[k] b3[k] b2[k+1] b3[k+1]
	UNPCKHPS X7, X9 // b2[k+2] b3[k+2] b2[k+3] b3[k+3]
	MOVAPS   X4, X5
	MOVLHPS  X6, X4 // C_0
	MOVHLPS  X5, X6 // C_1
	MOVAPS   X8, X7
	MOVLHPS  X9, X8 // C_2
	MOVHLPS  X7, X9 // C_3
	ROW4(R8, X0)
	ROW4(R9, X1)
	ROW4(R10, X2)
	ROW4(R11, X3)
	ADDQ     $16, AX
	DECQ     BX
	JNZ      loop4

tail:
	ANDQ $3, CX
	JZ   store

loop1:
	MOVSS    (R12)(AX*1), X4
	MOVSS    (R13)(AX*1), X5
	MOVSS    (SI)(AX*1), X6
	MOVSS    (DX)(AX*1), X7
	UNPCKLPS X5, X4
	UNPCKLPS X7, X6
	MOVLHPS  X6, X4 // b0[k] b1[k] b2[k] b3[k]
	ROW1(R8, X0)
	ROW1(R9, X1)
	ROW1(R10, X2)
	ROW1(R11, X3)
	ADDQ     $4, AX
	DECQ     CX
	JNZ      loop1

store:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET

// MADD adds one k step's products into one row of the 4×8 block: lane
// SEL of X10 (the row's a value) broadcast, times the b row in X8:X9,
// added into the row's accumulators LO:HI. T0 and T1 are scratch.
#define MADD(SEL, T0, T1, LO, HI) \
	PSHUFD SEL, X10, T0;  \
	MOVAPS T0, T1;        \
	MULPS  X8, T0;        \
	MULPS  X9, T1;        \
	ADDPS  T0, LO;        \
	ADDPS  T1, HI

// func panel4x8(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, k, n8 int)
//
// For each of n8 blocks of eight columns, X0..X7 hold the 4×8 block of
// dst (row r in X(2r):X(2r+1)) across all k steps. Step t reads the four
// a values a[t·lda : t·lda+4] and the b row b[t·ldb : t·ldb+8], block
// offset added. A step with a ±0 a value takes the masked path, which
// leaves that row alone. Strides are in floats.
TEXT ·panel4x8(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ ldd+24(FP), R8
	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), R9
	MOVQ b_base+64(FP), DX
	MOVQ ldb+88(FP), R10
	MOVQ n8+104(FP), BX
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	LEAQ (R8)(R8*2), R11 // byte offset of dst row 3
	TESTQ BX, BX
	JZ   done

block:
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS (DI)(R8*1), X2
	MOVUPS 16(DI)(R8*1), X3
	MOVUPS (DI)(R8*2), X4
	MOVUPS 16(DI)(R8*2), X5
	MOVUPS (DI)(R11*1), X6
	MOVUPS 16(DI)(R11*1), X7
	MOVQ   SI, R12 // a values of step t
	MOVQ   DX, R13 // b row of step t
	MOVQ   k+96(FP), AX
	TESTQ  AX, AX
	JZ     store

step:
	MOVUPS   (R13), X8
	MOVUPS   16(R13), X9
	MOVUPS   (R12), X10
	XORPS    X11, X11
	CMPPS    X10, X11, $0 // lane r all ones where a_r == ±0
	MOVMSKPS X11, CX
	TESTL    CX, CX
	JNZ      masked
	MADD($0x00, X11, X12, X0, X1)
	MADD($0x55, X13, X14, X2, X3)
	MADD($0xAA, X11, X12, X4, X5)
	MADD($0xFF, X13, X14, X6, X7)

next:
	ADDQ R9, R12
	ADDQ R10, R13
	DECQ AX
	JNZ  step

store:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, (DI)(R8*1)
	MOVUPS X3, 16(DI)(R8*1)
	MOVUPS X4, (DI)(R8*2)
	MOVUPS X5, 16(DI)(R8*2)
	MOVUPS X6, (DI)(R11*1)
	MOVUPS X7, 16(DI)(R11*1)
	ADDQ   $32, DI
	ADDQ   $32, DX
	DECQ   BX
	JNZ    block

done:
	RET

masked:
	TESTL $1, CX
	JNZ   skip0
	MADD($0x00, X11, X12, X0, X1)

skip0:
	TESTL $2, CX
	JNZ   skip1
	MADD($0x55, X13, X14, X2, X3)

skip1:
	TESTL $4, CX
	JNZ   skip2
	MADD($0xAA, X11, X12, X4, X5)

skip2:
	TESTL $8, CX
	JNZ   next
	MADD($0xFF, X13, X14, X6, X7)
	JMP   next
