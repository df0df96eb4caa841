#include "textflag.h"

// AVX2+FMA exp leaves (see exp_amd64.go). exp_amd64.go calls them only
// when hasAVX2 and hasFMA both hold, the condition under which math.Exp
// itself takes its FMA path (math.useFMA is HasAVX && HasFMA), and runs
// the Go loops of ops.go otherwise. EXP4 below is that path of
// math.archExp ($GOROOT/src/math/exp_amd64.s, after Shibata, ISC'10) on
// four float64 lanes, instruction for instruction and with the same
// constants, so every lane rounds exactly as the scalar call does. Lanes
// with |x| ≤ 700 never reach archExp's overflow, denormal or non-finite
// branches; a group of four with any other lane (NaN included) ends the
// leaf, and the Go caller runs that group through math.Exp.

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

// Each constant is stored four times, one 32-byte row per constant, so an
// instruction can take it as a 256-bit memory operand.
#define ROW(N, V) \
	DATA expconst<>+(32*N)(SB)/8, V;    \
	DATA expconst<>+(32*N+8)(SB)/8, V;  \
	DATA expconst<>+(32*N+16)(SB)/8, V; \
	DATA expconst<>+(32*N+24)(SB)/8, V

ROW(0, $0x8000000000000000) // sign bit
ROW(1, $700.0)              // the leaves' range, |x| ≤ 700
ROW(2, $LOG2E)
ROW(3, $LN2U)
ROW(4, $LN2L)
ROW(5, $0.0625)
ROW(6, $1.0)
ROW(7, $2.0)
ROW(8, $0x3FF) // exponent bias
ROW(9, $2.4801587301587301587e-5)
ROW(10, $1.9841269841269841270e-4)
ROW(11, $1.3888888888888888889e-3)
ROW(12, $8.3333333333333333333e-3)
ROW(13, $4.1666666666666666667e-2)
ROW(14, $1.6666666666666666667e-1)
ROW(15, $0.5)
GLOBL expconst<>(SB), RODATA, $512

#define C(N) expconst<>+(32*N)(SB)

// LOADCONST puts the constants EXP4 reads most into Y7..Y15.
#define LOADCONST \
	VMOVUPD C(0), Y15; \
	VMOVUPD C(1), Y14; \
	VMOVUPD C(2), Y13; \
	VMOVUPD C(3), Y12; \
	VMOVUPD C(4), Y11; \
	VMOVUPD C(5), Y10; \
	VMOVUPD C(6), Y9;  \
	VMOVUPD C(7), Y8;  \
	VMOVUPD C(8), Y7

// EXP4 sets Y0 to exp of its four lanes, or jumps to OUT, with Y0
// untouched, when a lane's magnitude exceeds 700 or is NaN. It clobbers
// Y1..Y3 and DX. The comments name the archExp instructions each step
// repeats.
#define EXP4(OUT) \
	VANDNPD      Y0, Y15, Y1; /* |x| */ \
	VCMPPD       $0x12, Y14, Y1, Y1; /* |x| ≤ 700, false on NaN (LE_OQ) */ \
	VMOVMSKPD    Y1, DX;            \
	CMPL         DX, $15;           \
	JNE          OUT;               \
	VMULPD       Y13, Y0, Y1; /* MULSD: x·LOG2E */ \
	VCVTPD2DQY   Y1, X2; /* CVTSD2SL: the exponent n */ \
	VCVTDQ2PD    X2, Y1; /* CVTSL2SD */ \
	VFNMADD231PD Y12, Y1, Y0; /* x − n·LN2U, fused */ \
	VFNMADD231PD Y11, Y1, Y0; /* − n·LN2L, fused */ \
	VMULPD       Y10, Y0, Y0; /* ×0.0625 */ \
	VMOVUPD      C(9), Y3; /* the Taylor chain, seven FMAs */ \
	VFMADD213PD  C(10), Y0, Y3;     \
	VFMADD213PD  C(11), Y0, Y3;     \
	VFMADD213PD  C(12), Y0, Y3;     \
	VFMADD213PD  C(13), Y0, Y3;     \
	VFMADD213PD  C(14), Y0, Y3;     \
	VFMADD213PD  C(15), Y0, Y3;     \
	VFMADD213PD  Y9, Y0, Y3;        \
	VMULPD       Y3, Y0, Y0; /* four square-and-add steps */ \
	VADDPD       Y8, Y0, Y3;        \
	VMULPD       Y3, Y0, Y0;        \
	VADDPD       Y8, Y0, Y3;        \
	VMULPD       Y3, Y0, Y0;        \
	VADDPD       Y8, Y0, Y3;        \
	VMULPD       Y3, Y0, Y0;        \
	VADDPD       Y8, Y0, Y3;        \
	VFMADD213PD  Y9, Y3, Y0; /* the last one fused, + 1 */ \
	VPMOVSXDQ    X2, Y2; /* ldexp: 2ⁿ is (n+0x3FF)<<52, */ \
	VPADDQ       Y7, Y2, Y2; /* and n+0x3FF is in [13, 2033] */ \
	VPSLLQ       $52, Y2, Y2;       \
	VMULPD       Y2, Y0, Y0

// func hasFMA() bool
//
// CPUID leaf 1 must report FMA (ECX bit 12).
TEXT ·hasFMA(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	SHRL  $12, CX
	ANDL  $1, CX
	MOVB  CX, ret+0(FP)
	RET

// func sigmoidAVX2(dst, x []float32) int
//
// Four lanes at a time: float64(x), negated, through EXP4, then 1/(1+e)
// rounded to float32 — the scalar sigmoid's VCVTSS2SD, sign flip, ADDSD,
// DIVSD and CVTSD2SS.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ AX, AX
	SHRQ $2, CX
	JZ   done
	LOADCONST

loop:
	VCVTPS2PD  (SI)(AX*4), Y0
	VXORPD     Y15, Y0, Y0
	EXP4(done)
	VADDPD     Y9, Y0, Y0
	VDIVPD     Y0, Y9, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)(AX*4)
	ADDQ       $4, AX
	DECQ       CX
	JNZ        loop

done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func expDiffAVX2(dst []float64, x []float32, c float32) int
//
// Four lanes at a time: x − c in float32 (SUBSS), widened (CVTSS2SD),
// through EXP4.
TEXT ·expDiffAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSS c+48(FP), X6
	XORQ         AX, AX
	SHRQ         $2, CX
	JZ           done
	LOADCONST

loop:
	VMOVUPS   (SI)(AX*4), X0
	VSUBPS    X6, X0, X0
	VCVTPS2PD X0, Y0
	EXP4(done)
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	DECQ      CX
	JNZ       loop

done:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET
