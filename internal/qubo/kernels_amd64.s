//go:build amd64 && !purego

#include "textflag.h"

// AVX2 candidate kernels of the parallel-trial step. Each must return the
// same result as its Go loop in state.go. Every instruction is
// VEX-encoded, the scalar tails included, and VZEROUPPER runs at entry and
// exit: legacy-SSE encodings among the 256-bit operations cost more than
// the vector loop saves.
//
// A group of four deltas is selected with one VCMPPD whose predicate,
// θ > delta (GT_OQ), is false when either side is NaN, as Go's delta < θ
// is. A selected lane is all ones, −1 as an int64, so the counting kernels
// subtract the selection from a vector of lane counts and store nothing.
// The pick kernel turns selections into bit masks with VMOVMSKPD and
// counts them with POPCNT until it reaches the mask holding its candidate.
// The scalar tails test one delta with VUCOMISD, whose "above" condition
// is θ > delta and is false when either side is NaN.

// SUM_LANES sets AX to the sum of the four int64 lanes of Y1, using X2.
#define SUM_LANES \
	VEXTRACTI128 $1, Y1, X2; \
	VPADDQ       X2, X1, X1; \
	VPSHUFD      $0x4e, X1, X2; \
	VPADDQ       X2, X1, X1; \
	VMOVQ        X1, AX

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   done
	MOVL $1, AX
	XORL CX, CX
	CPUID

	// Leaf 1 ECX: POPCNT (bit 23), OSXSAVE (27) and AVX (28).
	ANDL $0x18800000, CX
	CMPL CX, $0x18800000
	JNE  done
	XORL CX, CX
	XGETBV

	// XCR0: the OS saves the XMM (bit 1) and YMM (bit 2) registers.
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID

	// Leaf 7 EBX bit 5: AVX2.
	TESTL $0x20, BX
	JZ    done
	MOVB  $1, ret+0(FP)

done:
	RET

// func countBelowAVX2(delta []float64, theta float64) int
TEXT ·countBelowAVX2(SB), NOSPLIT, $0-40
	VZEROUPPER
	MOVQ         delta_base+0(FP), SI
	MOVQ         delta_len+8(FP), CX
	VBROADCASTSD theta+24(FP), Y0
	VPXOR        Y1, Y1, Y1
	VPXOR        Y2, Y2, Y2
	VPXOR        Y3, Y3, Y3
	VPXOR        Y4, Y4, Y4

	// SI walks the deltas; R10, R11 and CX become the ends of the blocks
	// of sixteen, of the groups of four and of the slice.
	MOVQ CX, R10
	ANDQ $-16, R10
	LEAQ (SI)(R10*8), R10
	MOVQ CX, R11
	ANDQ $-4, R11
	LEAQ (SI)(R11*8), R11
	LEAQ (SI)(CX*8), CX
	CMPQ SI, R10
	JAE  countGroups

countBlock:
	// Four accumulators keep the subtractions independent of each other.
	VCMPPD $0x1e, (SI), Y0, Y5
	VCMPPD $0x1e, 32(SI), Y0, Y6
	VCMPPD $0x1e, 64(SI), Y0, Y7
	VCMPPD $0x1e, 96(SI), Y0, Y8
	VPSUBQ Y5, Y1, Y1
	VPSUBQ Y6, Y2, Y2
	VPSUBQ Y7, Y3, Y3
	VPSUBQ Y8, Y4, Y4
	ADDQ   $128, SI
	CMPQ   SI, R10
	JB     countBlock

countGroups:
	CMPQ SI, R11
	JAE  countSum

countGroup:
	VCMPPD $0x1e, (SI), Y0, Y5
	VPSUBQ Y5, Y1, Y1
	ADDQ   $32, SI
	CMPQ   SI, R11
	JB     countGroup

countSum:
	VPADDQ Y2, Y1, Y1
	VPADDQ Y4, Y3, Y3
	VPADDQ Y3, Y1, Y1
	SUM_LANES
	CMPQ   SI, CX
	JAE    countDone

countOne:
	LEAQ     1(AX), R9
	VUCOMISD (SI), X0
	CMOVQHI  R9, AX
	ADDQ     $8, SI
	CMPQ     SI, CX
	JB       countOne

countDone:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func pickBelowAVX2(delta []float64, theta float64, k int) int
TEXT ·pickBelowAVX2(SB), NOSPLIT, $0-48
	VZEROUPPER
	MOVQ         delta_base+0(FP), SI
	MOVQ         delta_len+8(FP), CX
	VBROADCASTSD theta+24(FP), Y0
	MOVQ         k+32(FP), BX

	// DX indexes the deltas and BX counts the candidates still to skip;
	// R10 and R11 are the ends of the blocks of sixteen and of the groups
	// of four. The comparisons with BX are unsigned, so a negative k is
	// never reached, as in the Go loop.
	XORQ DX, DX
	MOVQ CX, R10
	ANDQ $-16, R10
	MOVQ CX, R11
	ANDQ $-4, R11
	CMPQ DX, R10
	JAE  pickGroups

pickBlock:
	// Bit b of the block's 16-bit mask selects delta DX+b.
	VCMPPD    $0x1e, (SI)(DX*8), Y0, Y1
	VCMPPD    $0x1e, 32(SI)(DX*8), Y0, Y2
	VCMPPD    $0x1e, 64(SI)(DX*8), Y0, Y3
	VCMPPD    $0x1e, 96(SI)(DX*8), Y0, Y4
	VMOVMSKPD Y1, AX
	VMOVMSKPD Y2, R8
	VMOVMSKPD Y3, R9
	VMOVMSKPD Y4, R12
	SHLL      $4, R8
	SHLL      $8, R9
	SHLL      $12, R12
	ORL       R8, AX
	ORL       R9, AX
	ORL       R12, AX
	POPCNTL   AX, R8
	CMPQ      BX, R8
	JB        pickFound
	SUBQ      R8, BX
	ADDQ      $16, DX
	CMPQ      DX, R10
	JB        pickBlock

pickGroups:
	CMPQ DX, R11
	JAE  pickTail

pickGroup:
	VCMPPD    $0x1e, (SI)(DX*8), Y0, Y1
	VMOVMSKPD Y1, AX
	POPCNTL   AX, R8
	CMPQ      BX, R8
	JB        pickFound
	SUBQ      R8, BX
	ADDQ      $4, DX
	CMPQ      DX, R11
	JB        pickGroup

pickTail:
	CMPQ DX, CX
	JAE  pickNone

pickOne:
	VUCOMISD (SI)(DX*8), X0
	JLS      pickNext
	TESTQ    BX, BX
	JZ       pickDone
	DECQ     BX

pickNext:
	INCQ DX
	CMPQ DX, CX
	JB   pickOne

pickNone:
	MOVQ $-1, DX
	JMP  pickDone

pickFound:
	// The mask in AX holds more than BX candidates: clear its BX lowest
	// set bits, and the lowest one left is the candidate.
	TESTQ BX, BX
	JZ    pickBit

pickClear:
	LEAL -1(AX), R8
	ANDL R8, AX
	DECQ BX
	JNZ  pickClear

pickBit:
	BSFL AX, AX
	ADDQ AX, DX

pickDone:
	VZEROUPPER
	MOVQ DX, ret+40(FP)
	RET

// func flipRowCountAVX2(delta, xsign, coef []float64, sign, theta float64) int
TEXT ·flipRowCountAVX2(SB), NOSPLIT, $0-96
	VZEROUPPER
	MOVQ         delta_base+0(FP), SI
	MOVQ         xsign_base+24(FP), R12
	MOVQ         coef_base+48(FP), R13
	MOVQ         coef_len+56(FP), CX
	VBROADCASTSD sign+72(FP), Y5
	VBROADCASTSD theta+80(FP), Y0
	VPXOR        Y1, Y1, Y1
	MOVQ         CX, R10
	ANDQ         $-4, R10
	XORQ         BX, BX
	CMPQ         BX, R10
	JAE          flipSum

flipGroup:
	// delta + sign·coef·xsign as the Go loop computes it: two rounded
	// products and a rounded sum, never a fused multiply-add.
	VMOVUPD (R13)(BX*8), Y3
	VMULPD  Y5, Y3, Y3
	VMULPD  (R12)(BX*8), Y3, Y3
	VADDPD  (SI)(BX*8), Y3, Y3
	VMOVUPD Y3, (SI)(BX*8)
	VCMPPD  $0x1e, Y3, Y0, Y3
	VPSUBQ  Y3, Y1, Y1
	ADDQ    $4, BX
	CMPQ    BX, R10
	JB      flipGroup

flipSum:
	SUM_LANES
	CMPQ BX, CX
	JAE  flipDone

flipOne:
	VMOVSD   (R13)(BX*8), X3
	VMULSD   X5, X3, X3
	VMULSD   (R12)(BX*8), X3, X3
	VADDSD   (SI)(BX*8), X3, X3
	VMOVSD   X3, (SI)(BX*8)
	LEAQ     1(AX), R9
	VUCOMISD X3, X0
	CMOVQHI  R9, AX
	INCQ     BX
	CMPQ     BX, CX
	JB       flipOne

flipDone:
	VZEROUPPER
	MOVQ AX, ret+88(FP)
	RET
