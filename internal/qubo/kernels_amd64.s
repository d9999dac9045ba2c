//go:build amd64 && !purego

#include "textflag.h"

// AVX2 and AVX-512 candidate kernels of the parallel-trial step. Each must
// return the same result as its Go loop in state.go. In the AVX2 kernels
// every instruction is VEX-encoded, the scalar tails included; every
// kernel runs VZEROUPPER before it returns (the AVX2 ones at entry too):
// legacy-SSE encodings among the 256-bit operations cost more than the
// vector loop saves.
//
// A group of deltas is selected with one VCMPPD whose predicate,
// θ > delta (GT_OQ), is false when either side is NaN, as Go's delta < θ
// is. In AVX2 a selected lane is all ones, −1 as an int64, so the counting
// kernels subtract the selection from a vector of lane counts and store
// nothing; the AVX-512 ones compare into a k-mask and subtract all ones
// from the selected lanes only. The pick kernels turn selections into bit
// masks and count them with POPCNT until they reach the mask holding their
// candidate. The scalar tails test one delta with VUCOMISD, whose "above"
// condition is θ > delta and is false when either side is NaN.

// SUM_LANES sets AX to the sum of the four int64 lanes of Y1, using X2.
#define SUM_LANES \
	VEXTRACTI128 $1, Y1, X2; \
	VPADDQ       X2, X1, X1; \
	VPSHUFD      $0x4e, X1, X2; \
	VPADDQ       X2, X1, X1; \
	VMOVQ        X1, AX

// SUM_LANES8 sets AX to the sum of the eight int64 lanes of Z1, using Y2.
#define SUM_LANES8 \
	VEXTRACTI64X4 $1, Z1, Y2; \
	VPADDQ        Y2, Y1, Y1; \
	SUM_LANES

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

// func countBelow512(delta []float64, theta float64) int
TEXT ·countBelow512(SB), NOSPLIT, $0-40
	MOVQ         delta_base+0(FP), SI
	MOVQ         delta_len+8(FP), CX
	VBROADCASTSD theta+24(FP), Z0
	VPTERNLOGQ   $0xff, Z5, Z5, Z5
	VPXORQ       Z1, Z1, Z1
	VPXORQ       Z2, Z2, Z2
	VPXORQ       Z3, Z3, Z3
	VPXORQ       Z4, Z4, Z4

	// SI walks the deltas; R10, R11 and CX become the ends of the blocks
	// of thirty-two, of the groups of eight and of the slice.
	MOVQ CX, R10
	ANDQ $-32, R10
	LEAQ (SI)(R10*8), R10
	MOVQ CX, R11
	ANDQ $-8, R11
	LEAQ (SI)(R11*8), R11
	LEAQ (SI)(CX*8), CX
	CMPQ SI, R10
	JAE  countGroups

countBlock:
	// Each mask selects the lanes of one accumulator that subtract all
	// ones, −1: four accumulators keep the subtractions independent.
	VCMPPD $0x1e, (SI), Z0, K1
	VCMPPD $0x1e, 64(SI), Z0, K2
	VCMPPD $0x1e, 128(SI), Z0, K3
	VCMPPD $0x1e, 192(SI), Z0, K4
	VPSUBQ Z5, Z1, K1, Z1
	VPSUBQ Z5, Z2, K2, Z2
	VPSUBQ Z5, Z3, K3, Z3
	VPSUBQ Z5, Z4, K4, Z4
	ADDQ   $256, SI
	CMPQ   SI, R10
	JB     countBlock

countGroups:
	CMPQ SI, R11
	JAE  countSum

countGroup:
	VCMPPD $0x1e, (SI), Z0, K1
	VPSUBQ Z5, Z1, K1, Z1
	ADDQ   $64, SI
	CMPQ   SI, R11
	JB     countGroup

countSum:
	VPADDQ Z2, Z1, Z1
	VPADDQ Z4, Z3, Z3
	VPADDQ Z3, Z1, Z1
	SUM_LANES8
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

// func pickBelow512(delta []float64, theta float64, k int) int
TEXT ·pickBelow512(SB), NOSPLIT, $0-48
	MOVQ         delta_base+0(FP), SI
	MOVQ         delta_len+8(FP), CX
	VBROADCASTSD theta+24(FP), Z0
	MOVQ         k+32(FP), BX

	// DX indexes the deltas and BX counts the candidates still to skip;
	// R10 and R11 are the ends of the blocks of thirty-two and of the
	// groups of eight. The comparisons with BX are unsigned, so a negative
	// k is never reached, as in the Go loop.
	XORQ DX, DX
	MOVQ CX, R10
	ANDQ $-32, R10
	MOVQ CX, R11
	ANDQ $-8, R11
	CMPQ DX, R10
	JAE  pickGroups

pickBlock:
	// Bit b of the block's 32-bit mask selects delta DX+b: KUNPCKBW and
	// KUNPCKWD join the four byte masks, lowest first.
	VCMPPD   $0x1e, (SI)(DX*8), Z0, K1
	VCMPPD   $0x1e, 64(SI)(DX*8), Z0, K2
	VCMPPD   $0x1e, 128(SI)(DX*8), Z0, K3
	VCMPPD   $0x1e, 192(SI)(DX*8), Z0, K4
	KUNPCKBW K1, K2, K1
	KUNPCKBW K3, K4, K3
	KUNPCKWD K1, K3, K1
	KMOVD    K1, AX
	POPCNTL  AX, R8
	CMPQ     BX, R8
	JB       pickFound
	SUBQ     R8, BX
	ADDQ     $32, DX
	CMPQ     DX, R10
	JB       pickBlock

pickGroups:
	CMPQ DX, R11
	JAE  pickTail

pickGroup:
	VCMPPD  $0x1e, (SI)(DX*8), Z0, K1
	KMOVB   K1, AX
	POPCNTL AX, R8
	CMPQ    BX, R8
	JB      pickFound
	SUBQ    R8, BX
	ADDQ    $8, DX
	CMPQ    DX, R11
	JB      pickGroup

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
	// The mask in AX holds more than BX candidates. PDEP moves bit BX of
	// 1<<BX onto the mask's set bit of rank BX (from 0), and TZCNT finds
	// that bit.
	XORL   R8, R8
	BTSL   BX, R8
	PDEPL  AX, R8, R8
	TZCNTL R8, R8
	ADDQ   R8, DX

pickDone:
	VZEROUPPER
	MOVQ DX, ret+40(FP)
	RET

// func flipRowCount512(delta, xsign, coef []float64, sign, theta float64) int
TEXT ·flipRowCount512(SB), NOSPLIT, $0-96
	MOVQ         delta_base+0(FP), SI
	MOVQ         xsign_base+24(FP), R12
	MOVQ         coef_base+48(FP), R13
	MOVQ         coef_len+56(FP), CX
	VBROADCASTSD sign+72(FP), Z5
	VBROADCASTSD theta+80(FP), Z0
	VPTERNLOGQ   $0xff, Z6, Z6, Z6
	VPXORQ       Z1, Z1, Z1
	MOVQ         CX, R10
	ANDQ         $-8, R10
	XORQ         BX, BX
	CMPQ         BX, R10
	JAE          flipSum

flipGroup:
	// delta + sign·coef·xsign as the Go loop computes it: two rounded
	// products and a rounded sum, never a fused multiply-add.
	VMOVUPD (R13)(BX*8), Z3
	VMULPD  Z5, Z3, Z3
	VMULPD  (R12)(BX*8), Z3, Z3
	VADDPD  (SI)(BX*8), Z3, Z3
	VMOVUPD Z3, (SI)(BX*8)
	VCMPPD  $0x1e, Z3, Z0, K1
	VPSUBQ  Z6, Z1, K1, Z1
	ADDQ    $8, BX
	CMPQ    BX, R10
	JB      flipGroup

flipSum:
	SUM_LANES8
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

// func flipSparse512(delta, xsign []float64, nbr []int32, coef []float64, sign float64)
TEXT ·flipSparse512(SB), NOSPLIT, $0-104
	MOVQ         delta_base+0(FP), SI
	MOVQ         xsign_base+24(FP), R12
	MOVQ         nbr_base+48(FP), DI
	MOVQ         coef_base+72(FP), R13
	MOVQ         coef_len+80(FP), CX
	VBROADCASTSD sign+96(FP), Z5
	MOVQ         CX, R10
	ANDQ         $-8, R10
	XORQ         BX, BX
	CMPQ         BX, R10
	JAE          sparseTail

sparseGroup:
	// Eight neighbours j: gather xsign[j] and delta[j], add sign·c·xsign[j]
	// as the Go loop does, two rounded products and a rounded sum, and
	// scatter the sums back. The row lists each neighbour once and never
	// the flipped variable, so no two lanes alias and each group reads
	// only deltas no other lane writes. A gather clears its mask as it
	// completes, so each one gets a fresh all-ones mask.
	VMOVDQU32   (DI)(BX*4), Y1
	KXNORB      K1, K1, K1
	VGATHERDPD  (R12)(Y1*8), K1, Z2
	KXNORB      K2, K2, K2
	VGATHERDPD  (SI)(Y1*8), K2, Z3
	VMULPD      (R13)(BX*8), Z5, Z4
	VMULPD      Z2, Z4, Z4
	VADDPD      Z3, Z4, Z4
	KXNORB      K3, K3, K3
	VSCATTERDPD Z4, K3, (SI)(Y1*8)
	ADDQ        $8, BX
	CMPQ        BX, R10
	JB          sparseGroup

sparseTail:
	// The last one to seven neighbours are one group under the mask
	// (1<<CX)−1, which also keeps the loads inside the row.
	SUBQ        BX, CX
	JZ          sparseDone
	MOVL        $0xff, AX
	BZHIL       CX, AX, AX
	KMOVB       AX, K1
	KMOVB       K1, K2
	KMOVB       K1, K3
	VMOVDQU32.Z (DI)(BX*4), K1, Y1
	VGATHERDPD  (R12)(Y1*8), K2, Z2
	KMOVB       K1, K2
	VGATHERDPD  (SI)(Y1*8), K2, Z3
	VMOVUPD.Z   (R13)(BX*8), K1, Z4
	VMULPD      Z5, Z4, Z4
	VMULPD      Z2, Z4, Z4
	VADDPD      Z3, Z4, Z4
	VSCATTERDPD Z4, K3, (SI)(Y1*8)

sparseDone:
	VZEROUPPER
	RET
