//go:build amd64 && !purego

#include "textflag.h"

// AVX2 candidate kernels of the parallel-trial step. Each must return the
// same count and indices as its Go loop in state.go. Every instruction is
// VEX-encoded, the scalar tails included, and VZEROUPPER runs at entry and
// exit: legacy-SSE encodings among the 256-bit operations cost more than
// the vector loop saves.
//
// A group of four deltas is selected with one VCMPPD whose predicate,
// θ > delta (GT_OQ), is false when either side is NaN, as Go's delta < θ
// is. VMOVMSKPD turns the selection into a 4-bit mask; the mask picks a
// VPSHUFB control from packLanes that moves the selected lanes of the
// running index vector [i, i+1, i+2, i+3] to the front; one 16-byte store
// writes them at buf[count], and POPCNT advances count. The store stays
// inside buf because count ≤ i.

// packLanes holds, for each 4-bit mask, the VPSHUFB control that packs the
// int32 lanes whose mask bits are set to the front, in lane order.
DATA packLanes<>+0x00(SB)/8, $0x8080808080808080
DATA packLanes<>+0x08(SB)/8, $0x8080808080808080
DATA packLanes<>+0x10(SB)/8, $0x8080808003020100
DATA packLanes<>+0x18(SB)/8, $0x8080808080808080
DATA packLanes<>+0x20(SB)/8, $0x8080808007060504
DATA packLanes<>+0x28(SB)/8, $0x8080808080808080
DATA packLanes<>+0x30(SB)/8, $0x0706050403020100
DATA packLanes<>+0x38(SB)/8, $0x8080808080808080
DATA packLanes<>+0x40(SB)/8, $0x808080800b0a0908
DATA packLanes<>+0x48(SB)/8, $0x8080808080808080
DATA packLanes<>+0x50(SB)/8, $0x0b0a090803020100
DATA packLanes<>+0x58(SB)/8, $0x8080808080808080
DATA packLanes<>+0x60(SB)/8, $0x0b0a090807060504
DATA packLanes<>+0x68(SB)/8, $0x8080808080808080
DATA packLanes<>+0x70(SB)/8, $0x0706050403020100
DATA packLanes<>+0x78(SB)/8, $0x808080800b0a0908
DATA packLanes<>+0x80(SB)/8, $0x808080800f0e0d0c
DATA packLanes<>+0x88(SB)/8, $0x8080808080808080
DATA packLanes<>+0x90(SB)/8, $0x0f0e0d0c03020100
DATA packLanes<>+0x98(SB)/8, $0x8080808080808080
DATA packLanes<>+0xa0(SB)/8, $0x0f0e0d0c07060504
DATA packLanes<>+0xa8(SB)/8, $0x8080808080808080
DATA packLanes<>+0xb0(SB)/8, $0x0706050403020100
DATA packLanes<>+0xb8(SB)/8, $0x808080800f0e0d0c
DATA packLanes<>+0xc0(SB)/8, $0x0f0e0d0c0b0a0908
DATA packLanes<>+0xc8(SB)/8, $0x8080808080808080
DATA packLanes<>+0xd0(SB)/8, $0x0b0a090803020100
DATA packLanes<>+0xd8(SB)/8, $0x808080800f0e0d0c
DATA packLanes<>+0xe0(SB)/8, $0x0b0a090807060504
DATA packLanes<>+0xe8(SB)/8, $0x808080800f0e0d0c
DATA packLanes<>+0xf0(SB)/8, $0x0706050403020100
DATA packLanes<>+0xf8(SB)/8, $0x0f0e0d0c0b0a0908
GLOBL packLanes<>(SB), RODATA|NOPTR, $256

// laneOffsets is the int32 vector [0, 1, 2, 3].
DATA laneOffsets<>+0x00(SB)/8, $0x0000000100000000
DATA laneOffsets<>+0x08(SB)/8, $0x0000000300000002
GLOBL laneOffsets<>(SB), RODATA|NOPTR, $16

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

// INIT_INDICES loads the state shared by both kernels: R8 = &packLanes,
// X1 = [base, base+1, base+2, base+3], X2 = [4, 4, 4, 4], the group loop's
// bound R10 = len &^ 3 (len in CX), and count AX = 0.
#define INIT_INDICES(base) \
	LEAQ         packLanes<>(SB), R8; \
	MOVL         base, R11; \
	VMOVD        R11, X1; \
	VPBROADCASTD X1, X1; \
	VPADDD       laneOffsets<>(SB), X1, X1; \
	MOVL         $4, R9; \
	VMOVD        R9, X2; \
	VPBROADCASTD X2, X2; \
	MOVQ         CX, R10; \
	ANDQ         $-4, R10; \
	XORQ         AX, AX

// PACK_INDICES appends the index lanes of X1 selected by the VCMPPD result
// in sel to buf (DI) at count AX, then steps X1 to the next group.
#define PACK_INDICES(sel) \
	VMOVMSKPD sel, DX; \
	MOVL      DX, R9; \
	POPCNTL   R9, R9; \
	SHLL      $4, DX; \
	VPSHUFB   (R8)(DX*1), X1, X4; \
	VMOVDQU   X4, (DI)(AX*4); \
	ADDQ      R9, AX; \
	VPADDD    X2, X1, X1

// func collectBelowAVX2(delta []float64, theta float64, base int32, buf []int32) int
TEXT ·collectBelowAVX2(SB), NOSPLIT, $0-72
	VZEROUPPER
	MOVQ         delta_base+0(FP), SI
	MOVQ         delta_len+8(FP), CX
	VBROADCASTSD theta+24(FP), Y0
	MOVQ         buf_base+40(FP), DI
	INIT_INDICES(base+32(FP))

	// SI walks the deltas; R10 and CX become the end of the full groups
	// and of the slice.
	LEAQ (SI)(R10*8), R10
	LEAQ (SI)(CX*8), CX
	CMPQ SI, R10
	JAE  scanTail

scanGroup:
	VCMPPD $0x1e, (SI), Y0, Y3
	PACK_INDICES(Y3)
	ADDQ   $32, SI
	CMPQ   SI, R10
	JB     scanGroup

scanTail:
	// One delta at a time: write its index, keep it when θ > delta.
	VMOVD X1, R11
	CMPQ  SI, CX
	JAE   scanDone

scanOne:
	MOVL     R11, (DI)(AX*4)
	LEAQ     1(AX), R9
	VUCOMISD (SI), X0
	CMOVQHI  R9, AX
	INCL     R11
	ADDQ     $8, SI
	CMPQ     SI, CX
	JB       scanOne

scanDone:
	VZEROUPPER
	MOVQ AX, ret+64(FP)
	RET

// func flipRowCollectAVX2(delta, xsign, coef []float64, sign, theta float64, base int32, buf []int32) int
TEXT ·flipRowCollectAVX2(SB), NOSPLIT, $0-128
	VZEROUPPER
	MOVQ         delta_base+0(FP), SI
	MOVQ         xsign_base+24(FP), R12
	MOVQ         coef_base+48(FP), R13
	MOVQ         coef_len+56(FP), CX
	VBROADCASTSD sign+72(FP), Y5
	VBROADCASTSD theta+80(FP), Y0
	MOVQ         buf_base+96(FP), DI
	INIT_INDICES(base+88(FP))
	XORQ         BX, BX
	CMPQ         BX, R10
	JAE          flipTail

flipGroup:
	// delta + sign·coef·xsign as the Go loop computes it: two rounded
	// products and a rounded sum, never a fused multiply-add.
	VMOVUPD (R13)(BX*8), Y3
	VMULPD  Y5, Y3, Y3
	VMULPD  (R12)(BX*8), Y3, Y3
	VADDPD  (SI)(BX*8), Y3, Y3
	VMOVUPD Y3, (SI)(BX*8)
	VCMPPD  $0x1e, Y3, Y0, Y3
	PACK_INDICES(Y3)
	ADDQ    $4, BX
	CMPQ    BX, R10
	JB      flipGroup

flipTail:
	VMOVD X1, R11
	CMPQ  BX, CX
	JAE   flipDone

flipOne:
	VMOVSD   (R13)(BX*8), X3
	VMULSD   X5, X3, X3
	VMULSD   (R12)(BX*8), X3, X3
	VADDSD   (SI)(BX*8), X3, X3
	VMOVSD   X3, (SI)(BX*8)
	MOVL     R11, (DI)(AX*4)
	LEAQ     1(AX), R9
	VUCOMISD X3, X0
	CMOVQHI  R9, AX
	INCL     R11
	INCQ     BX
	CMPQ     BX, CX
	JB       flipOne

flipDone:
	VZEROUPPER
	MOVQ AX, ret+120(FP)
	RET
