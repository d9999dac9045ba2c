//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// BROADCAST sets every lane of Z to the 64 bits of the constant C.
#define BROADCAST(C, Z) \
	MOVQ         C, AX; \
	VPBROADCASTQ AX, Z

// func expBlock512(exps *[drawBlock]float64, raw *[drawBlock]int64)
//
// exps[i] = −math.Log(1 − float64(raw[i])/2⁶³), eight slots at a time,
// with math.Log's amd64 assembly (log_amd64.s) repeated lane for lane:
// the same operations in the same order, each rounded on its own, never a
// fused multiply-add. Every x = 1 − f the chain reads lies in [2⁻⁵³, 1],
// a positive normal number, so none of archLog's special cases applies;
// the slots Float64 resamples (x = 0) hold garbage and are never read.
TEXT ·expBlock512(SB), NOSPLIT, $0-16
	MOVQ exps+0(FP), DI
	MOVQ raw+8(FP), SI
	BROADCAST($0x3c00000000000000, Z16) // 2⁻⁶³
	BROADCAST($0x3ff0000000000000, Z17) // 1
	BROADCAST($0x000fffffffffffff, Z18) // the mantissa bits
	BROADCAST($0x3fe0000000000000, Z19) // 0.5, and its bits
	BROADCAST($0x3fe, Z20)
	BROADCAST($0x3fe6a09e667f3bcd, Z21) // HSqrt2
	BROADCAST($0x4000000000000000, Z22) // 2
	BROADCAST($0x3fe5555555555593, Z23) // L1
	BROADCAST($0x3fd999999997fa04, Z24) // L2
	BROADCAST($0x3fd2492494229359, Z25) // L3
	BROADCAST($0x3fcc71c51d8e78af, Z26) // L4
	BROADCAST($0x3fc7466496cb03de, Z27) // L5
	BROADCAST($0x3fc39a09d078c69f, Z28) // L6
	BROADCAST($0x3fc2f112df3e5244, Z29) // L7
	BROADCAST($0x3fe62e42fee00000, Z30) // Ln2Hi
	BROADCAST($0x3dea39ef35793c76, Z31) // Ln2Lo
	BROADCAST($0x8000000000000000, Z14) // the sign bit
	XORQ BX, BX

expGroup:
	// x = 1 − f with f = float64(raw)·2⁻⁶³, as rand.Float64 and the
	// mirror onto (0,1] compute it.
	VCVTQQ2PD (SI)(BX*8), Z0
	VMULPD    Z16, Z0, Z0
	VSUBPD    Z0, Z17, Z0

	// f1, ki := math.Frexp(x); k := float64(ki)
	VPANDQ    Z18, Z0, Z1
	VPORQ     Z19, Z1, Z1 // Z1 = f1
	VPSRLQ    $52, Z0, Z2
	VPSUBQ    Z20, Z2, Z2
	VCVTQQ2PD Z2, Z2      // Z2 = k

	// if !(HSqrt2 < f1) { k -= 1; f1 *= 2 }: archLog's CMPSD predicate 5,
	// which doubles f1 = HSqrt2 where pure-Go log does not.
	VCMPPD $5, Z1, Z21, K1
	VSUBPD Z17, Z2, K1, Z2
	VMULPD Z22, Z1, K1, Z1

	// f := f1 − 1; s := f / (2 + f); s2 := s·s; s4 := s2·s2
	VSUBPD Z17, Z1, Z1 // Z1 = f
	VADDPD Z22, Z1, Z3
	VDIVPD Z3, Z1, Z3  // Z3 = s
	VMULPD Z3, Z3, Z4  // Z4 = s2
	VMULPD Z4, Z4, Z5  // Z5 = s4

	// t1 := s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMULPD Z29, Z5, Z6
	VADDPD Z27, Z6, Z6
	VMULPD Z5, Z6, Z6
	VADDPD Z25, Z6, Z6
	VMULPD Z5, Z6, Z6
	VADDPD Z23, Z6, Z6
	VMULPD Z6, Z4, Z4 // Z4 = t1

	// t2 := s4·(L2 + s4·(L4 + s4·L6)); R := t1 + t2
	VMULPD Z28, Z5, Z6
	VADDPD Z26, Z6, Z6
	VMULPD Z5, Z6, Z6
	VADDPD Z24, Z6, Z6
	VMULPD Z6, Z5, Z5
	VADDPD Z5, Z4, Z4  // Z4 = R

	// hfsq := 0.5·f·f
	VMULPD Z19, Z1, Z7
	VMULPD Z1, Z7, Z7  // Z7 = hfsq

	// log = k·Ln2Hi − ((hfsq − (s·(hfsq + R) + k·Ln2Lo)) − f), negated.
	VADDPD Z7, Z4, Z4
	VMULPD Z4, Z3, Z3
	VMULPD Z31, Z2, Z8
	VADDPD Z8, Z3, Z3
	VSUBPD Z3, Z7, Z7
	VSUBPD Z1, Z7, Z7
	VMULPD Z30, Z2, Z2
	VSUBPD Z7, Z2, Z2
	VPXORQ Z14, Z2, Z2

	VMOVUPD Z2, (DI)(BX*8)
	ADDQ    $8, BX
	CMPQ    BX, $const_drawBlock
	JB      expGroup
	VZEROUPPER
	RET
