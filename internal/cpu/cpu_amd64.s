//go:build amd64 && !purego

#include "textflag.h"

// func probe() Level
TEXT ·probe(SB), NOSPLIT, $0-8
	MOVQ $0, ret+0(FP)
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
	MOVL AX, R8

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
	MOVQ  $1, ret+0(FP)

	// XCR0 also saves the opmask (bit 5) and the upper ZMM0-15 (6) and
	// ZMM16-31 (7) registers.
	ANDL $0xe6, R8
	CMPL R8, $0xe6
	JNE  done

	// Leaf 7 EBX: BMI1 (bit 3), BMI2 (8), AVX-512 F (16), DQ (17), BW (30)
	// and VL (31).
	ANDL $0xc0030108, BX
	CMPL BX, $0xc0030108
	JNE  done
	MOVQ $2, ret+0(FP)

done:
	RET
