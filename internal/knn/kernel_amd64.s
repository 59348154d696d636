//go:build amd64 && !purego

#include "textflag.h"

// A group is 16 vectors (simdGroup). Each loop iteration scores one group,
// leaves its distances in two ZMM registers of eight uint64 lanes each,
// takes their lane-wise minimum and compares that once against the bound:
// any lane <= bound means the group holds a candidate.

// func firstHitW1(slab *uint64, groups int, q *uint64, bound uint64) int
// One word per vector: a ZMM load is eight vectors, its VPOPCNTQ their
// distances.
TEXT ·firstHitW1(SB), NOSPLIT, $0-40
	MOVQ         slab+0(FP), SI
	MOVQ         groups+8(FP), CX
	MOVQ         q+16(FP), DX
	VPBROADCASTQ (DX), Z0
	VPBROADCASTQ bound+24(FP), Z1
	XORQ         AX, AX

w1loop:
	CMPQ     AX, CX
	JGE      w1done
	VPXORQ   (SI), Z0, Z2
	VPXORQ   64(SI), Z0, Z3
	VPOPCNTQ Z2, Z2
	VPOPCNTQ Z3, Z3
	VPMINUQ  Z3, Z2, Z2
	VPCMPUQ  $2, Z1, Z2, K1
	KORTESTW K1, K1
	JNZ      w1done
	ADDQ     $128, SI
	INCQ     AX
	JMP      w1loop

w1done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func firstHitW2(slab *uint64, groups int, q *uint64, bound uint64) int
// Two words per vector: a ZMM load is four vectors. For two loads A and B,
// unpack-low(A,B) + unpack-high(A,B) adds each vector's two word counts and
// yields eight distances (A's and B's vectors interleaved).
TEXT ·firstHitW2(SB), NOSPLIT, $0-40
	MOVQ            slab+0(FP), SI
	MOVQ            groups+8(FP), CX
	MOVQ            q+16(FP), DX
	VBROADCASTI32X4 (DX), Z0
	VPBROADCASTQ    bound+24(FP), Z1
	XORQ            AX, AX

w2loop:
	CMPQ        AX, CX
	JGE         w2done
	VPXORQ      (SI), Z0, Z2
	VPXORQ      64(SI), Z0, Z3
	VPXORQ      128(SI), Z0, Z4
	VPXORQ      192(SI), Z0, Z5
	VPOPCNTQ    Z2, Z2
	VPOPCNTQ    Z3, Z3
	VPOPCNTQ    Z4, Z4
	VPOPCNTQ    Z5, Z5
	VPUNPCKLQDQ Z3, Z2, Z6
	VPUNPCKHQDQ Z3, Z2, Z7
	VPUNPCKLQDQ Z5, Z4, Z8
	VPUNPCKHQDQ Z5, Z4, Z9
	VPADDQ      Z7, Z6, Z6
	VPADDQ      Z9, Z8, Z8
	VPMINUQ     Z8, Z6, Z6
	VPCMPUQ     $2, Z1, Z6, K1
	KORTESTW    K1, K1
	JNZ         w2done
	ADDQ        $256, SI
	INCQ        AX
	JMP         w2loop

w2done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func firstHitW4(slab *uint64, groups int, q *uint64, bound uint64) int
// Four words per vector: a ZMM load is two vectors. The pair reduce of W2
// over loads A,B and C,D leaves half-vector sums, one vector half per
// 128-bit lane; VSHUFI64X2 gathers the even lanes of both results into one
// register and the odd lanes into another, and their sum is eight distances.
// A group is two such rounds.
TEXT ·firstHitW4(SB), NOSPLIT, $0-40
	MOVQ            slab+0(FP), SI
	MOVQ            groups+8(FP), CX
	MOVQ            q+16(FP), DX
	VBROADCASTI64X4 (DX), Z0
	VPBROADCASTQ    bound+24(FP), Z1
	XORQ            AX, AX

w4loop:
	CMPQ        AX, CX
	JGE         w4done
	VPXORQ      (SI), Z0, Z2
	VPXORQ      64(SI), Z0, Z3
	VPXORQ      128(SI), Z0, Z4
	VPXORQ      192(SI), Z0, Z5
	VPOPCNTQ    Z2, Z2
	VPOPCNTQ    Z3, Z3
	VPOPCNTQ    Z4, Z4
	VPOPCNTQ    Z5, Z5
	VPUNPCKLQDQ Z3, Z2, Z6
	VPUNPCKHQDQ Z3, Z2, Z7
	VPUNPCKLQDQ Z5, Z4, Z8
	VPUNPCKHQDQ Z5, Z4, Z9
	VPADDQ      Z7, Z6, Z6
	VPADDQ      Z9, Z8, Z8
	VSHUFI64X2  $0x88, Z8, Z6, Z10
	VSHUFI64X2  $0xdd, Z8, Z6, Z11
	VPADDQ      Z11, Z10, Z10
	VPXORQ      256(SI), Z0, Z2
	VPXORQ      320(SI), Z0, Z3
	VPXORQ      384(SI), Z0, Z4
	VPXORQ      448(SI), Z0, Z5
	VPOPCNTQ    Z2, Z2
	VPOPCNTQ    Z3, Z3
	VPOPCNTQ    Z4, Z4
	VPOPCNTQ    Z5, Z5
	VPUNPCKLQDQ Z3, Z2, Z6
	VPUNPCKHQDQ Z3, Z2, Z7
	VPUNPCKLQDQ Z5, Z4, Z8
	VPUNPCKHQDQ Z5, Z4, Z9
	VPADDQ      Z7, Z6, Z6
	VPADDQ      Z9, Z8, Z8
	VSHUFI64X2  $0x88, Z8, Z6, Z12
	VSHUFI64X2  $0xdd, Z8, Z6, Z13
	VPADDQ      Z13, Z12, Z12
	VPMINUQ     Z12, Z10, Z10
	VPCMPUQ     $2, Z1, Z10, K1
	KORTESTW    K1, K1
	JNZ         w4done
	ADDQ        $512, SI
	INCQ        AX
	JMP         w4loop

w4done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
