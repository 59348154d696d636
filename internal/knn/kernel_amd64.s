//go:build amd64 && !purego

#include "textflag.h"

// A group is 16 vectors (simdGroup). Every primitive scores consecutive
// groups, compares distances against a signed bound (VPCMPQ: a bound of -1
// never flags) and returns the index of the first group holding a lane at
// or under it, with that group's lane masks, or groups and no mask when
// none does. Instructions are AVX512F and AVX512_VPOPCNTDQ only: opmasks
// move through KMOVW/KORW/KORTESTW, never the DQ/BW forms.
//
// A ZMM register holds eight distances, so a group is two halves: lanes
// 0-7 of a mask are vectors 0-7 of the group, lanes 8-15 vectors 8-15, in
// the order laneVector (kernel_amd64.go) spells out per stride.
//
// The single-query primitives (maskW1/W2/W4) return the exact 16-lane
// mask. The four-query tiles (tileW1/W2/W4) load a group once, bring it to
// word-major registers once, score each query against its own bound on
// the lane-wise minimum of the two halves and branch once for all four;
// they return one 8-bit mask per query (bits 8j..8j+7 for query j), where
// lane p flags vectors p and p+8 of the half order.

// PACK4 packs the 8-bit masks K1..K4 into BX, K1 lowest.
#define PACK4 \
	KMOVW K1, BX; \
	KMOVW K2, DX; \
	SHLL  $8, DX; \
	ORL   DX, BX; \
	KMOVW K3, DX; \
	SHLL  $16, DX; \
	ORL   DX, BX; \
	KMOVW K4, DX; \
	SHLL  $24, DX; \
	ORL   DX, BX

// func maskW1(slab *uint64, groups int, q *uint64, bound int) (group int, lanes uint16)
// One word per vector: a ZMM load is eight vectors, its VPOPCNTQ their
// distances.
TEXT ·maskW1(SB), NOSPLIT, $0-42
	MOVQ         slab+0(FP), SI
	MOVQ         groups+8(FP), CX
	MOVQ         q+16(FP), DX
	VPBROADCASTQ (DX), Z0
	VPBROADCASTQ bound+24(FP), Z1
	XORQ         AX, AX
	XORL         BX, BX

m1loop:
	CMPQ     AX, CX
	JGE      m1done
	VPXORQ   (SI), Z0, Z2
	VPXORQ   64(SI), Z0, Z3
	VPOPCNTQ Z2, Z2
	VPOPCNTQ Z3, Z3
	VPCMPQ   $2, Z1, Z2, K1
	VPCMPQ   $2, Z1, Z3, K2
	KORTESTW K2, K1
	JNZ      m1hit
	ADDQ     $128, SI
	INCQ     AX
	JMP      m1loop

m1hit:
	KMOVW K1, BX
	KMOVW K2, DX
	SHLL  $8, DX
	ORL   DX, BX

m1done:
	VZEROUPPER
	MOVQ AX, group+32(FP)
	MOVW BX, lanes+40(FP)
	RET

// func maskW2(slab *uint64, groups int, q *uint64, bound int) (group int, lanes uint16)
// Two words per vector: a ZMM load is four vectors. For two loads A and B,
// unpack-low(A,B) + unpack-high(A,B) adds each vector's two word counts and
// yields eight distances (A's and B's vectors interleaved).
TEXT ·maskW2(SB), NOSPLIT, $0-42
	MOVQ            slab+0(FP), SI
	MOVQ            groups+8(FP), CX
	MOVQ            q+16(FP), DX
	VBROADCASTI32X4 (DX), Z0
	VPBROADCASTQ    bound+24(FP), Z1
	XORQ            AX, AX
	XORL            BX, BX

m2loop:
	CMPQ        AX, CX
	JGE         m2done
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
	VPCMPQ      $2, Z1, Z6, K1
	VPCMPQ      $2, Z1, Z8, K2
	KORTESTW    K2, K1
	JNZ         m2hit
	ADDQ        $256, SI
	INCQ        AX
	JMP         m2loop

m2hit:
	KMOVW K1, BX
	KMOVW K2, DX
	SHLL  $8, DX
	ORL   DX, BX

m2done:
	VZEROUPPER
	MOVQ AX, group+32(FP)
	MOVW BX, lanes+40(FP)
	RET

// func maskW4(slab *uint64, groups int, q *uint64, bound int) (group int, lanes uint16)
// Four words per vector: a ZMM load is two vectors. The pair reduce of W2
// over loads A,B and C,D leaves half-vector sums, one vector half per
// 128-bit lane; VSHUFI64X2 gathers the even lanes of both results into one
// register and the odd lanes into another, and their sum is eight distances.
// A group is two such rounds.
TEXT ·maskW4(SB), NOSPLIT, $0-42
	MOVQ            slab+0(FP), SI
	MOVQ            groups+8(FP), CX
	MOVQ            q+16(FP), DX
	VBROADCASTI64X4 (DX), Z0
	VPBROADCASTQ    bound+24(FP), Z1
	XORQ            AX, AX
	XORL            BX, BX

m4loop:
	CMPQ        AX, CX
	JGE         m4done
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
	VPCMPQ      $2, Z1, Z10, K1
	VPCMPQ      $2, Z1, Z12, K2
	KORTESTW    K2, K1
	JNZ         m4hit
	ADDQ        $512, SI
	INCQ        AX
	JMP         m4loop

m4hit:
	KMOVW K1, BX
	KMOVW K2, DX
	SHLL  $8, DX
	ORL   DX, BX

m4done:
	VZEROUPPER
	MOVQ AX, group+32(FP)
	MOVW BX, lanes+40(FP)
	RET

// The tiles hold query j's word w broadcast in Z(16+4j+w) and its bound in
// Z(12+j), and leave query j's mask in K(1+j).

// TILE1 scores one query of tileW1 against the group's halves in Z0 and Z1.
#define TILE1(qw, bound, k) \
	VPXORQ   Z0, qw, Z2;       \
	VPXORQ   Z1, qw, Z3;       \
	VPOPCNTQ Z2, Z2;           \
	VPOPCNTQ Z3, Z3;           \
	VPMINUQ  Z3, Z2, Z2;       \
	VPCMPQ   $2, bound, Z2, k

// func tileW1(slab *uint64, groups int, q *uint64, b0, b1, b2, b3 int) (group int, masks uint32)
// q holds the four queries' words one after another.
TEXT ·tileW1(SB), NOSPLIT, $0-68
	MOVQ         slab+0(FP), SI
	MOVQ         groups+8(FP), CX
	MOVQ         q+16(FP), DX
	VPBROADCASTQ (DX), Z16
	VPBROADCASTQ 8(DX), Z20
	VPBROADCASTQ 16(DX), Z24
	VPBROADCASTQ 24(DX), Z28
	VPBROADCASTQ b0+24(FP), Z12
	VPBROADCASTQ b1+32(FP), Z13
	VPBROADCASTQ b2+40(FP), Z14
	VPBROADCASTQ b3+48(FP), Z15
	XORQ         AX, AX
	XORL         BX, BX

t1loop:
	CMPQ      AX, CX
	JGE       t1done
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	TILE1(Z16, Z12, K1)
	TILE1(Z20, Z13, K2)
	TILE1(Z24, Z14, K3)
	TILE1(Z28, Z15, K4)
	KORW      K2, K1, K5
	KORW      K4, K3, K6
	KORTESTW  K6, K5
	JNZ       t1hit
	ADDQ      $128, SI
	INCQ      AX
	JMP       t1loop

t1hit:
	PACK4

t1done:
	VZEROUPPER
	MOVQ AX, group+56(FP)
	MOVL BX, masks+64(FP)
	RET

// TILE2 scores one query of tileW2 against the group's word-major halves:
// words 0 and 1 of vectors 0-7 in Z4 and Z5, of vectors 8-15 in Z6 and Z7.
#define TILE2(q0, q1, bound, k) \
	VPXORQ   Z4, q0, Z8;        \
	VPXORQ   Z5, q1, Z9;        \
	VPXORQ   Z6, q0, Z10;       \
	VPXORQ   Z7, q1, Z11;       \
	VPOPCNTQ Z8, Z8;            \
	VPOPCNTQ Z9, Z9;            \
	VPOPCNTQ Z10, Z10;          \
	VPOPCNTQ Z11, Z11;          \
	VPADDQ   Z9, Z8, Z8;        \
	VPADDQ   Z11, Z10, Z10;     \
	VPMINUQ  Z10, Z8, Z8;       \
	VPCMPQ   $2, bound, Z8, k

// func tileW2(slab *uint64, groups int, q *uint64, b0, b1, b2, b3 int) (group int, masks uint32)
// The unpacks of maskW2, once per group: word-major, lanes in the same
// order.
TEXT ·tileW2(SB), NOSPLIT, $0-68
	MOVQ         slab+0(FP), SI
	MOVQ         groups+8(FP), CX
	MOVQ         q+16(FP), DX
	VPBROADCASTQ (DX), Z16
	VPBROADCASTQ 8(DX), Z17
	VPBROADCASTQ 16(DX), Z20
	VPBROADCASTQ 24(DX), Z21
	VPBROADCASTQ 32(DX), Z24
	VPBROADCASTQ 40(DX), Z25
	VPBROADCASTQ 48(DX), Z28
	VPBROADCASTQ 56(DX), Z29
	VPBROADCASTQ b0+24(FP), Z12
	VPBROADCASTQ b1+32(FP), Z13
	VPBROADCASTQ b2+40(FP), Z14
	VPBROADCASTQ b3+48(FP), Z15
	XORQ         AX, AX
	XORL         BX, BX

t2loop:
	CMPQ        AX, CX
	JGE         t2done
	VMOVDQU64   (SI), Z0
	VMOVDQU64   64(SI), Z1
	VMOVDQU64   128(SI), Z2
	VMOVDQU64   192(SI), Z3
	VPUNPCKLQDQ Z1, Z0, Z4
	VPUNPCKHQDQ Z1, Z0, Z5
	VPUNPCKLQDQ Z3, Z2, Z6
	VPUNPCKHQDQ Z3, Z2, Z7
	TILE2(Z16, Z17, Z12, K1)
	TILE2(Z20, Z21, Z13, K2)
	TILE2(Z24, Z25, Z14, K3)
	TILE2(Z28, Z29, Z15, K4)
	KORW        K2, K1, K5
	KORW        K4, K3, K6
	KORTESTW    K6, K5
	JNZ         t2hit
	ADDQ        $256, SI
	INCQ        AX
	JMP         t2loop

t2hit:
	PACK4

t2done:
	VZEROUPPER
	MOVQ AX, group+56(FP)
	MOVL BX, masks+64(FP)
	RET

// HALF4 brings the eight vectors at off(SI) to word-major form: words 0-3
// in w0..w3, lanes in maskW4's order. It clobbers Z0-Z7; w0..w3 may be
// Z0-Z3 (the loads are dead by the time the shuffles write).
#define HALF4(off, w0, w1, w2, w3) \
	VMOVDQU64   (off)(SI), Z0;       \
	VMOVDQU64   (off+64)(SI), Z1;    \
	VMOVDQU64   (off+128)(SI), Z2;   \
	VMOVDQU64   (off+192)(SI), Z3;   \
	VPUNPCKLQDQ Z1, Z0, Z4;          \
	VPUNPCKHQDQ Z1, Z0, Z5;          \
	VPUNPCKLQDQ Z3, Z2, Z6;          \
	VPUNPCKHQDQ Z3, Z2, Z7;          \
	VSHUFI64X2  $0x88, Z6, Z4, w0;   \
	VSHUFI64X2  $0x88, Z7, Z5, w1;   \
	VSHUFI64X2  $0xdd, Z6, Z4, w2;   \
	VSHUFI64X2  $0xdd, Z7, Z5, w3

// TILE4 scores one query of tileW4: words 0-3 of vectors 0-7 in Z8-Z11,
// of vectors 8-15 in Z0-Z3; Z4-Z7 are scratch.
#define TILE4(q0, q1, q2, q3, bound, k) \
	VPXORQ   Z8, q0, Z4;                \
	VPXORQ   Z9, q1, Z5;                \
	VPXORQ   Z10, q2, Z6;               \
	VPXORQ   Z11, q3, Z7;               \
	VPOPCNTQ Z4, Z4;                    \
	VPOPCNTQ Z5, Z5;                    \
	VPOPCNTQ Z6, Z6;                    \
	VPOPCNTQ Z7, Z7;                    \
	VPADDQ   Z5, Z4, Z4;                \
	VPADDQ   Z7, Z6, Z6;                \
	VPADDQ   Z6, Z4, Z4;                \
	VPXORQ   Z0, q0, Z5;                \
	VPXORQ   Z1, q1, Z6;                \
	VPXORQ   Z2, q2, Z7;                \
	VPOPCNTQ Z5, Z5;                    \
	VPOPCNTQ Z6, Z6;                    \
	VPOPCNTQ Z7, Z7;                    \
	VPADDQ   Z6, Z5, Z5;                \
	VPADDQ   Z7, Z5, Z5;                \
	VPXORQ   Z3, q3, Z6;                \
	VPOPCNTQ Z6, Z6;                    \
	VPADDQ   Z6, Z5, Z5;                \
	VPMINUQ  Z5, Z4, Z4;                \
	VPCMPQ   $2, bound, Z4, k

// func tileW4(slab *uint64, groups int, q *uint64, b0, b1, b2, b3 int) (group int, masks uint32)
// The unpacks and shuffles of maskW4 on the data, once per group, before
// any query touches it. All 32 ZMM registers are in use.
TEXT ·tileW4(SB), NOSPLIT, $0-68
	MOVQ         slab+0(FP), SI
	MOVQ         groups+8(FP), CX
	MOVQ         q+16(FP), DX
	VPBROADCASTQ (DX), Z16
	VPBROADCASTQ 8(DX), Z17
	VPBROADCASTQ 16(DX), Z18
	VPBROADCASTQ 24(DX), Z19
	VPBROADCASTQ 32(DX), Z20
	VPBROADCASTQ 40(DX), Z21
	VPBROADCASTQ 48(DX), Z22
	VPBROADCASTQ 56(DX), Z23
	VPBROADCASTQ 64(DX), Z24
	VPBROADCASTQ 72(DX), Z25
	VPBROADCASTQ 80(DX), Z26
	VPBROADCASTQ 88(DX), Z27
	VPBROADCASTQ 96(DX), Z28
	VPBROADCASTQ 104(DX), Z29
	VPBROADCASTQ 112(DX), Z30
	VPBROADCASTQ 120(DX), Z31
	VPBROADCASTQ b0+24(FP), Z12
	VPBROADCASTQ b1+32(FP), Z13
	VPBROADCASTQ b2+40(FP), Z14
	VPBROADCASTQ b3+48(FP), Z15
	XORQ         AX, AX
	XORL         BX, BX

t4loop:
	CMPQ     AX, CX
	JGE      t4done
	HALF4(0, Z8, Z9, Z10, Z11)
	HALF4(256, Z0, Z1, Z2, Z3)
	TILE4(Z16, Z17, Z18, Z19, Z12, K1)
	TILE4(Z20, Z21, Z22, Z23, Z13, K2)
	TILE4(Z24, Z25, Z26, Z27, Z14, K3)
	TILE4(Z28, Z29, Z30, Z31, Z15, K4)
	KORW     K2, K1, K5
	KORW     K4, K3, K6
	KORTESTW K6, K5
	JNZ      t4hit
	ADDQ     $512, SI
	INCQ     AX
	JMP      t4loop

t4hit:
	PACK4

t4done:
	VZEROUPPER
	MOVQ AX, group+56(FP)
	MOVL BX, masks+64(FP)
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
