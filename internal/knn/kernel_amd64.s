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
// mask. The tiles (four queries: tileW1/W2/W4; eight: tileW1x8/W2x8/W4x8)
// load a group once, bring it to word-major registers once, score each
// query against its own bound on the lane-wise minimum of the two halves
// and branch on all of them together; they return one 8-bit mask per query
// (bits 8j..8j+7 for query j), where lane p flags vectors p and p+8 of the
// half order. A tile's loop prefetches the group AHEAD bytes on, one
// PREFETCHT0 per cache line (baseline x86, as the scalar moves and jumps
// are): a slab past the private caches streams in behind the vector work
// instead of stalling it.

// AHEAD is the tiles' prefetch distance in bytes.
#define AHEAD 2048

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

// The four-query tiles hold query j's word w broadcast in Z(16+4j+w) and
// its bound, read from b[j], in Z(12+j), compare with VPCMPQ and leave
// query j's mask in K(1+j). The eight-query tiles hold the query words in Z16-Z31 as far as
// they fit (all of them at strides 1 and 2, queries 0-3 at stride 4, the
// rest read as VPXORQ.BCST operands), compare against the bound array with
// VPCMPQ.BCST, and leave query j's mask in K(j).

// PACK8 packs the 8-bit masks K0..K7 into R8, K0 lowest.
#define PACK8 \
	KMOVW K7, R8;  \
	SHLQ  $8, R8;  \
	KMOVW K6, R9;  \
	ORQ   R9, R8;  \
	SHLQ  $8, R8;  \
	KMOVW K5, R9;  \
	ORQ   R9, R8;  \
	SHLQ  $8, R8;  \
	KMOVW K4, R9;  \
	ORQ   R9, R8;  \
	SHLQ  $8, R8;  \
	KMOVW K3, R9;  \
	ORQ   R9, R8;  \
	SHLQ  $8, R8;  \
	KMOVW K2, R9;  \
	ORQ   R9, R8;  \
	SHLQ  $8, R8;  \
	KMOVW K1, R9;  \
	ORQ   R9, R8;  \
	SHLQ  $8, R8;  \
	KMOVW K0, R9;  \
	ORQ   R9, R8

// ANY8 jumps to hit when any of K0..K7 is set: there is no ninth opmask
// register to OR them into.
#define ANY8(hit) \
	KORTESTW K1, K0; \
	JNZ      hit;    \
	KORTESTW K3, K2; \
	JNZ      hit;    \
	KORTESTW K5, K4; \
	JNZ      hit;    \
	KORTESTW K7, K6; \
	JNZ      hit

// BROADCAST16 broadcasts the first sixteen query words at DX into Z16-Z31.
#define BROADCAST16 \
	VPBROADCASTQ (DX), Z16;    \
	VPBROADCASTQ 8(DX), Z17;   \
	VPBROADCASTQ 16(DX), Z18;  \
	VPBROADCASTQ 24(DX), Z19;  \
	VPBROADCASTQ 32(DX), Z20;  \
	VPBROADCASTQ 40(DX), Z21;  \
	VPBROADCASTQ 48(DX), Z22;  \
	VPBROADCASTQ 56(DX), Z23;  \
	VPBROADCASTQ 64(DX), Z24;  \
	VPBROADCASTQ 72(DX), Z25;  \
	VPBROADCASTQ 80(DX), Z26;  \
	VPBROADCASTQ 88(DX), Z27;  \
	VPBROADCASTQ 96(DX), Z28;  \
	VPBROADCASTQ 104(DX), Z29; \
	VPBROADCASTQ 112(DX), Z30; \
	VPBROADCASTQ 120(DX), Z31

// TILE1 scores one query of a stride-1 tile against the group's halves in
// Z0 and Z1; CMP is VPCMPQ (bound a register) or VPCMPQ.BCST (bound in
// memory).
#define TILE1(qw, CMP, bound, k) \
	VPXORQ   Z0, qw, Z2;         \
	VPXORQ   Z1, qw, Z3;         \
	VPOPCNTQ Z2, Z2;             \
	VPOPCNTQ Z3, Z3;             \
	VPMINUQ  Z3, Z2, Z2;         \
	CMP      $2, bound, Z2, k

// func tileW1(slab *uint64, groups int, q *uint64, b *[8]int) (group int, masks uint64)
// q holds the four queries' words one after another, b their bounds.
TEXT ·tileW1(SB), NOSPLIT, $0-48
	MOVQ         slab+0(FP), SI
	MOVQ         groups+8(FP), CX
	MOVQ         q+16(FP), DX
	VPBROADCASTQ (DX), Z16
	VPBROADCASTQ 8(DX), Z20
	VPBROADCASTQ 16(DX), Z24
	VPBROADCASTQ 24(DX), Z28
	MOVQ         b+24(FP), BX
	VPBROADCASTQ (BX), Z12
	VPBROADCASTQ 8(BX), Z13
	VPBROADCASTQ 16(BX), Z14
	VPBROADCASTQ 24(BX), Z15
	XORQ         AX, AX
	XORL         BX, BX

t1loop:
	CMPQ       AX, CX
	JGE        t1done
	PREFETCHT0 AHEAD(SI)
	PREFETCHT0 (AHEAD+64)(SI)
	VMOVDQU64  (SI), Z0
	VMOVDQU64  64(SI), Z1
	TILE1(Z16, VPCMPQ, Z12, K1)
	TILE1(Z20, VPCMPQ, Z13, K2)
	TILE1(Z24, VPCMPQ, Z14, K3)
	TILE1(Z28, VPCMPQ, Z15, K4)
	KORW       K2, K1, K5
	KORW       K4, K3, K6
	KORTESTW   K6, K5
	JNZ        t1hit
	ADDQ       $128, SI
	INCQ       AX
	JMP        t1loop

t1hit:
	PACK4

t1done:
	VZEROUPPER
	MOVQ AX, group+32(FP)
	MOVQ BX, masks+40(FP)
	RET

// func tileW1x8(slab *uint64, groups int, q *uint64, b *[8]int) (group int, masks uint64)
TEXT ·tileW1x8(SB), NOSPLIT, $0-48
	MOVQ         slab+0(FP), SI
	MOVQ         groups+8(FP), CX
	MOVQ         q+16(FP), DX
	MOVQ         b+24(FP), BX
	VPBROADCASTQ (DX), Z16
	VPBROADCASTQ 8(DX), Z17
	VPBROADCASTQ 16(DX), Z18
	VPBROADCASTQ 24(DX), Z19
	VPBROADCASTQ 32(DX), Z20
	VPBROADCASTQ 40(DX), Z21
	VPBROADCASTQ 48(DX), Z22
	VPBROADCASTQ 56(DX), Z23
	XORQ         AX, AX
	XORL         R8, R8

t1xloop:
	CMPQ       AX, CX
	JGE        t1xdone
	PREFETCHT0 AHEAD(SI)
	PREFETCHT0 (AHEAD+64)(SI)
	VMOVDQU64  (SI), Z0
	VMOVDQU64  64(SI), Z1
	TILE1(Z16, VPCMPQ.BCST, (BX), K0)
	TILE1(Z17, VPCMPQ.BCST, 8(BX), K1)
	TILE1(Z18, VPCMPQ.BCST, 16(BX), K2)
	TILE1(Z19, VPCMPQ.BCST, 24(BX), K3)
	TILE1(Z20, VPCMPQ.BCST, 32(BX), K4)
	TILE1(Z21, VPCMPQ.BCST, 40(BX), K5)
	TILE1(Z22, VPCMPQ.BCST, 48(BX), K6)
	TILE1(Z23, VPCMPQ.BCST, 56(BX), K7)
	ANY8(t1xhit)
	ADDQ       $128, SI
	INCQ       AX
	JMP        t1xloop

t1xhit:
	PACK8

t1xdone:
	VZEROUPPER
	MOVQ AX, group+32(FP)
	MOVQ R8, masks+40(FP)
	RET

// TILE2 scores one query of a stride-2 tile against the group's word-major
// halves: words 0 and 1 of vectors 0-7 in Z4 and Z5, of vectors 8-15 in Z6
// and Z7.
#define TILE2(q0, q1, CMP, bound, k) \
	VPXORQ   Z4, q0, Z8;             \
	VPXORQ   Z5, q1, Z9;             \
	VPXORQ   Z6, q0, Z10;            \
	VPXORQ   Z7, q1, Z11;            \
	VPOPCNTQ Z8, Z8;                 \
	VPOPCNTQ Z9, Z9;                 \
	VPOPCNTQ Z10, Z10;               \
	VPOPCNTQ Z11, Z11;               \
	VPADDQ   Z9, Z8, Z8;             \
	VPADDQ   Z11, Z10, Z10;          \
	VPMINUQ  Z10, Z8, Z8;            \
	CMP      $2, bound, Z8, k

// WORDS2 loads the group at SI and brings it to TILE2's word-major halves.
#define WORDS2 \
	VMOVDQU64   (SI), Z0;     \
	VMOVDQU64   64(SI), Z1;   \
	VMOVDQU64   128(SI), Z2;  \
	VMOVDQU64   192(SI), Z3;  \
	VPUNPCKLQDQ Z1, Z0, Z4;   \
	VPUNPCKHQDQ Z1, Z0, Z5;   \
	VPUNPCKLQDQ Z3, Z2, Z6;   \
	VPUNPCKHQDQ Z3, Z2, Z7

// PREFETCH4 prefetches the four cache lines AHEAD bytes past off(SI).
#define PREFETCH4(off) \
	PREFETCHT0 (AHEAD+off)(SI);     \
	PREFETCHT0 (AHEAD+off+64)(SI);  \
	PREFETCHT0 (AHEAD+off+128)(SI); \
	PREFETCHT0 (AHEAD+off+192)(SI)

// func tileW2(slab *uint64, groups int, q *uint64, b *[8]int) (group int, masks uint64)
// The unpacks of maskW2, once per group: word-major, lanes in the same
// order.
TEXT ·tileW2(SB), NOSPLIT, $0-48
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
	MOVQ         b+24(FP), BX
	VPBROADCASTQ (BX), Z12
	VPBROADCASTQ 8(BX), Z13
	VPBROADCASTQ 16(BX), Z14
	VPBROADCASTQ 24(BX), Z15
	XORQ         AX, AX
	XORL         BX, BX

t2loop:
	CMPQ     AX, CX
	JGE      t2done
	PREFETCH4(0)
	WORDS2
	TILE2(Z16, Z17, VPCMPQ, Z12, K1)
	TILE2(Z20, Z21, VPCMPQ, Z13, K2)
	TILE2(Z24, Z25, VPCMPQ, Z14, K3)
	TILE2(Z28, Z29, VPCMPQ, Z15, K4)
	KORW     K2, K1, K5
	KORW     K4, K3, K6
	KORTESTW K6, K5
	JNZ      t2hit
	ADDQ     $256, SI
	INCQ     AX
	JMP      t2loop

t2hit:
	PACK4

t2done:
	VZEROUPPER
	MOVQ AX, group+32(FP)
	MOVQ BX, masks+40(FP)
	RET

// func tileW2x8(slab *uint64, groups int, q *uint64, b *[8]int) (group int, masks uint64)
TEXT ·tileW2x8(SB), NOSPLIT, $0-48
	MOVQ         slab+0(FP), SI
	MOVQ         groups+8(FP), CX
	MOVQ         q+16(FP), DX
	MOVQ b+24(FP), BX
	BROADCAST16
	XORQ AX, AX
	XORL R8, R8

t2xloop:
	CMPQ AX, CX
	JGE  t2xdone
	PREFETCH4(0)
	WORDS2
	TILE2(Z16, Z17, VPCMPQ.BCST, (BX), K0)
	TILE2(Z18, Z19, VPCMPQ.BCST, 8(BX), K1)
	TILE2(Z20, Z21, VPCMPQ.BCST, 16(BX), K2)
	TILE2(Z22, Z23, VPCMPQ.BCST, 24(BX), K3)
	TILE2(Z24, Z25, VPCMPQ.BCST, 32(BX), K4)
	TILE2(Z26, Z27, VPCMPQ.BCST, 40(BX), K5)
	TILE2(Z28, Z29, VPCMPQ.BCST, 48(BX), K6)
	TILE2(Z30, Z31, VPCMPQ.BCST, 56(BX), K7)
	ANY8(t2xhit)
	ADDQ $256, SI
	INCQ AX
	JMP  t2xloop

t2xhit:
	PACK8

t2xdone:
	VZEROUPPER
	MOVQ AX, group+32(FP)
	MOVQ R8, masks+40(FP)
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

// TILE4 scores one query of a stride-4 tile: words 0-3 of vectors 0-7 in
// Z8-Z11, of vectors 8-15 in Z0-Z3; Z4-Z7 are scratch. XOR is VPXORQ (query
// words in registers) or VPXORQ.BCST (in memory).
#define TILE4(XOR, q0, q1, q2, q3, CMP, bound, k) \
	XOR      q0, Z8, Z4;                          \
	XOR      q1, Z9, Z5;                          \
	XOR      q2, Z10, Z6;                         \
	XOR      q3, Z11, Z7;                         \
	VPOPCNTQ Z4, Z4;                              \
	VPOPCNTQ Z5, Z5;                              \
	VPOPCNTQ Z6, Z6;                              \
	VPOPCNTQ Z7, Z7;                              \
	VPADDQ   Z5, Z4, Z4;                          \
	VPADDQ   Z7, Z6, Z6;                          \
	VPADDQ   Z6, Z4, Z4;                          \
	XOR      q0, Z0, Z5;                          \
	XOR      q1, Z1, Z6;                          \
	XOR      q2, Z2, Z7;                          \
	VPOPCNTQ Z5, Z5;                              \
	VPOPCNTQ Z6, Z6;                              \
	VPOPCNTQ Z7, Z7;                              \
	VPADDQ   Z6, Z5, Z5;                          \
	VPADDQ   Z7, Z5, Z5;                          \
	XOR      q3, Z3, Z6;                          \
	VPOPCNTQ Z6, Z6;                              \
	VPADDQ   Z6, Z5, Z5;                          \
	VPMINUQ  Z5, Z4, Z4;                          \
	CMP      $2, bound, Z4, k

// WORDS4 loads the group at SI and brings it to TILE4's word-major halves.
#define WORDS4 \
	HALF4(0, Z8, Z9, Z10, Z11); \
	HALF4(256, Z0, Z1, Z2, Z3)

// func tileW4(slab *uint64, groups int, q *uint64, b *[8]int) (group int, masks uint64)
// The unpacks and shuffles of maskW4 on the data, once per group, before
// any query touches it. All 32 ZMM registers are in use.
TEXT ·tileW4(SB), NOSPLIT, $0-48
	MOVQ         slab+0(FP), SI
	MOVQ         groups+8(FP), CX
	MOVQ         q+16(FP), DX
	BROADCAST16
	MOVQ         b+24(FP), BX
	VPBROADCASTQ (BX), Z12
	VPBROADCASTQ 8(BX), Z13
	VPBROADCASTQ 16(BX), Z14
	VPBROADCASTQ 24(BX), Z15
	XORQ         AX, AX
	XORL         BX, BX

t4loop:
	CMPQ     AX, CX
	JGE      t4done
	PREFETCH4(0)
	PREFETCH4(256)
	WORDS4
	TILE4(VPXORQ, Z16, Z17, Z18, Z19, VPCMPQ, Z12, K1)
	TILE4(VPXORQ, Z20, Z21, Z22, Z23, VPCMPQ, Z13, K2)
	TILE4(VPXORQ, Z24, Z25, Z26, Z27, VPCMPQ, Z14, K3)
	TILE4(VPXORQ, Z28, Z29, Z30, Z31, VPCMPQ, Z15, K4)
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
	MOVQ AX, group+32(FP)
	MOVQ BX, masks+40(FP)
	RET

// func tileW4x8(slab *uint64, groups int, q *uint64, b *[8]int) (group int, masks uint64)
// Queries 0-3 in registers as in tileW4, queries 4-7 read from q.
TEXT ·tileW4x8(SB), NOSPLIT, $0-48
	MOVQ slab+0(FP), SI
	MOVQ groups+8(FP), CX
	MOVQ q+16(FP), DX
	MOVQ b+24(FP), BX
	BROADCAST16
	XORQ AX, AX
	XORL R8, R8

t4xloop:
	CMPQ AX, CX
	JGE  t4xdone
	PREFETCH4(0)
	PREFETCH4(256)
	WORDS4
	TILE4(VPXORQ, Z16, Z17, Z18, Z19, VPCMPQ.BCST, (BX), K0)
	TILE4(VPXORQ, Z20, Z21, Z22, Z23, VPCMPQ.BCST, 8(BX), K1)
	TILE4(VPXORQ, Z24, Z25, Z26, Z27, VPCMPQ.BCST, 16(BX), K2)
	TILE4(VPXORQ, Z28, Z29, Z30, Z31, VPCMPQ.BCST, 24(BX), K3)
	TILE4(VPXORQ.BCST, 128(DX), 136(DX), 144(DX), 152(DX), VPCMPQ.BCST, 32(BX), K4)
	TILE4(VPXORQ.BCST, 160(DX), 168(DX), 176(DX), 184(DX), VPCMPQ.BCST, 40(BX), K5)
	TILE4(VPXORQ.BCST, 192(DX), 200(DX), 208(DX), 216(DX), VPCMPQ.BCST, 48(BX), K6)
	TILE4(VPXORQ.BCST, 224(DX), 232(DX), 240(DX), 248(DX), VPCMPQ.BCST, 56(BX), K7)
	ANY8(t4xhit)
	ADDQ $512, SI
	INCQ AX
	JMP  t4xloop

t4xhit:
	PACK8

t4xdone:
	VZEROUPPER
	MOVQ AX, group+32(FP)
	MOVQ R8, masks+40(FP)
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
