//go:build amd64

#include "textflag.h"

// AVX2 bodies of the kernels backend. Element counts (n) arrive pre-rounded
// to the block size by the Go wrappers in avx2_amd64.go, which also run the
// scalar tails, so every loop here is whole 256-bit blocks.

// Nibble popcount lookup table for VPSHUFB (Mula's algorithm), duplicated
// across both 128-bit lanes.
DATA nibPopcnt<>+0(SB)/8, $0x0302020102010100
DATA nibPopcnt<>+8(SB)/8, $0x0403030203020201
DATA nibPopcnt<>+16(SB)/8, $0x0302020102010100
DATA nibPopcnt<>+24(SB)/8, $0x0403030203020201
GLOBL nibPopcnt<>(SB), RODATA|NOPTR, $32

DATA lowNibbles<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA lowNibbles<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA lowNibbles<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA lowNibbles<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL lowNibbles<>(SB), RODATA|NOPTR, $32

// Per-lane qword bits {1, 2, 4, 8}: expanding a mask nibble to four all-ones/
// all-zero qword lanes is (broadcast(nib) AND laneBits) == laneBits.
DATA laneBits<>+0(SB)/8, $1
DATA laneBits<>+8(SB)/8, $2
DATA laneBits<>+16(SB)/8, $4
DATA laneBits<>+24(SB)/8, $8
GLOBL laneBits<>(SB), RODATA|NOPTR, $32

// Unsigned-compare sign flip for 32-bit lanes (VPCMPGTD is signed).
DATA signFlip32<>+0(SB)/8, $0x8000000080000000
DATA signFlip32<>+8(SB)/8, $0x8000000080000000
DATA signFlip32<>+16(SB)/8, $0x8000000080000000
DATA signFlip32<>+24(SB)/8, $0x8000000080000000
GLOBL signFlip32<>(SB), RODATA|NOPTR, $32

// func popcountBodyAVX2(w *uint64, n int) int
// Mula's nibble-LUT popcount: per 32-byte block, VPSHUFB maps low and high
// nibbles to per-byte counts, VPSADBW folds bytes to qword partials, and a
// qword accumulator carries the running sum.
TEXT ·popcountBodyAVX2(SB), NOSPLIT, $0-24
	MOVQ    w+0(FP), SI
	MOVQ    n+8(FP), CX
	SHRQ    $2, CX
	VMOVDQU nibPopcnt<>(SB), Y4
	VMOVDQU lowNibbles<>(SB), Y5
	VPXOR   Y6, Y6, Y6             // accumulator
	VPXOR   Y7, Y7, Y7             // zero for VPSADBW

popcntloop:
	VMOVDQU (SI), Y0
	VPAND   Y5, Y0, Y1
	VPSRLW  $4, Y0, Y2
	VPAND   Y5, Y2, Y2
	VPSHUFB Y1, Y4, Y1
	VPSHUFB Y2, Y4, Y2
	VPADDB  Y2, Y1, Y1
	VPSADBW Y7, Y1, Y1
	VPADDQ  Y1, Y6, Y6
	ADDQ    $32, SI
	DECQ    CX
	JNZ     popcntloop
	VEXTRACTI128 $1, Y6, X1
	VPADDQ  X1, X6, X6
	MOVQ    X6, AX
	VPEXTRQ $1, X6, BX
	ADDQ    BX, AX
	MOVQ    AX, ret+16(FP)
	VZEROUPPER
	RET

// func firstNonzeroBodyAVX2(w *uint64, n int) int
// Returns the 4-aligned block start holding the first nonzero word, or -1.
// The Go wrapper refines to the exact word.
TEXT ·firstNonzeroBodyAVX2(SB), NOSPLIT, $0-24
	MOVQ w+0(FP), SI
	MOVQ n+8(FP), CX
	XORQ AX, AX

fnzloop:
	VMOVDQU (SI), Y0
	VPTEST  Y0, Y0
	JNZ     fnzfound
	ADDQ    $32, SI
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      fnzloop
	MOVQ    $-1, AX

fnzfound:
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET

// func spanLessBodyAVX2(a *uint32, n int, v uint32) int
// Counts the prefix of a[0:n] with a[i] < v (unsigned): per 8-lane block,
// sign-flip both sides and VPCMPGTD against broadcast v; a full mask means
// the whole block is below v, otherwise the first offending lane ends the
// span.
TEXT ·spanLessBodyAVX2(SB), NOSPLIT, $0-32
	MOVQ         a+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVL         v+16(FP), DX
	XORL         $0x80000000, DX
	MOVL         DX, X0
	VPBROADCASTD X0, Y5
	VMOVDQU      signFlip32<>(SB), Y6
	XORQ         AX, AX

spanloop:
	VMOVDQU   (SI), Y0
	VPXOR     Y6, Y0, Y0
	VPCMPGTD  Y0, Y5, Y1
	VPMOVMSKB Y1, BX
	CMPL      BX, $0xFFFFFFFF
	JNE       spanpartial
	ADDQ      $32, SI
	ADDQ      $8, AX
	CMPQ      AX, CX
	JL        spanloop
	JMP       spandone

spanpartial:
	NOTL BX
	BSFL BX, BX
	SHRL $2, BX
	ADDQ BX, AX

spandone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func blockAddF64BodyAVX2(yrow, xrow *float64, n int, cm, ym uint64)
// The dense (+, passthrough) block fold over four source lanes at a time:
// lanes in cm get yold+x where ym is set and the raw x on first write; lanes
// outside cm keep yold. Mask nibbles expand to qword lane masks via
// (broadcast AND laneBits) == laneBits.
TEXT ·blockAddF64BodyAVX2(SB), NOSPLIT, $0-40
	MOVQ    yrow+0(FP), DI
	MOVQ    xrow+8(FP), SI
	MOVQ    n+16(FP), CX
	MOVQ    cm+24(FP), R8
	MOVQ    ym+32(FP), R9
	SHRQ    $2, CX
	VMOVDQU laneBits<>(SB), Y15

blockaddloop:
	// cm nibble -> Y2 lane mask. VMOVQ, not MOVQ: a legacy-SSE move into an
	// XMM register inside VEX code pays the SSE/AVX state-transition penalty
	// on every iteration (measured ~50x on this loop).
	MOVQ         R8, AX
	ANDQ         $15, AX
	VMOVQ        AX, X2
	VPBROADCASTQ X2, Y2
	VPAND        Y15, Y2, Y2
	VPCMPEQQ     Y15, Y2, Y2
	SHRQ         $4, R8

	// ym nibble -> Y3 lane mask
	MOVQ         R9, AX
	ANDQ         $15, AX
	VMOVQ        AX, X3
	VPBROADCASTQ X3, Y3
	VPAND        Y15, Y3, Y3
	VPCMPEQQ     Y15, Y3, Y3
	SHRQ         $4, R9

	VMOVUPD   (SI), Y4         // x
	VMOVUPD   (DI), Y5         // yold
	VADDPD    Y4, Y5, Y6       // sum = yold + x
	VBLENDVPD Y3, Y6, Y4, Y7   // sel = ym ? sum : x
	VBLENDVPD Y2, Y7, Y5, Y7   // new = cm ? sel : yold
	VMOVUPD   Y7, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       blockaddloop
	VZEROUPPER
	RET

// func scatterAddF64BodyAVX2(yw *uint64, yvals *float64, idx *uint32, n int, m float64)
// The scalar-engine sum fold: branchless first-write handling — a clear mask
// bit substitutes -0.0 for the stale value, and -0.0 + m == m bit-for-bit
// for every non-signaling m, matching the scalar reference's raw store.
TEXT ·scatterAddF64BodyAVX2(SB), NOSPLIT, $0-40
	MOVQ  yw+0(FP), R8
	MOVQ  yvals+8(FP), R10
	MOVQ  idx+16(FP), SI
	MOVQ  n+24(FP), CX
	MOVSD m+32(FP), X0
	MOVQ  $0x8000000000000000, R13

scatterloop:
	MOVL    (SI), DX           // dst
	MOVQ    DX, BX
	SHRQ    $6, BX
	MOVQ    (R8)(BX*8), R9     // mask word
	MOVQ    (R10)(DX*8), R11   // stale-or-live y value bits
	BTQ     DX, R9             // CF = already reduced into?
	CMOVQCC R13, R11           // no: fold from -0.0, i.e. store m raw
	BTSQ    DX, R9
	MOVQ    R9, (R8)(BX*8)
	MOVQ    R11, X1
	ADDSD   X0, X1
	MOVSD   X1, (R10)(DX*8)
	ADDQ    $4, SI
	DECQ    CX
	JNZ     scatterloop
	RET

// Per-lane dword bits {1, 2, ..., 128}: expanding a mask byte to eight
// all-ones/all-zero dword lanes is (broadcast(byte) AND laneBits32) ==
// laneBits32, the f32 twin of laneBits.
DATA laneBits32<>+0(SB)/8, $0x0000000200000001
DATA laneBits32<>+8(SB)/8, $0x0000000800000004
DATA laneBits32<>+16(SB)/8, $0x0000002000000010
DATA laneBits32<>+24(SB)/8, $0x0000008000000040
GLOBL laneBits32<>(SB), RODATA|NOPTR, $32

// EXPAND8 turns the low byte of mask register R into the eight dword lane
// masks of Y (through X, Y's low half) and shifts R on to the next byte.
// Y15 holds laneBits32.
#define EXPAND8(R, X, Y) \
	VMOVQ        R, X      \
	VPBROADCASTD X, Y      \
	VPAND        Y15, Y, Y \
	VPCMPEQD     Y15, Y, Y \
	SHRQ         $8, R

// The two f32 path-semiring block folds share one frame and one loop shape:
// eight source lanes per step, Y2 = cm lanes, Y3 = ym lanes, Y4 = x, Y5 =
// yold, Y6 = the candidate r, Y7 = ym ? yold : r — so a first-write lane
// reduces r with itself, which is r — and the result blended over yold under
// cm. Go's builtin min and max order -0 below +0 where VMINPS/VMAXPS return
// their second operand for a pair of zeros; taking the instruction in both
// operand orders and OR-ing (min: either -0 wins) or AND-ing (max: either +0
// wins) the results is exact, and a no-op when the operands are not both
// zero. NaNs are the scalar loop's: a group whose candidate or live yold
// holds one in a cm lane is left unwritten and reported in the returned
// group mask (bit g = lanes 8g..8g+7).
#define PATHFOLD_PROLOGUE \
	MOVQ         yrow+0(FP), DI  \
	MOVQ         xrow+8(FP), SI  \
	MOVQ         n+16(FP), CX    \
	VBROADCASTSS w+24(FP), Y14   \
	MOVQ         cm+32(FP), R8   \
	MOVQ         ym+40(FP), R9   \
	SHRQ         $3, CX          \
	VMOVDQU      laneBits32<>(SB), Y15 \
	XORQ         AX, AX          \
	MOVQ         $1, BX

// func blockMinPlusF32BodyAVX2(yrow, xrow *float32, n int, w float32, cm, ym uint64) (nan uint64)
TEXT ·blockMinPlusF32BodyAVX2(SB), NOSPLIT, $0-56
	PATHFOLD_PROLOGUE

minplusloop:
	EXPAND8(R8, X2, Y2)
	EXPAND8(R9, X3, Y3)
	VMOVUPS   (SI), Y4
	VMOVUPS   (DI), Y5
	VADDPS    Y14, Y4, Y6      // r = x + w
	VBLENDVPS Y3, Y5, Y6, Y7
	VCMPPS    $3, Y6, Y7, Y8   // unordered: r or the value it meets is a NaN
	VPAND     Y2, Y8, Y8
	VMOVMSKPS Y8, DX
	TESTL     DX, DX
	JNZ       minplusnan
	VMINPS    Y6, Y7, Y8
	VMINPS    Y7, Y6, Y9
	VORPS     Y9, Y8, Y8       // min(yold, r)
	VBLENDVPS Y2, Y8, Y5, Y8
	VMOVUPS   Y8, (DI)

minplusnext:
	ADDQ $32, SI
	ADDQ $32, DI
	SHLQ $1, BX
	DECQ CX
	JNZ  minplusloop
	MOVQ AX, nan+48(FP)
	VZEROUPPER
	RET

minplusnan:
	ORQ BX, AX
	JMP minplusnext

// func blockMaxMinF32BodyAVX2(yrow, xrow *float32, n int, w float32, cm, ym uint64) (nan uint64)
TEXT ·blockMaxMinF32BodyAVX2(SB), NOSPLIT, $0-56
	PATHFOLD_PROLOGUE

maxminloop:
	EXPAND8(R8, X2, Y2)
	EXPAND8(R9, X3, Y3)
	VMOVUPS   (SI), Y4
	VMOVUPS   (DI), Y5
	VMINPS    Y14, Y4, Y6
	VMINPS    Y4, Y14, Y7
	VORPS     Y7, Y6, Y6       // r = min(x, w); a NaN if either is
	VBLENDVPS Y3, Y5, Y6, Y7
	VCMPPS    $3, Y6, Y7, Y8
	VPAND     Y2, Y8, Y8
	VMOVMSKPS Y8, DX
	TESTL     DX, DX
	JNZ       maxminnan
	VMAXPS    Y6, Y7, Y8
	VMAXPS    Y7, Y6, Y9
	VANDPS    Y9, Y8, Y8       // max(yold, r)
	VBLENDVPS Y2, Y8, Y5, Y8
	VMOVUPS   Y8, (DI)

maxminnext:
	ADDQ $32, SI
	ADDQ $32, DI
	SHLQ $1, BX
	DECQ CX
	JNZ  maxminloop
	MOVQ AX, nan+48(FP)
	VZEROUPPER
	RET

maxminnan:
	ORQ BX, AX
	JMP maxminnext
