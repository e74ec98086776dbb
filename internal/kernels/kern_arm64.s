//go:build arm64

#include "textflag.h"

// NEON (ASIMD) bodies: whole 16-byte blocks, element counts pre-rounded by
// the Go wrappers in neon_arm64.go.

// func popcountBodyNEON(w *uint64, n int) int
// VCNT gives per-byte popcounts; VUADDLV folds the 16 bytes to one scalar.
TEXT ·popcountBodyNEON(SB), NOSPLIT, $0-24
	MOVD w+0(FP), R0
	MOVD n+8(FP), R3
	LSR  $1, R3, R3
	MOVD ZR, R4

popcntloop:
	VLD1.P  16(R0), [V0.B16]
	VCNT    V0.B16, V0.B16
	VUADDLV V0.B16, V1
	VMOV    V1.H[0], R5
	ADD     R5, R4, R4
	SUB     $1, R3, R3
	CBNZ    R3, popcntloop
	MOVD    R4, ret+16(FP)
	RET
