//go:build arm64 && !purego

#include "textflag.h"

// func microNEON8x4Asm(kc int, ap, bp, dst *float64)
//
// One 8×4 micro-tile of the blocked GEMM on NEON (Advanced SIMD): ap holds
// an 8-row packed A strip (8 doubles per k-step), bp a 4-column packed B
// strip (4 doubles per k-step). The 8×4 C tile lives in V0–V15 as 2-lane
// float64 vectors — row i occupies V(2i) (columns 0:2) and V(2i+1)
// (columns 2:4). Every k-step loads the 4 B doubles into V16–V17 and the
// 8 A doubles into V20–V23, broadcasts each A lane with VDUP into V24–V31
// (the Go assembler has no by-element FMLA form), and issues 16 vector
// FMLAs. The finished tile is stored row-major to dst (32 doubles),
// matching the write-back layout of the portable and amd64 kernels.
TEXT ·microNEON8x4Asm(SB), NOSPLIT, $0-32
	MOVD kc+0(FP), R0
	MOVD ap+8(FP), R1
	MOVD bp+16(FP), R2
	MOVD dst+24(FP), R3

	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	VEOR V2.B16, V2.B16, V2.B16
	VEOR V3.B16, V3.B16, V3.B16
	VEOR V4.B16, V4.B16, V4.B16
	VEOR V5.B16, V5.B16, V5.B16
	VEOR V6.B16, V6.B16, V6.B16
	VEOR V7.B16, V7.B16, V7.B16
	VEOR V8.B16, V8.B16, V8.B16
	VEOR V9.B16, V9.B16, V9.B16
	VEOR V10.B16, V10.B16, V10.B16
	VEOR V11.B16, V11.B16, V11.B16
	VEOR V12.B16, V12.B16, V12.B16
	VEOR V13.B16, V13.B16, V13.B16
	VEOR V14.B16, V14.B16, V14.B16
	VEOR V15.B16, V15.B16, V15.B16

	CBZ R0, store

loop:
	VLD1.P 32(R2), [V16.D2, V17.D2]                   // b[0:4] for this k-step
	VLD1.P 64(R1), [V20.D2, V21.D2, V22.D2, V23.D2]   // a[0:8] for this k-step

	VDUP V20.D[0], V24.D2
	VDUP V20.D[1], V25.D2
	VDUP V21.D[0], V26.D2
	VDUP V21.D[1], V27.D2
	VDUP V22.D[0], V28.D2
	VDUP V22.D[1], V29.D2
	VDUP V23.D[0], V30.D2
	VDUP V23.D[1], V31.D2

	VFMLA V24.D2, V16.D2, V0.D2    // row 0
	VFMLA V24.D2, V17.D2, V1.D2
	VFMLA V25.D2, V16.D2, V2.D2    // row 1
	VFMLA V25.D2, V17.D2, V3.D2
	VFMLA V26.D2, V16.D2, V4.D2    // row 2
	VFMLA V26.D2, V17.D2, V5.D2
	VFMLA V27.D2, V16.D2, V6.D2    // row 3
	VFMLA V27.D2, V17.D2, V7.D2
	VFMLA V28.D2, V16.D2, V8.D2    // row 4
	VFMLA V28.D2, V17.D2, V9.D2
	VFMLA V29.D2, V16.D2, V10.D2   // row 5
	VFMLA V29.D2, V17.D2, V11.D2
	VFMLA V30.D2, V16.D2, V12.D2   // row 6
	VFMLA V30.D2, V17.D2, V13.D2
	VFMLA V31.D2, V16.D2, V14.D2   // row 7
	VFMLA V31.D2, V17.D2, V15.D2

	SUB  $1, R0, R0
	CBNZ R0, loop

store:
	VST1.P [V0.D2, V1.D2, V2.D2, V3.D2], 64(R3)
	VST1.P [V4.D2, V5.D2, V6.D2, V7.D2], 64(R3)
	VST1.P [V8.D2, V9.D2, V10.D2, V11.D2], 64(R3)
	VST1   [V12.D2, V13.D2, V14.D2, V15.D2], (R3)
	RET

// func dot4NEON(k int, a, b0, b1, b2, b3 *float64) (s0, s1, s2, s3 float64)
//
// The dot-block kernel body on NEON: s_j = a·b_j over k elements, k a
// positive multiple of 4. Each k-step of 4 loads two 2-lane vectors of a
// and of every b row; the two accumulators of each b row (V0/V1 for b0 …
// V6/V7 for b3) keep eight FMLA chains in flight. The Go assembler has no
// vector FADD, so the pair folds as acc0 + acc1·1 (one exact fused step)
// and the lanes as lane0 + lane1 in scalar FADDD — a fixed tree, so an
// element's value never depends on the call it is in.
TEXT ·dot4NEON(SB), NOSPLIT, $0-80
	MOVD k+0(FP), R0
	MOVD a+8(FP), R1
	MOVD b0+16(FP), R2
	MOVD b1+24(FP), R3
	MOVD b2+32(FP), R4
	MOVD b3+40(FP), R5
	LSR  $2, R0, R0

	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	VEOR V2.B16, V2.B16, V2.B16
	VEOR V3.B16, V3.B16, V3.B16
	VEOR V4.B16, V4.B16, V4.B16
	VEOR V5.B16, V5.B16, V5.B16
	VEOR V6.B16, V6.B16, V6.B16
	VEOR V7.B16, V7.B16, V7.B16

dotloop:
	VLD1.P 32(R1), [V16.D2, V17.D2]
	VLD1.P 32(R2), [V18.D2, V19.D2]
	VLD1.P 32(R3), [V20.D2, V21.D2]
	VLD1.P 32(R4), [V22.D2, V23.D2]
	VLD1.P 32(R5), [V24.D2, V25.D2]
	VFMLA  V16.D2, V18.D2, V0.D2
	VFMLA  V17.D2, V19.D2, V1.D2
	VFMLA  V16.D2, V20.D2, V2.D2
	VFMLA  V17.D2, V21.D2, V3.D2
	VFMLA  V16.D2, V22.D2, V4.D2
	VFMLA  V17.D2, V23.D2, V5.D2
	VFMLA  V16.D2, V24.D2, V6.D2
	VFMLA  V17.D2, V25.D2, V7.D2
	SUB    $1, R0, R0
	CBNZ   R0, dotloop

	FMOVD $1.0, F30
	VDUP  V30.D[0], V30.D2
	VFMLA V1.D2, V30.D2, V0.D2
	VFMLA V3.D2, V30.D2, V2.D2
	VFMLA V5.D2, V30.D2, V4.D2
	VFMLA V7.D2, V30.D2, V6.D2

	VDUP  V0.D[1], V31.D2
	FADDD F31, F0, F0
	FMOVD F0, s0+48(FP)
	VDUP  V2.D[1], V31.D2
	FADDD F31, F2, F2
	FMOVD F2, s1+56(FP)
	VDUP  V4.D[1], V31.D2
	FADDD F31, F4, F4
	FMOVD F4, s2+64(FP)
	VDUP  V6.D[1], V31.D2
	FADDD F31, F6, F6
	FMOVD F6, s3+72(FP)
	RET

// func axpy4NEON(rows, n, k int, a *float64, rsA, csA int, b *float64, ldb int, c *float64, ldc int, acc bool)
//
// The broadcast-axpy kernel body on NEON: C[i, 0:n] (+)= Σ_kk A[i, kk]·
// B[kk, 0:n], n a positive multiple of 4, rows and k positive, strides in
// elements; acc false starts every element from +0 instead of loading C.
// Rows go four at a time, then one at a time, each group sweeping its rows
// left to right in 4-column strips: C rows in V0–V7, one B row pair and
// four load-replicated A scalars per k-step, eight FMLAs. Every element
// is the chain c ← fma(a_kk, b_kk, c) in k order whichever group it is
// in.
TEXT ·axpy4NEON(SB), NOSPLIT, $0-81
	MOVD  rows+0(FP), R0
	MOVD  a+24(FP), R1
	MOVD  c+64(FP), R3
	MOVD  rsA+32(FP), R4
	MOVD  csA+40(FP), R5
	MOVD  ldb+56(FP), R6
	MOVD  ldc+72(FP), R7
	MOVBU acc+80(FP), R16
	LSL   $3, R4, R4
	LSL   $3, R5, R5
	LSL   $3, R6, R6
	LSL   $3, R7, R7

axpyrows4:
	CMP  $4, R0
	BLT  axpyrows1
	MOVD b+48(FP), R2             // B strip
	MOVD R3, R13                  // C strip of the group's first row
	MOVD n+8(FP), R8              // columns left

axpystrip4:
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	VEOR V2.B16, V2.B16, V2.B16
	VEOR V3.B16, V3.B16, V3.B16
	VEOR V4.B16, V4.B16, V4.B16
	VEOR V5.B16, V5.B16, V5.B16
	VEOR V6.B16, V6.B16, V6.B16
	VEOR V7.B16, V7.B16, V7.B16
	CBZ  R16, axpyrun4
	MOVD R13, R12
	VLD1 (R12), [V0.D2, V1.D2]
	ADD  R7, R12, R12
	VLD1 (R12), [V2.D2, V3.D2]
	ADD  R7, R12, R12
	VLD1 (R12), [V4.D2, V5.D2]
	ADD  R7, R12, R12
	VLD1 (R12), [V6.D2, V7.D2]

axpyrun4:
	MOVD R1, R10
	MOVD R2, R11
	MOVD k+16(FP), R9

axpyk4:
	VLD1  (R11), [V16.D2, V17.D2]
	ADD   R6, R11, R11
	MOVD  R10, R15
	VLD1R (R15), [V20.D2]
	ADD   R4, R15, R15
	VLD1R (R15), [V21.D2]
	ADD   R4, R15, R15
	VLD1R (R15), [V22.D2]
	ADD   R4, R15, R15
	VLD1R (R15), [V23.D2]
	ADD   R5, R10, R10
	VFMLA V20.D2, V16.D2, V0.D2
	VFMLA V20.D2, V17.D2, V1.D2
	VFMLA V21.D2, V16.D2, V2.D2
	VFMLA V21.D2, V17.D2, V3.D2
	VFMLA V22.D2, V16.D2, V4.D2
	VFMLA V22.D2, V17.D2, V5.D2
	VFMLA V23.D2, V16.D2, V6.D2
	VFMLA V23.D2, V17.D2, V7.D2
	SUBS  $1, R9, R9
	BNE   axpyk4

	MOVD R13, R12
	VST1 [V0.D2, V1.D2], (R12)
	ADD  R7, R12, R12
	VST1 [V2.D2, V3.D2], (R12)
	ADD  R7, R12, R12
	VST1 [V4.D2, V5.D2], (R12)
	ADD  R7, R12, R12
	VST1 [V6.D2, V7.D2], (R12)
	ADD  $32, R2, R2
	ADD  $32, R13, R13
	SUBS $4, R8, R8
	BNE  axpystrip4

	ADD  R4<<2, R1, R1
	ADD  R7<<2, R3, R3
	SUB  $4, R0, R0
	B    axpyrows4

axpyrows1:
	CBZ  R0, axpydone
	MOVD b+48(FP), R2
	MOVD R3, R13
	MOVD n+8(FP), R8

axpystrip1:
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	CBZ  R16, axpyrun1
	VLD1 (R13), [V0.D2, V1.D2]

axpyrun1:
	MOVD R1, R10
	MOVD R2, R11
	MOVD k+16(FP), R9

axpyk1:
	VLD1  (R11), [V16.D2, V17.D2]
	ADD   R6, R11, R11
	VLD1R (R10), [V20.D2]
	ADD   R5, R10, R10
	VFMLA V20.D2, V16.D2, V0.D2
	VFMLA V20.D2, V17.D2, V1.D2
	SUBS  $1, R9, R9
	BNE   axpyk1

	VST1 [V0.D2, V1.D2], (R13)
	ADD  $32, R2, R2
	ADD  $32, R13, R13
	SUBS $4, R8, R8
	BNE  axpystrip1

	ADD  R4, R1, R1
	ADD  R7, R3, R3
	SUB  $1, R0, R0
	B    axpyrows1

axpydone:
	RET
